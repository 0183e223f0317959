package main

import (
	"sync/atomic"
	"time"
)

// markerBook tracks the latency markers of one open-loop phase. The
// sender plants a marker with the time its batch was due; the drain
// goroutine matches the marker's result when it pops out of Results().
// The two goroutines only meet through the service, which orders a plant
// before its match but not in a way Go can see, so the slots are atomics.
type markerBook struct {
	epoch time.Time
	due   []atomic.Int64 // nanoseconds after epoch the marker's batch was due, +1; 0 = never planted
	got   []atomic.Int64 // nanoseconds after epoch the result was popped, +1; 0 = not yet
	extra atomic.Int64   // results for a marker that was never planted or already matched
}

func newMarkerBook(capacity int, epoch time.Time) *markerBook {
	return &markerBook{
		epoch: epoch,
		due:   make([]atomic.Int64, capacity),
		got:   make([]atomic.Int64, capacity),
	}
}

// plant records that marker id's probe batch was due at the given time.
func (b *markerBook) plant(id int, due time.Time) {
	b.due[id].Store(int64(due.Sub(b.epoch)) + 1)
}

// match records the arrival of marker id's result.
func (b *markerBook) match(id int, now time.Time) {
	if id >= len(b.due) || b.due[id].Load() == 0 ||
		!b.got[id].CompareAndSwap(0, int64(now.Sub(b.epoch))+1) {
		b.extra.Add(1)
	}
}

// markerReport is the outcome of a phase: how many markers went out, how
// many came back, and the latency of each that did, placed on the phase
// clock by its due time.
type markerReport struct {
	planted, matched, lost int
	extra                  int
	latencies              []sample // microseconds, at = seconds after epoch the marker was due
}

func (b *markerBook) report() markerReport {
	r := markerReport{extra: int(b.extra.Load())}
	for i := range b.due {
		due := b.due[i].Load()
		if due == 0 {
			continue
		}
		r.planted++
		got := b.got[i].Load()
		if got == 0 {
			r.lost++
			continue
		}
		r.matched++
		r.latencies = append(r.latencies, sample{
			at:    float64(due-1) / 1e9,
			value: float64(got-due) / 1e3,
		})
	}
	return r
}

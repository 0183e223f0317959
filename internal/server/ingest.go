package server

import (
	"errors"
	"io"
	"sync/atomic"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/wire"
)

// mergeBelow is the engine batch size under which the read loop keeps
// appending the Batch frames its read buffer already holds to one push.
// Each push pays a fixed hand-off (the reader to the engine's distributor
// to every core) that costs about as much as a 64-tuple batch's join work
// and is mostly amortized by 256 tuples (BenchmarkUniFlowPush's
// small-batch curve). A frame of mergeBelow tuples or more is always
// pushed alone, straight from its own decode.
const mergeBelow = 256

// ingest is a session's Batch path, the service's ingress FIFO: it reads
// the session's frames, hands Batch frames to the engine and returns
// their credits. Small frames the read buffer already holds share one
// engine push, and one Credit(n) frame acknowledges every batch of a
// drained read buffer. It owns the session's decode buffer, its
// withheld credits (and their share of the server's credits_outstanding
// gauge) and the per-frame counters behind TuplesIn, BatchesIn and the
// batch latencies.
//
// It touches no socket: the session hands it the frame reader and the
// functions below, so a scripted reader drives it in tests.
type ingest struct {
	r        *wire.Reader
	maxBatch int
	held     *atomic.Int64 // the server-wide withheld-credit gauge

	arm    func()                         // sets the idle deadline, after the credits went out
	push   func([]core.Input) error       // hands a batch to the engine
	credit func(n int) error              // writes one Credit(n) frame
	charge func(tuples int) time.Duration // a frame's rate-shaping debt
	wait   func(time.Duration)            // withholds a throttled frame's credit

	// buf is the decode buffer for the session's whole life: batch
	// decodes into its storage, and the Engine contract says PushBatch
	// does not retain the slice, so steady-state decoding never allocates.
	buf []core.Input
	// pending counts accepted Batch frames whose credits are not yet
	// written.
	pending int

	tuplesIn, batchesIn, latNanos, latMax atomic.Uint64
}

// next reads the session's next frame. Credits go out first whenever the
// session would otherwise wait: before a read that may block (the buffer
// holds no whole next frame) and before any frame but a Batch, a
// control-plane step the client may wait on (CheckpointDone,
// RebalanceCommit, Closed). A run of small frames that arrived together
// is thus acknowledged with one write(2), while a frame larger than the
// read buffer can never be whole in it and is acknowledged on its own.
func (in *ingest) next() (wire.Frame, error) {
	if _, whole := in.r.FrameBuffered(); !whole {
		if err := in.flush(); err != nil {
			return wire.Frame{}, err
		}
	}
	in.arm()
	f, err := in.r.ReadFrame()
	if err != nil {
		return f, in.release(readFailed(err))
	}
	if f.Type != wire.FrameBatch {
		return f, in.flush()
	}
	return f, nil
}

// flush writes one Credit frame returning every pending credit, if any,
// and releases them from the gauge.
func (in *ingest) flush() error {
	if in.pending == 0 {
		return nil
	}
	if err := in.release(in.credit(in.pending)); err != nil {
		return closef("writing credit: %v", err)
	}
	return nil
}

// release hands every pending credit back to the gauge and passes err
// on: flush after writing them, an aborting ingest without — a session
// that fails writes no more Credit frames.
func (in *ingest) release(err error) error {
	in.held.Add(-int64(in.pending))
	in.pending = 0
	return err
}

// batch hands a Batch frame's payload to the engine, together with the
// Batch frames behind it that the read buffer already holds: they are
// decoded back to back into one slice and pushed with one PushBatch — the
// input-side twin of pumpResults' coalescing and of the one Credit frame
// per drained read buffer. A merge ends, and the push happens, at the
// first of: the push reaching mergeBelow tuples, a next frame that is not
// a whole buffered Batch (no push spans a control frame), a frame that
// would take the push past MaxBatch (the frames before it go alone), and a
// frame whose rate-shaping charge comes back non-zero. Accounting stays
// per frame: each is one batch in, one credit and one decode-to-accept
// latency sample. An error ends the session.
func (in *ingest) batch(payload []byte) (err error) {
	defer func() {
		if err != nil {
			in.release(err)
		}
	}()
	batch := in.buf[:0]
	var (
		frames int           // Batch frames in batch
		first  time.Time     // when the first of them began decoding
		later  time.Duration // Σ over them of decode start − first
	)
	// push hands batch to the engine. PushBatch blocks while the engine (or
	// the result path back to this client) is saturated; the frames'
	// credits are withheld for at least that long, which is the
	// backpressure signal the client observes. The withheld interval is
	// visible process-wide as credits_outstanding.
	push := func() error {
		in.held.Add(int64(frames))
		if err := in.push(batch); err != nil {
			in.held.Add(-int64(frames))
			return failf(err.Error(), "engine push: %v", err)
		}
		// Every frame waited from its own decode start; the first waited
		// longest. The read loop is the counters' only writer.
		elapsed := time.Since(first)
		in.tuplesIn.Add(uint64(len(batch)))
		in.batchesIn.Add(uint64(frames))
		in.latNanos.Add(uint64((time.Duration(frames)*elapsed - later).Nanoseconds()))
		if uint64(elapsed) > in.latMax.Load() {
			in.latMax.Store(uint64(elapsed))
		}
		in.pending += frames
		frames, later = 0, 0
		return nil
	}
	var debt time.Duration
	for {
		start := time.Now()
		// Decode behind the frames already merged. DecodeBatchInto writes
		// into tail's storage when it has room, so the frame lands in place;
		// otherwise it returns fresh storage of exactly the frame's size,
		// which a lone frame keeps and a merge is copied onto once. The
		// session keeps the larger storage, so steady state decodes in place.
		tail := batch[len(batch):]
		_, more, err := wire.DecodeBatchInto(payload, in.maxBatch, tail)
		if err != nil {
			// The frames before the bad one are good: they reach the engine
			// and are credited before the Error frame, together with any
			// credits still pending from an earlier merge.
			if frames > 0 {
				if err := push(); err != nil {
					return err
				}
			}
			if err := in.flush(); err != nil {
				return err
			}
			return failf(err.Error(), "bad batch: %v", err)
		}
		if frames > 0 && len(batch)+len(more) > in.maxBatch {
			// The frames before this one go alone; it starts the next merge.
			if err := push(); err != nil {
				return err
			}
			batch = tail
		}
		switch {
		case cap(more) == cap(tail):
			batch = batch[:len(batch)+len(more)]
		case len(batch) == 0:
			batch = more
		default:
			batch = append(batch, more...)
		}
		if cap(batch) > cap(in.buf) {
			in.buf = batch[:0]
		}
		if frames == 0 {
			first = start
		}
		frames++
		later += start.Sub(first)
		// Rate shaping: charge the frame against the tenant's (and the
		// server's) token bucket as it is decoded. A debt closes the merge
		// and withholds this frame's credit; the frame itself is still
		// accepted — shaping delays credits, it never drops data.
		if debt = in.charge(len(more)); debt > 0 || len(batch) >= mergeBelow {
			break
		}
		if typ, whole := in.r.FrameBuffered(); !whole || typ != wire.FrameBatch {
			break
		}
		f, err := in.r.ReadFrame() // served from the buffer
		if err != nil {
			// A buffered frame that fails its CRC: the good frames still
			// reach the engine, then the session aborts, as it would have
			// reading the bad frame on its own.
			if err := push(); err != nil {
				return err
			}
			return readFailed(err)
		}
		payload = f.Payload
	}
	if err := push(); err != nil {
		return err
	}
	if debt > 0 {
		// The wait happens while the gauge still counts the throttled
		// frame, so it reflects throttling too. The earlier frames'
		// credits go out first: only the throttled frame's credit is
		// delayed.
		in.pending--
		err := in.flush()
		in.pending++
		if err != nil {
			return err
		}
		in.wait(debt)
	}
	return nil
}

// readFailed names a failed frame read: the client went away, the idle
// timeout expired (the one read failure the client is told about), or the
// stream broke.
func readFailed(err error) error {
	switch {
	case errors.Is(err, io.EOF):
		return closef("client disconnected")
	case isTimeout(err):
		return failf("idle timeout", "idle timeout")
	default:
		return closef("read: %v", err)
	}
}

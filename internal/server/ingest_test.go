package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/wire"
)

// chunkReader delivers a byte stream in scripted read sizes (the last one
// repeating; none means all at once), so a test decides exactly what the
// ingest's read buffer holds at every step.
type chunkReader struct {
	b      []byte
	chunks []int
	next   int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := len(r.b)
	if len(r.chunks) > 0 {
		n = min(n, r.chunks[min(r.next, len(r.chunks)-1)])
		r.next++
	}
	n = copy(p, r.b[:n])
	r.b = r.b[n:]
	return n, nil
}

// ingestRig runs an ingest over a scripted byte stream with no socket and
// no clock: every push, credit and withhold is recorded as an event, the
// control frames the session would serve too, and the gauge is a local
// counter.
type ingestRig struct {
	in     *ingest
	held   atomic.Int64
	events []string
	pushes [][]core.Input
	debts  []time.Duration // one per charged frame, in order; zero beyond
}

func newIngestRig(stream []byte, chunks []int, maxBatch int) *ingestRig {
	rig := &ingestRig{}
	rig.in = &ingest{
		r:        wire.NewReader(&chunkReader{b: stream, chunks: chunks}),
		maxBatch: maxBatch,
		held:     &rig.held,
		arm:      func() {},
		push: func(b []core.Input) error {
			rig.pushes = append(rig.pushes, slices.Clone(b))
			rig.events = append(rig.events, fmt.Sprintf("push %d", len(b)))
			return nil
		},
		credit: func(n int) error {
			rig.events = append(rig.events, fmt.Sprintf("credit %d", n))
			return nil
		},
		charge: func(int) time.Duration {
			if len(rig.debts) == 0 {
				return 0
			}
			d := rig.debts[0]
			rig.debts = rig.debts[1:]
			return d
		},
		wait: func(time.Duration) { rig.events = append(rig.events, "wait") },
	}
	return rig
}

// run drives the ingest the way session.readLoop does: Batch frames go to
// batch, a Close ends the run, every other frame is recorded as the
// session would serve it. It returns the error that ended the run (the
// stream's EOF included), or nil at a Close.
func (rig *ingestRig) run() error {
	for {
		f, err := rig.in.next()
		if err != nil {
			return err
		}
		switch f.Type {
		case wire.FrameBatch:
			if err := rig.in.batch(f.Payload); err != nil {
				return err
			}
		case wire.FrameClose:
			rig.events = append(rig.events, "close")
			return nil
		default:
			rig.events = append(rig.events, f.Type.String())
		}
	}
}

// wireFrames encodes Batch frames of the given sizes (a negative size is a
// control frame of that type) with distinct tuples numbered from 0.
func wireFrames(t testing.TB, sizes ...int) []byte {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	first := 0
	for i, n := range sizes {
		if n < 0 {
			buf.Write(rawFrame(wire.FrameType(-n), nil))
			continue
		}
		if err := w.WriteBatch(uint64(i+1), numbered(n, first)); err != nil {
			t.Fatal(err)
		}
		first += n
	}
	return buf.Bytes()
}

// Control frames in a wireFrames size list.
const (
	ckptFrame  = -int(wire.FrameCheckpoint)
	closeFrame = -int(wire.FrameClose)
)

// TestIngestRules holds the ingest to its rules, one row per rule, with
// no socket and no sleep. Each row names the rule it pins; breaking that
// rule in the ingest changes the row's events.
func TestIngestRules(t *testing.T) {
	half := wireFrames(t, 8, 8, 8)
	badCRC := wireFrames(t, 8, 8, 8)
	badCRC[len(badCRC)-1] ^= 0xff
	rows := []struct {
		rule     string
		stream   []byte
		chunks   []int
		maxBatch int
		debts    []time.Duration
		want     string // the events, then the error that ended the run
	}{
		{
			rule:     "one cumulative grant per drained read buffer, not one per push",
			stream:   wireFrames(t, 10, 10, 10, 10),
			maxBatch: 16,
			want:     "push 10, push 10, push 10, push 10, credit 4 | client disconnected",
		},
		{
			rule:   "credits are flushed before a control frame, and no push spans it",
			stream: wireFrames(t, 8, 8, ckptFrame, 8, 8, closeFrame),
			want:   "push 16, credit 2, checkpoint, push 16, credit 2, close",
		},
		{
			rule:   "a partial frame in the buffer does not hold the credits before it",
			stream: half,
			chunks: []int{len(half) - 10, 10}, // the third frame arrives in two reads
			want:   "push 16, credit 2, push 8, credit 1 | client disconnected",
		},
		{
			rule:   "a frame larger than the read buffer is credited on its own",
			stream: wireFrames(t, 512, 512),
			want:   "push 512, credit 1, push 512, credit 1 | client disconnected",
		},
		{
			rule:   "the frames before a throttled one are credited before the withhold",
			stream: wireFrames(t, 8, 8, 8, 8),
			debts:  []time.Duration{0, time.Second},
			want:   "push 16, credit 1, wait, push 16, credit 3 | client disconnected",
		},
		{
			rule:   "small buffered frames merge into one push",
			stream: wireFrames(t, 8, 8, 8, 8, 8, 8, 8, 8),
			want:   "push 64, credit 8 | client disconnected",
		},
		{
			rule:   "a merge stops at the frame that reaches mergeBelow tuples",
			stream: wireFrames(t, 100, 100, 100, 100),
			want:   "push 300, push 100, credit 4 | client disconnected",
		},
		{
			rule:     "a frame that would take a push past MaxBatch starts the next one",
			stream:   wireFrames(t, 8, 8, 8, 8),
			maxBatch: 20,
			want:     "push 16, push 16, credit 4 | client disconnected",
		},
		{
			rule:   "good frames are pushed and credited before a bad frame's Error",
			stream: append(wireFrames(t, 8, 8), badSideBatch()...),
			want:   `push 16, credit 2 | bad batch: wire: invalid tuple side 7 in batch (Error "wire: invalid tuple side 7 in batch")`,
		},
		{
			rule:   "credits pending from an earlier merge are written before a bad frame's Error",
			stream: append(wireFrames(t, 300), badSideBatch()...),
			want:   `push 300, credit 1 | bad batch: wire: invalid tuple side 7 in batch (Error "wire: invalid tuple side 7 in batch")`,
		},
		{
			rule:   "an abort hands the withheld credits back to the gauge unwritten",
			stream: badCRC,
			want:   "push 16 | read: wire: checksum mismatch on batch frame: computed 69765a59, carried 69765aa6",
		},
	}
	for _, row := range rows {
		t.Run(row.rule, func(t *testing.T) {
			maxBatch := row.maxBatch
			if maxBatch == 0 {
				maxBatch = 8192
			}
			rig := newIngestRig(row.stream, row.chunks, maxBatch)
			rig.debts = row.debts
			err := rig.run()
			got := strings.Join(rig.events, ", ")
			if err != nil {
				got += " | " + err.Error()
				var se *sessionError
				if errors.As(err, &se) && se.msg != "" {
					got += fmt.Sprintf(" (Error %q)", se.msg)
				}
			}
			if got != row.want {
				t.Errorf("events:\n got %s\nwant %s", got, row.want)
			}
			if held := rig.held.Load(); held != 0 {
				t.Errorf("the gauge holds %d credits after the run", held)
			}
			var pushed []core.Input
			for _, p := range rig.pushes {
				pushed = append(pushed, p...)
			}
			if want := numbered(len(pushed), 0); !slices.Equal(pushed, want) {
				t.Errorf("the pushes are not the frames' tuples in order")
			}
		})
	}
}

// FuzzIngest drives the ingest over fuzzed frame sequences — Batch frames
// of 1 to 300 tuples, Checkpoint and Close frames between them, a
// MaxBatch, a throttle debt per frame — delivered in fuzzed read sizes, so
// FrameBuffered sees every split of the byte stream. Whatever the
// schedule: the pushes, concatenated, are the frames' tuples in order; no
// push exceeds MaxBatch or spans a control frame; the credits written
// equal the Batch frames accepted and all precede the next control frame;
// and the gauge returns to 0.
func FuzzIngest(f *testing.F) {
	f.Add([]byte{0, 8, 0, 8, 0, 8, 0xc0, 0, 0, 8, 0xc1, 0}, []byte{}, uint16(8192))
	f.Add([]byte{0, 100, 0, 100, 0x80, 100, 0, 100, 1, 44}, []byte{7, 200, 3}, uint16(150))
	f.Add([]byte{1, 0, 0, 1, 0, 1, 0, 1, 0xc0, 0, 0x80, 64, 0, 64}, []byte{130, 1, 255}, uint16(300))
	f.Fuzz(func(t *testing.T, script, chunkScript []byte, maxBatch uint16) {
		const maxFrames = 64
		limit := 1 + int(maxBatch)%600
		// Each byte pair is one frame: top bits 11 a control frame
		// (Checkpoint, or Close when the low byte is odd), 10 a Batch
		// frame that incurs a throttle debt, otherwise a Batch frame; the
		// remaining bits size a Batch frame at 1 to 300 tuples, capped at
		// MaxBatch.
		var sizes []int
		var debts []time.Duration
		var segments [][]core.Input // the tuples between control frames
		var before []int            // Batch frames accepted before each control frame
		next, accepted := 0, 0
		segments = append(segments, nil)
		for i := 0; i+1 < len(script) && len(sizes) < maxFrames; i += 2 {
			hi, lo := script[i], script[i+1]
			if hi>>6 == 3 {
				typ := wire.FrameCheckpoint
				if lo&1 == 1 {
					typ = wire.FrameClose
				}
				sizes = append(sizes, -int(typ))
				before = append(before, accepted)
				if typ == wire.FrameClose {
					break
				}
				segments = append(segments, nil)
				continue
			}
			n := min(1+(int(hi&0x3f)<<8|int(lo))%300, limit)
			var debt time.Duration
			if hi>>6 == 2 {
				debt = time.Millisecond
			}
			sizes = append(sizes, n)
			debts = append(debts, debt)
			segments[len(segments)-1] = append(segments[len(segments)-1], numbered(n, next)...)
			next += n
			accepted++
		}
		var chunks []int
		for _, c := range chunkScript {
			if c < 128 {
				chunks = append(chunks, int(c)+1)
			} else {
				chunks = append(chunks, int(c-127)*64)
			}
		}
		rig := newIngestRig(wireFrames(t, sizes...), chunks, limit)
		rig.debts = debts
		err := rig.run()
		if err != nil && err.Error() != "client disconnected" {
			t.Fatalf("run ended with %v", err)
		}

		// Walk the events: pushes fill the current segment in order, and
		// every control frame finds its segment complete and credited.
		seg, fill, credited, controls, waits := 0, 0, 0, 0, 0
		pushes := rig.pushes
		for _, ev := range rig.events {
			switch {
			case strings.HasPrefix(ev, "push "):
				p := pushes[0]
				pushes = pushes[1:]
				if len(p) > limit {
					t.Fatalf("a push of %d tuples exceeds MaxBatch %d", len(p), limit)
				}
				if fill+len(p) > len(segments[seg]) || !slices.Equal(p, segments[seg][fill:fill+len(p)]) {
					t.Fatalf("push of %d tuples at %d of segment %d is not the frames' next tuples (or spans a control frame)", len(p), fill, seg)
				}
				fill += len(p)
			case strings.HasPrefix(ev, "credit "):
				var n int
				fmt.Sscanf(ev, "credit %d", &n)
				credited += n
			case ev == "wait":
				waits++
			default: // a control frame
				if fill != len(segments[seg]) {
					t.Fatalf("%s after %d of the %d tuples before it", ev, fill, len(segments[seg]))
				}
				if credited != before[controls] {
					t.Fatalf("%s after %d credits, want all %d before it", ev, credited, before[controls])
				}
				controls++
				if ev != "close" {
					seg, fill = seg+1, 0
				}
			}
		}
		if seg != len(segments)-1 || fill != len(segments[seg]) {
			t.Fatalf("the pushes stopped in segment %d at %d tuples", seg, fill)
		}
		if credited != accepted {
			t.Fatalf("%d credits for %d Batch frames", credited, accepted)
		}
		throttled := 0
		for _, d := range debts {
			if d > 0 {
				throttled++
			}
		}
		if waits != throttled {
			t.Fatalf("%d withholds for %d throttled frames", waits, throttled)
		}
		if held := rig.held.Load(); held != 0 {
			t.Fatalf("the gauge holds %d credits after the run", held)
		}
	})
}

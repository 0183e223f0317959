package stream

import "fmt"

// SlidingWindow is a count-based (tuple-count) sliding window over one
// stream, the abstraction that turns an unbounded stream into a finite
// relation (Section III). It behaves exactly like the circular window
// buffers realized in BRAM on the hardware join cores: a fixed-capacity
// ring where inserting into a full window expires the oldest tuple.
//
// Alongside the tuple ring the window can maintain a structure-of-arrays
// column of the packed 64-bit bus words (Tuple.Word: key in the high
// half, value in the low half). Scan kernels sweep this flat column
// instead of loading whole Tuple structs — the cache-friendly dense-key-
// array layout the paper's GPU and FPGA joins owe their data parallelism
// to — and materialize full tuples from the ring only for actual matches.
// The column is built by the first WordSegments call and kept in sync on
// every mutation from then on; a window nobody sweeps (hash-indexed,
// bi-flow and hardware-model windows) never pays its 8 bytes per slot.
//
// The zero value is not usable; construct with NewSlidingWindow.
type SlidingWindow struct {
	buf   []Tuple  // fixed backing store of len == capacity
	words []uint64 // SoA column: words[i] == buf[i].Word(), same ring layout; nil until WordSegments
	head  int      // position of the oldest tuple
	count int
	total uint64 // inserts ever accepted (Reset zeroes it)
}

// NewSlidingWindow returns an empty window with the given capacity.
// It panics if capacity is not positive, matching the hardware where a
// zero-entry BRAM cannot be instantiated.
func NewSlidingWindow(capacity int) *SlidingWindow {
	if capacity <= 0 {
		panic(fmt.Sprintf("stream: window capacity must be positive, got %d", capacity))
	}
	return &SlidingWindow{buf: make([]Tuple, capacity)}
}

// Cap returns the window capacity.
func (w *SlidingWindow) Cap() int { return len(w.buf) }

// Len returns the number of tuples currently resident.
func (w *SlidingWindow) Len() int { return w.count }

// Total returns how many tuples the window has ever accepted. Together
// with Len it defines the resident insert-number range [Total-Len, Total),
// the generation check indexes use to recognize expired entries without
// tombstones. The n-th accepted tuple (counting from zero since the last
// Reset) always occupies ring slot n mod Cap — an invariant of the
// ring arithmetic that holds across expiries and RemoveOldest.
func (w *SlidingWindow) Total() uint64 { return w.total }

// Insert stores t, expiring the oldest resident tuple when full. It returns
// the expired tuple and whether an expiry happened.
func (w *SlidingWindow) Insert(t Tuple) (expired Tuple, ok bool) {
	w.total++
	if w.count < len(w.buf) {
		i := (w.head + w.count) % len(w.buf)
		w.buf[i] = t
		if w.words != nil {
			w.words[i] = t.Word()
		}
		w.count++
		return Tuple{}, false
	}
	expired = w.buf[w.head]
	w.buf[w.head] = t
	if w.words != nil {
		w.words[w.head] = t.Word()
	}
	w.head = (w.head + 1) % len(w.buf)
	return expired, true
}

// At returns the i-th tuple in arrival order (0 = oldest resident). It
// panics if i is out of range, mirroring a BRAM address violation.
func (w *SlidingWindow) At(i int) Tuple {
	if i < 0 || i >= w.count {
		panic(fmt.Sprintf("stream: window index %d out of range [0,%d)", i, w.count))
	}
	return w.buf[(w.head+i)%len(w.buf)]
}

// RemoveOldest removes and returns the oldest resident tuple. It reports
// false on an empty window. Bi-flow join cores use it to hand their oldest
// tuple to the neighbouring core (or to expiry) during the coordinated
// neighbour-to-neighbour transfer.
func (w *SlidingWindow) RemoveOldest() (Tuple, bool) {
	if w.count == 0 {
		return Tuple{}, false
	}
	t := w.buf[w.head]
	w.head = (w.head + 1) % len(w.buf)
	w.count--
	return t, true
}

// Scan calls fn for every resident tuple in arrival order (oldest first),
// the access pattern of the Processing Core's one-read-per-cycle window
// scan. Scanning stops early if fn returns false.
func (w *SlidingWindow) Scan(fn func(Tuple) bool) {
	for i := 0; i < w.count; i++ {
		if !fn(w.buf[(w.head+i)%len(w.buf)]) {
			return
		}
	}
}

// Segments returns the resident tuples as up to two contiguous views of
// the backing ring, in arrival order: older runs from the oldest tuple to
// the end of the ring, newer holds the wrapped-around tail (nil when the
// contents are contiguous). The views alias the window's storage — treat
// them as read-only, valid only until the next Insert, RemoveOldest, or
// Reset. Hot probe loops scan them directly, the software analogue of the
// Processing Core's straight BRAM sweep, without Scan's per-element
// closure call.
func (w *SlidingWindow) Segments() (older, newer []Tuple) {
	if w.head+w.count <= len(w.buf) {
		return w.buf[w.head : w.head+w.count], nil
	}
	return w.buf[w.head:], w.buf[:w.head+w.count-len(w.buf)]
}

// WordSegments mirrors Segments over the packed word column: the same
// older/newer split, element-aligned with the tuple views, so a kernel
// can sweep the dense words and materialize tuples only for hits. The
// views alias the window's storage under the same validity rules. The
// first call builds the column from the ring (one allocation); every
// later Insert keeps it current.
func (w *SlidingWindow) WordSegments() (older, newer []uint64) {
	if w.words == nil {
		w.words = make([]uint64, len(w.buf))
		for i, t := range w.buf {
			w.words[i] = t.Word()
		}
	}
	if w.head+w.count <= len(w.words) {
		return w.words[w.head : w.head+w.count], nil
	}
	return w.words[w.head:], w.words[:w.head+w.count-len(w.words)]
}

// Snapshot returns the resident tuples in arrival order as a fresh slice.
func (w *SlidingWindow) Snapshot() []Tuple {
	out := make([]Tuple, 0, w.count)
	w.Scan(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Reset empties the window without releasing its storage. Indexes built
// over the window (KeyIndex) must be Rebuilt afterwards: Reset restarts
// the insert-number generation.
func (w *SlidingWindow) Reset() {
	w.head = 0
	w.count = 0
	w.total = 0
}

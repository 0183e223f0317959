package stream

import "math/bits"

// KeyIndex is an incremental hash index over the Key field of a sliding
// window's resident tuples: key → ring slots, the structure a hash-probe
// kernel looks matches up in at O(matches) per probe instead of the
// scalar O(W) ring sweep. It is the software analogue of the hash tables
// GPU stream-join kernels build over their window partitions.
//
// Design: open addressing with linear probing over a power-of-two table
// of packed 8-byte slots, key<<32 | gen, so one probe step is one load
// from one cache line. gen is the entry's insert number re-based to the
// last rebuild: gen = n − base + 1, where base is the oldest resident at
// that rebuild, and the zero slot marks an unused entry. Expiry never
// touches the index — an entry is live iff its insert number still falls
// inside the window's resident generation range [Total-Len, Total), that
// is iff gen > (Total-Len) − base, which makes the index tombstone-free:
// stale entries need no marker, they age out by the generation check
// alone. The ring-slot invariant (insert n occupies ring slot n mod Cap)
// turns a live entry back into its tuple with one array load. Inserts
// reclaim stale entries they cross (safe under open addressing: the slot
// stays occupied, so other chains keep their terminator-free prefix), and
// the table is rebuilt from the ring — amortized O(1) per insert, zero
// allocations — whenever the occupied fraction reaches half, so probe
// chains stay short forever, and before a gen would reach 2^32−1, so a
// stale slot no insert reclaimed can never wrap around into the live
// range.
//
// The index is single-writer, like the window it covers. After
// SlidingWindow.Reset (which restarts the generation counter) call
// Rebuild before the next lookup.
type KeyIndex struct {
	w     *SlidingWindow
	shift uint     // 64 - log2(table size): Fibonacci-hash bucket select
	mask  uint64   // table size - 1
	slots []uint64 // key<<32 | gen; 0 marks an unused slot
	base  uint64   // insert number of gen 1: the oldest resident at the last rebuild
	used  int      // occupied (live or stale) slots
	limit int      // rebuild threshold on used
}

// maxGen bounds the gens NoteInsert hands out: the insert that would
// reach it rebuilds instead, re-basing every resident to a small gen.
const maxGen uint64 = 1<<32 - 1

// fibMul is 2^64 divided by the golden ratio: Fibonacci multiplicative
// hashing spreads the 32-bit keys over the table's high bits.
const fibMul = 0x9E3779B97F4A7C15

// NewKeyIndex builds an index over w and indexes any already-resident
// tuples. The table is sized to four slots per window slot (next power
// of two), so live entries alone never pass a quarter of it.
func NewKeyIndex(w *SlidingWindow) *KeyIndex {
	size := 8
	for size < 4*w.Cap() {
		size <<= 1
	}
	ix := &KeyIndex{
		w:     w,
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		mask:  uint64(size - 1),
		slots: make([]uint64, size),
		limit: size / 2,
	}
	ix.Rebuild()
	return ix
}

// bucket returns the table slot key's probe chain starts at.
func (ix *KeyIndex) bucket(key uint32) uint64 {
	return (uint64(key) * fibMul) >> ix.shift
}

// Touch loads the first slot of key's probe chain and returns it. A
// caller about to probe or insert a batch of keys touches them all first:
// the loads are independent, so their cache misses overlap instead of
// stalling one lookup at a time.
func (ix *KeyIndex) Touch(key uint32) uint64 {
	return ix.slots[ix.bucket(key)]
}

// NoteInsert indexes the tuple the window just accepted; call it
// immediately after every SlidingWindow.Insert on an indexed window. It
// performs no allocation: table growth is fixed at construction, and the
// periodic rebuild reuses the same array.
func (ix *KeyIndex) NoteInsert(key uint32) {
	gen := ix.w.total - ix.base // (total-1) − base + 1
	if ix.used >= ix.limit || gen >= maxGen {
		// Rebuild reindexes every resident — including the tuple this call
		// is noting, since the window insert has already happened.
		ix.Rebuild()
		return
	}
	stale := ix.w.total - uint64(ix.w.count) - ix.base
	i := ix.bucket(key)
	for {
		e := ix.slots[i]
		if e == 0 {
			ix.used++
			break
		}
		if uint64(uint32(e)) <= stale {
			break // stale entry: reclaim it in place
		}
		i = (i + 1) & ix.mask
	}
	ix.slots[i] = uint64(key)<<32 | gen
}

// AppendMatches appends every resident tuple whose key equals key to dst
// and returns the extended slice together with the number of table
// entries the probe chain examined — the work the kernel actually did,
// the currency a Comparisons() counter should report. Matches surface in
// probe-chain order, not window arrival order.
func (ix *KeyIndex) AppendMatches(key uint32, dst []Tuple) ([]Tuple, int) {
	stale := ix.w.total - uint64(ix.w.count) - ix.base
	first := ix.base - 1 // insert number of gen 0
	ring := uint64(len(ix.w.buf))
	examined := 0
	for i := ix.bucket(key); ; i = (i + 1) & ix.mask {
		e := ix.slots[i]
		if e == 0 {
			return dst, examined
		}
		examined++
		if uint32(e>>32) == key && uint64(uint32(e)) > stale {
			dst = append(dst, ix.w.buf[(first+uint64(uint32(e)))%ring])
		}
	}
}

// Rebuild reindexes the window from scratch, dropping every stale entry
// and re-basing the gens to the oldest resident. It runs automatically
// when the table's occupied fraction reaches half or the gens near 2^32;
// call it manually only after SlidingWindow.Reset.
func (ix *KeyIndex) Rebuild() {
	clear(ix.slots)
	w := ix.w
	ix.used = w.count
	ix.base = w.total - uint64(w.count)
	ring := uint64(len(w.buf))
	for j := uint64(0); j < uint64(w.count); j++ {
		key := w.buf[(ix.base+j)%ring].Key
		i := ix.bucket(key)
		for ix.slots[i] != 0 {
			i = (i + 1) & ix.mask
		}
		ix.slots[i] = uint64(key)<<32 | (j + 1)
	}
}

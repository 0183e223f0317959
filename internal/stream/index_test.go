package stream

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files from the current code")

// linearMatches is the oracle the index is checked against: a straight
// Segments() sweep collecting every resident tuple with the given key.
func linearMatches(w *SlidingWindow, key uint32) []Tuple {
	var out []Tuple
	older, newer := w.Segments()
	for _, t := range older {
		if t.Key == key {
			out = append(out, t)
		}
	}
	for _, t := range newer {
		if t.Key == key {
			out = append(out, t)
		}
	}
	return out
}

// sameTupleMultiset compares two match sets ignoring order: the hash
// kernel yields matches in probe-chain order, the scan in arrival order.
func sameTupleMultiset(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[Tuple]int, len(a))
	for _, t := range a {
		counts[t]++
	}
	for _, t := range b {
		if counts[t] == 0 {
			return false
		}
		counts[t]--
	}
	return true
}

// TestKeyIndexMatchesLinearScan is the window-expiry/index-consistency
// property test: a random sequence of Insert, RemoveOldest, and Reset
// operations on an indexed window, with the index's lookups checked
// against a linear Segments() scan after every step — for present keys,
// expired keys, and never-inserted keys alike.
func TestKeyIndexMatchesLinearScan(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 32, 257} {
		capacity := capacity
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + capacity)))
			w := NewSlidingWindow(capacity)
			ix := NewKeyIndex(w)
			const keyDomain = 16 // small domain: duplicates and expiries collide hard
			var seq uint64
			scratch := make([]Tuple, 0, capacity)
			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(10); {
				case op < 7: // insert dominates, like a live stream
					tu := Tuple{Key: uint32(rng.Intn(keyDomain)), Val: rng.Uint32(), Seq: seq}
					seq++
					w.Insert(tu)
					ix.NoteInsert(tu.Key)
				case op < 9:
					w.RemoveOldest()
				default:
					if rng.Intn(50) == 0 { // rare full reset
						w.Reset()
						ix.Rebuild()
					}
				}
				// Every key in the domain (hit or miss), plus one foreign key.
				for key := uint32(0); key <= keyDomain; key++ {
					got, _ := ix.AppendMatches(key, scratch[:0])
					want := linearMatches(w, key)
					if !sameTupleMultiset(got, want) {
						t.Fatalf("cap=%d step=%d key=%d: index found %v, linear scan %v",
							capacity, step, key, got, want)
					}
				}
			}
		})
	}
}

// placeAt empties w and moves its insert counter to total, as if total
// tuples had streamed through, and gives ix the generation base of a
// table last rebuilt gen inserts ago: the next insert gets gen+1.
func placeAt(w *SlidingWindow, ix *KeyIndex, total, gen uint64) {
	w.Reset()
	w.total = total
	w.head = int(total % uint64(len(w.buf)))
	ix.Rebuild()
	ix.base = total - gen
}

// checkIndex holds every lookup of keys 0..domain (one never inserted) to
// the linear scan.
func checkIndex(t *testing.T, w *SlidingWindow, ix *KeyIndex, domain uint32, step int) {
	t.Helper()
	for key := uint32(0); key <= domain; key++ {
		got, examined := ix.AppendMatches(key, nil)
		if want := linearMatches(w, key); !sameTupleMultiset(got, want) || examined < len(got) {
			t.Fatalf("step %d key %d (total %d, base %d): index found %v examining %d, linear scan %v",
				step, key, w.total, ix.base, got, examined, want)
		}
	}
}

// TestKeyIndexGenerationRebase starts the window's insert counter just
// below 2^32 on a table whose generation base is still 0, so the packed
// 32-bit gens run out within a few inserts, then crosses the boundary
// with inserts, removals and a reset. The insert that would hand out gen
// 2^32−1 must rebuild and re-base instead, and every lookup on the way
// must agree with the linear scan.
func TestKeyIndexGenerationRebase(t *testing.T) {
	for _, capacity := range []int{7, 33} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			w := NewSlidingWindow(capacity)
			ix := NewKeyIndex(w)
			const start = 1<<32 - 12
			placeAt(w, ix, start, start)
			const keyDomain = 5
			forced := 0
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(10); {
				case op < 7:
					key := uint32(rng.Intn(keyDomain))
					w.Insert(Tuple{Key: key, Val: uint32(step), Seq: w.total})
					due := w.total-ix.base >= maxGen
					ix.NoteInsert(key)
					if due {
						forced++
						if ix.base != w.total-uint64(w.count) {
							t.Fatalf("step %d: gen %d was due a rebuild, base stayed %d", step, maxGen, ix.base)
						}
					}
				case op < 9:
					w.RemoveOldest()
				default:
					if forced > 0 && rng.Intn(10) == 0 {
						w.Reset()
						ix.Rebuild()
					}
				}
				checkIndex(t, w, ix, keyDomain, step)
			}
			if forced == 0 {
				t.Fatal("the gens never reached 2^32-1: no forced rebuild was exercised")
			}
		})
	}
}

// FuzzKeyIndex drives an indexed window from a fuzzed starting insert
// count and generation — near 2^32 included — through fuzzed inserts,
// removals and resets, checking every lookup against the linear scan.
// Each op byte: top two bits 0 or 1 insert key op&15, 2 removes the
// oldest, 3 resets when the low bits are all set and only looks up
// otherwise.
func FuzzKeyIndex(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint32(0), uint8(4))
	f.Add([]byte{1, 2, 3, 1, 0x81, 2, 2, 0xff, 3, 3}, uint64(1<<32-3), uint32(1<<32-3), uint8(3))
	f.Add(bytes.Repeat([]byte{4, 0x45, 9, 0x80, 4, 12, 0xc0}, 40), uint64(9<<32+5), uint32(1<<32-40), uint8(33))
	f.Fuzz(func(t *testing.T, ops []byte, total uint64, gen uint32, capSel uint8) {
		w := NewSlidingWindow(1 + int(capSel)%64)
		ix := NewKeyIndex(w)
		total %= 1 << 62 // far from wrapping the 64-bit insert counter
		placeAt(w, ix, total, min(uint64(gen), total))
		for step, op := range ops[:min(len(ops), 512)] {
			switch op >> 6 {
			case 0, 1:
				w.Insert(Tuple{Key: uint32(op & 15), Val: uint32(step), Seq: w.total})
				ix.NoteInsert(uint32(op & 15))
			case 2:
				w.RemoveOldest()
			default:
				if op&63 == 63 {
					w.Reset()
					ix.Rebuild()
				}
			}
			checkIndex(t, w, ix, 16, step)
		}
	})
}

// TestKeyIndexMatchesGolden pins the probe chains themselves, not just
// the match sets: over a seeded Insert/RemoveOldest/Reset sequence that
// crosses several half-full rebuilds, every lookup's matches in chain
// order and its examined count must equal the golden file. A change to
// the table's layout that keeps the slot a key hashes to, the reclaim
// rule and the rebuild points passes unchanged; anything else moves the
// order or the work counts Comparisons() reports.
func TestKeyIndexMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	w := NewSlidingWindow(61)
	ix := NewKeyIndex(w)
	var b strings.Builder
	var seq uint64
	var scratch []Tuple
	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(20); {
		case op < 15:
			// Half the keys collide in a small domain the probes ask for;
			// half spread out, so the table fills to its rebuild point.
			key := uint32(rng.Intn(32))
			if rng.Intn(2) == 0 {
				key = 32 + uint32(rng.Intn(1<<12))
			}
			w.Insert(Tuple{Key: key, Seq: seq})
			ix.NoteInsert(key)
			seq++
		case op < 19:
			w.RemoveOldest()
		default:
			if rng.Intn(8) == 0 {
				w.Reset()
				ix.Rebuild()
			}
		}
		key := uint32(rng.Intn(33))
		got, examined := ix.AppendMatches(key, scratch[:0])
		fmt.Fprintf(&b, "%d %d %d", step, key, examined)
		for _, m := range got {
			fmt.Fprintf(&b, " %d", m.Seq)
		}
		b.WriteByte('\n')
		scratch = got
	}
	path := filepath.Join("testdata", "keyindex_matches.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d: got %q, golden %q", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
}

// TestKeyIndexExaminedCounts: probe work is O(chain), and a miss on an
// empty index examines nothing.
func TestKeyIndexExaminedCounts(t *testing.T) {
	w := NewSlidingWindow(64)
	ix := NewKeyIndex(w)
	if _, examined := ix.AppendMatches(7, nil); examined != 0 {
		t.Fatalf("empty index examined %d entries, want 0", examined)
	}
	for i := 0; i < 64; i++ {
		w.Insert(Tuple{Key: 7, Val: uint32(i)})
		ix.NoteInsert(7)
	}
	matches, examined := ix.AppendMatches(7, nil)
	if len(matches) != 64 {
		t.Fatalf("got %d matches, want 64", len(matches))
	}
	if examined < 64 {
		t.Fatalf("examined %d < 64 matches", examined)
	}
}

// TestKeyIndexAllocFree: steady-state maintenance and lookups perform no
// heap allocation once the match scratch has reached capacity.
func TestKeyIndexAllocFree(t *testing.T) {
	const capacity = 1 << 10
	w := NewSlidingWindow(capacity)
	ix := NewKeyIndex(w)
	var k uint32
	scratch := make([]Tuple, 0, 64)
	allocs := testing.AllocsPerRun(5000, func() {
		w.Insert(Tuple{Key: k % 128, Val: k})
		ix.NoteInsert(k % 128)
		scratch, _ = ix.AppendMatches((k+1)%128, scratch[:0])
		k++
	})
	if allocs != 0 {
		t.Fatalf("insert+lookup steady state: %v allocs/op, want 0", allocs)
	}
}

// TestWordColumnTracksRing: WordSegments stays element-aligned with
// Segments across inserts, expiries, and removals, whether the lazily
// built column starts on an empty window or on one that has wrapped.
func TestWordColumnTracksRing(t *testing.T) {
	for _, row := range []struct {
		name    string
		prefill int // inserts before the first WordSegments call builds the column
	}{
		{"built empty", 0},
		{"built after wrapping", 2*37 + 5},
	} {
		t.Run(row.name, func(t *testing.T) { checkWordColumn(t, row.prefill) })
	}
}

func checkWordColumn(t *testing.T, prefill int) {
	rng := rand.New(rand.NewSource(9))
	w := NewSlidingWindow(37)
	for i := 0; i < prefill; i++ {
		w.Insert(Tuple{Key: rng.Uint32(), Val: rng.Uint32()})
	}
	for step := 0; step < 2000; step++ {
		if rng.Intn(4) == 0 {
			w.RemoveOldest()
		} else {
			w.Insert(Tuple{Key: rng.Uint32(), Val: rng.Uint32()})
		}
		tSeg := make([]Tuple, 0, w.Len())
		older, newer := w.Segments()
		tSeg = append(append(tSeg, older...), newer...)
		wSeg := make([]uint64, 0, w.Len())
		olderW, newerW := w.WordSegments()
		wSeg = append(append(wSeg, olderW...), newerW...)
		if len(tSeg) != len(wSeg) {
			t.Fatalf("step %d: %d tuples vs %d words", step, len(tSeg), len(wSeg))
		}
		for i := range tSeg {
			if tSeg[i].Word() != wSeg[i] {
				t.Fatalf("step %d pos %d: word column %x, tuple word %x", step, i, wSeg[i], tSeg[i].Word())
			}
		}
	}
}

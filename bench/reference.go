package main

import (
	"fmt"

	"accelstream"
)

// refJoin is the harness's own sliding-window equi-join on key, used to
// check what the service returned. It is a direct-address hash join: the
// workloads' keys fall into three narrow ranges (plain, marker, top-bit),
// which keyID folds into one dense index, so counting the matches of a
// tuple costs two array reads. That keeps the after-run check of tens of
// millions of tuples well under a second. With pairs set it also lists
// every (R seq, S seq) pairing, for the exact multiset check of the
// verify prefix. It is unit-tested against core.Oracle.
type refJoin struct {
	window int
	stride uint32
	sides  [2]refSide
	// pairs, when non-nil, receives the PairID of every result.
	pairs *[]uint64
}

type refSide struct {
	n     uint64   // tuples seen: the next arrival sequence number
	ring  []uint32 // key ids of the resident tuples, slot seq % window
	count []int32  // resident tuples per key id
	seqs  [][]uint64
}

// newRefJoin builds a reference join for a per-stream window. stride
// bounds the low 30 bits of every key (plain keys < stride, markers <
// markerBase+stride).
func newRefJoin(window int, stride uint32, pairs *[]uint64) *refJoin {
	r := &refJoin{window: window, stride: stride, pairs: pairs}
	for i := range r.sides {
		r.sides[i].ring = make([]uint32, window)
		r.sides[i].count = make([]int32, 4*stride)
		if pairs != nil {
			r.sides[i].seqs = make([][]uint64, 4*stride)
		}
	}
	return r
}

func (r *refJoin) keyID(key uint32) (uint32, error) {
	low := key & 0x3FFFFFFF
	if low >= r.stride {
		return 0, fmt.Errorf("reference join: key %#x outside the dense range (stride %d)", key, r.stride)
	}
	return (key>>30)*r.stride + low, nil
}

// push processes one arrival exactly as core.Oracle does — probe the
// other stream's window, then store, expiring the oldest when full — and
// returns how many results the arrival produces.
func (r *refJoin) push(in accelstream.Input) (int, error) {
	id, err := r.keyID(in.Tuple.Key)
	if err != nil {
		return 0, err
	}
	own, other := &r.sides[0], &r.sides[1]
	if in.Side == accelstream.SideS {
		own, other = other, own
	}
	seq := own.n
	matches := int(other.count[id])
	if r.pairs != nil {
		for _, o := range other.seqs[id] {
			rs, ss := seq, o
			if in.Side == accelstream.SideS {
				rs, ss = o, seq
			}
			*r.pairs = append(*r.pairs, accelstream.Result{
				R: accelstream.Tuple{Seq: rs}, S: accelstream.Tuple{Seq: ss},
			}.PairID())
		}
	}
	slot := seq % uint64(r.window)
	if seq >= uint64(r.window) {
		old := own.ring[slot]
		own.count[old]--
		if r.pairs != nil {
			// Arrival order is per-key order too: the expiring tuple is
			// the oldest resident of its key.
			own.seqs[old] = own.seqs[old][1:]
		}
	}
	own.ring[slot] = id
	own.count[id]++
	if r.pairs != nil {
		own.seqs[id] = append(own.seqs[id], seq)
	}
	own.n++
	return matches, nil
}

// pushAll feeds a batch and returns the results it produces.
func (r *refJoin) pushAll(batch []accelstream.Input) (uint64, error) {
	var total uint64
	for i := range batch {
		n, err := r.push(batch[i])
		if err != nil {
			return 0, err
		}
		total += uint64(n)
	}
	return total, nil
}

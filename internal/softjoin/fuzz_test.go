package softjoin

import (
	"bytes"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// edgeValues are the 32-bit operands where the scan lanes' borrow and
// overflow corners sit; nearEdge maps a selector onto one of them or a
// neighbour (wrapping around 0 and 2^32−1).
var edgeValues = []uint32{0, 1, 1<<31 - 1, 1 << 31, 1<<32 - 1}

func nearEdge(sel byte) uint32 {
	return edgeValues[int(sel)%len(edgeValues)] + uint32(int(sel)/len(edgeValues)%3) - 1
}

// FuzzKernelsAgainstOracle is the engine-level differential fuzz across
// probe kernels: a trace of up to 600 tuples (two bytes each: side and key,
// value), keys and values on and around the edge values, replayed through
// a UniFlow of 1–4 cores with a window of 1–300 in relaxed or ordered
// mode. Under the equi-join on key the hash and the scan engine must each
// yield the single-process oracle's result multiset, so each other's too;
// under every other comparator and field pairing the scan engine must.
func FuzzKernelsAgainstOracle(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 10, 4, 11, 4}, uint16(3), byte(1), byte(0), false)
	f.Add(bytes.Repeat([]byte{2, 7, 5, 0, 14, 9, 3, 3, 8, 12}, 40), uint16(63), byte(3), byte(2), true)
	f.Add(bytes.Repeat([]byte{1, 4, 6, 11, 0, 13}, 200), uint16(259), byte(2), byte(19), false)
	f.Fuzz(func(t *testing.T, trace []byte, window uint16, cores, condSel byte, ordered bool) {
		w, n := int(window)%300+1, int(cores)%4+1
		inputs := make([]core.Input, min(len(trace)/2, 600))
		for i := range inputs {
			side := stream.SideR
			if trace[2*i]&1 == 1 {
				side = stream.SideS
			}
			inputs[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: nearEdge(trace[2*i] >> 1), Val: nearEdge(trace[2*i+1])}}
		}
		fields := []stream.Field{stream.FieldKey, stream.FieldVal}
		cmps := []stream.Comparator{stream.CmpEQ, stream.CmpNE, stream.CmpLT, stream.CmpLE, stream.CmpGT, stream.CmpGE}
		cond := stream.JoinCondition{LHS: fields[condSel/6%2], RHS: fields[condSel/12%2], Cmp: cmps[condSel%6]}
		kernels := []stream.ProbeKernel{stream.KernelScan}
		if cond == stream.EquiJoinOnKey() {
			kernels = append(kernels, stream.KernelHash)
		}
		// Each core rounds its sub-window up, so the engine joins over
		// n·⌈w/n⌉ tuples per side.
		oracle, err := core.NewOracle(n*((w+n-1)/n), cond)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, kernel := range kernels {
			cfg := Config{NumCores: n, WindowSize: w, Condition: cond, OrderedResults: ordered, ProbeKernel: kernel}
			got := runEngine(t, cfg, inputs, viaBatches)
			if diff := core.NewResultSet(want).Diff(core.NewResultSet(got)); len(diff) > 0 {
				t.Fatalf("%v kernel, %v, cores=%d window=%d ordered=%v, %d tuples: %d discrepancies against the oracle, first: %s",
					kernel, cond, n, w, ordered, len(inputs), len(diff), diff[0])
			}
		}
	})
}

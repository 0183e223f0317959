//go:build !amd64

package stream

// hasAVX2 is false off amd64: Next runs the portable Go lanes.
const hasAVX2 = false

func nextAVX2(Sweep, []uint64, int) (int, uint64) {
	panic("stream: AVX2 sweep called on a non-amd64 build")
}

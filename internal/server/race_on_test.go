//go:build race

package server

// raceEnabled reports that the race detector is on. Under it sync.Pool
// deliberately drops a quarter of the items put back, so a pooled path
// cannot be held to zero allocations.
const raceEnabled = true

//go:build race

package experiments

// raceEnabled reports that the race detector is on. The cycle simulator
// behind the hardware figures runs on one goroutine, so the detector only
// slows it down; the slowest of those tests skip under it and run in
// plain `go test`.
const raceEnabled = true

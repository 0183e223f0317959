package server

import (
	"time"

	"accelstream/internal/stream"
)

const maxResultsPerFrame = 1024

// frameBatches pools the frame-sized result batches this package fills
// itself: a client's decoded Results frames and the coalesced batches of
// the fallback result source.
var frameBatches stream.ResultBatchPool

// resultSource returns the pull function pumpResults drains (the
// ResultBatcher contract: block only when asked to wait): the engine's own
// batch output when it offers the capability, otherwise a coalescing
// reader over its Results channel that packs whatever is immediately
// ready (up to one frame's worth) into a pooled batch. Either way the
// session is the output's only consumer.
func (s *session) resultSource() func(wait bool) (*stream.ResultBatch, bool) {
	if rb, ok := s.eng.(ResultBatcher); ok {
		return rb.NextResultBatch
	}
	results := s.eng.Results()
	return func(wait bool) (*stream.ResultBatch, bool) {
		var b *stream.ResultBatch
		for b == nil || len(b.Results) < maxResultsPerFrame {
			var r stream.Result
			var ok bool
			if wait && b == nil {
				r, ok = <-results
			} else {
				select {
				case r, ok = <-results:
				default:
					return b, true
				}
			}
			if !ok {
				return b, b != nil // a filled batch first; the next pull reports the close
			}
			if b == nil {
				b = frameBatches.Get()
			}
			b.Results = append(b.Results, r)
		}
		return b, true
	}
}

// coalesceBelow is the batch size under which a result batch shares a
// frame with its neighbours instead of being framed alone: copying a few
// hundred results into an open frame costs less than the write(2) and the
// peer wake-up a frame of its own would, while a batch that fills half a
// frame or more is encoded straight from its own storage. Many cores,
// small input batches or low selectivity produce batches on the small
// side; result-heavy input on the large side.
const coalesceBelow = maxResultsPerFrame / 2

// pumpResults is the session's result writer: it pulls result batches
// from the engine and writes them as Results frames of at most
// maxResultsPerFrame results — large batches straight from their own
// storage, small ones packed together for as long as more are ready. On
// a write failure it keeps draining (discarding) so engine Close can
// complete.
func (s *session) pumpResults() {
	next := s.resultSource()
	writeOK := true
	write := func(frame []stream.Result) {
		if writeOK {
			s.wmu.Lock()
			start := time.Now()
			err := s.w.WriteResults(frame)
			s.srv.resultWriteSeconds.Observe(time.Since(start))
			s.wmu.Unlock()
			if err != nil {
				s.srv.logf("session %d: writing results: %v", s.id, err)
				writeOK = false
			}
		}
		// Counted after the write: the checkpoint durability barrier
		// (flushResults) reads resultsOut as "handed to the connection".
		// Still counted when the write failed or was skipped, so the
		// barrier terminates on a dead connection.
		s.resultsOut.Add(uint64(len(frame)))
		s.resultFrames.Add(1)
	}
	// open is the frame being packed from small batches; it goes out when
	// full, or as soon as the engine has nothing more ready.
	var open *stream.ResultBatch
	flush := func() {
		write(open.Results)
		open.Release()
		open = nil
	}
	for {
		b, ok := next(open == nil)
		if b == nil {
			if open != nil {
				flush()
			}
			if !ok {
				return
			}
			continue
		}
		for rest := b.Results; len(rest) > 0; {
			if open == nil && len(rest) >= coalesceBelow {
				n := min(len(rest), maxResultsPerFrame)
				write(rest[:n])
				rest = rest[n:]
				continue
			}
			if open == nil {
				open = frameBatches.Get()
			}
			n := min(len(rest), maxResultsPerFrame-len(open.Results))
			open.Results = append(open.Results, rest[:n]...)
			rest = rest[n:]
			if len(open.Results) == maxResultsPerFrame {
				flush()
			}
		}
		b.Release()
	}
}

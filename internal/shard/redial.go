package shard

import (
	"errors"
	"fmt"
	"time"

	"accelstream/internal/server"
)

// redial re-opens the shard session with the given arrival offsets,
// backing off between attempts, and returns it; exhausting the policy
// marks the shard permanently down and returns nil.
func (sc *shardConn) redial(baseR, baseS uint64) *session {
	pol := sc.r.cfg.Redial
	if pol.Attempts < 0 {
		sc.markDown()
		return nil
	}
	delay := pol.BaseDelay
	for attempt := 1; attempt <= pol.Attempts; attempt++ {
		c, err := sc.r.dial(sc.addr, sc.modulus, sc.index, baseR, baseS)
		if err == nil {
			sc.redials.Add(1)
			sc.r.logf("shard %d (%s): reconnected on attempt %d, resuming at R=%d S=%d",
				sc.index, sc.addr, attempt, baseR, baseS)
			return sc.r.attach(sc, c)
		}
		sc.r.logf("shard %d (%s): redial attempt %d/%d failed: %v",
			sc.index, sc.addr, attempt, pol.Attempts, err)
		if errors.Is(err, server.ErrUnauthorized) {
			// The shard rejected our credentials; backing off and retrying
			// with the same token cannot succeed.
			break
		}
		var hint time.Duration
		var adm *server.AdmissionError
		if errors.As(err, &adm) {
			hint = adm.RetryAfter
		}
		if attempt < pol.Attempts {
			sleep, next := nextRedialDelay(delay, hint, pol.MaxDelay)
			time.Sleep(sleep)
			delay = next
		}
	}
	sc.markDown()
	return nil
}

// nextRedialDelay computes one backoff step: how long to sleep before the
// next attempt, and the policy delay the schedule resumes from afterwards.
// An admission retry-after hint stretches only this sleep (redialing
// sooner is guaranteed to be rejected again) — it must not become the base
// the exponential doubling compounds from, or one hint inflates every
// later attempt far past both the policy and the hint.
func nextRedialDelay(delay, hint, maxDelay time.Duration) (sleep, next time.Duration) {
	sleep = delay
	if hint > sleep {
		sleep = hint
	}
	next = delay * 2
	if next > maxDelay {
		next = maxDelay
	}
	return sleep, next
}

// markDown records permanent shard loss. Under FailFast the router
// refuses further batches; otherwise it degrades to the survivors.
func (sc *shardConn) markDown() {
	sc.down.Store(true)
	sc.r.logf("shard %d (%s): permanently down; its window slice is lost", sc.index, sc.addr)
	if sc.r.cfg.FailFast {
		sc.r.mu.Lock()
		if sc.r.failErr == nil {
			sc.r.failErr = fmt.Errorf("shard: shard %d (%s) permanently down", sc.index, sc.addr)
		}
		sc.r.mu.Unlock()
	}
}

// Package leakcheck fails a test whose goroutines outlive it. Every
// client connection owns a reader and a writer goroutine, and every
// server session a read loop and a result pump, so a test that forgets to
// close a router, a client or a server leaves goroutines behind; this
// names them.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Check records the goroutine count and registers a cleanup that runs
// once every cleanup registered after it has: it waits at most a second
// for the count to fall back, and otherwise fails t with the stacks still
// running. Call it before the test starts anything. It counts the whole
// process, so tests that use it must not run in parallel.
func Check(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines outlive the test, %d ran at its start:\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

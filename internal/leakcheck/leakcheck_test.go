package leakcheck

import (
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps its cleanups and errors.
type recorder struct {
	testing.TB
	cleanups []func()
	errors   []string
}

func (r *recorder) Helper()                   {}
func (r *recorder) Cleanup(f func())          { r.cleanups = append(r.cleanups, f) }
func (r *recorder) Errorf(f string, a ...any) { r.errors = append(r.errors, f) }

func (r *recorder) cleanup() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

func TestCheckPassesWhenGoroutinesEnd(t *testing.T) {
	r := &recorder{TB: t}
	Check(r)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { <-stop; close(done) }()
	r.Cleanup(func() { close(stop); <-done })
	r.cleanup()
	if len(r.errors) != 0 {
		t.Errorf("a goroutine stopped by a later cleanup was reported: %v", r.errors)
	}
}

func TestCheckFailsOnLeak(t *testing.T) {
	r := &recorder{TB: t}
	Check(r)
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }()
	r.cleanup()
	if len(r.errors) != 1 || !strings.Contains(r.errors[0], "outlive") {
		t.Errorf("a goroutine left running was not reported: %v", r.errors)
	}
}

package shard

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/server"
	"accelstream/internal/stream"
)

// BenchmarkRouterSendBatch drives a router over two in-process servers
// with 64-tuple batches whose keys never repeat within a batch, R on the
// even positions and S on the odd, so no pair matches and no result flows
// back: the broadcast send path (SendBatch, the per-shard senders and the
// shard sessions' credit windows) is what runs. ns/batch is wall time per
// batch up to the router's drained Close. allocs/batch counts every
// allocation in the process over the same span, the servers' included.
func BenchmarkRouterSendBatch(b *testing.B) {
	addrs := make([]string, 2)
	for i := range addrs {
		srv, err := server.New(server.Config{})
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Shutdown(context.Background())
		addrs[i] = ln.Addr().String()
	}
	r, err := Dial(Config{Addrs: addrs, Window: 1024})
	if err != nil {
		b.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for rb := range r.Batches() {
			rb.Release()
		}
	}()
	batch := make([]core.Input, 64)
	for i := range batch {
		side := stream.SideR
		if i%2 == 1 {
			side = stream.SideS
		}
		batch[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: uint32(i), Val: uint32(i)}}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := r.SendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := r.Close(); err != nil {
		b.Fatal(err)
	}
	<-drained
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/batch")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/batch")
}

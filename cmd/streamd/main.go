// Command streamd is the network-attached stream-join daemon: it serves
// the repository's join engines (software SplitJoin / handshake join, or
// the cycle-level simulated uni-flow design for small windows) over TCP
// using the internal/wire protocol. Each client session configures and
// owns one engine; flow control is credit-based so engine backpressure
// reaches the producers.
//
// Usage:
//
//	streamd -addr :7800
//	streamd -addr :7800 -credits 16 -maxbatch 8192 -idle 2m -quiet
//	streamd -addr :7800 -metrics :7801        # Prometheus text format on /metrics
//	streamd -addr :7800 -metrics :7801 -pprof # plus net/http/pprof under /debug/pprof/
//	streamd -addr :7800 -tls-cert cert.pem -tls-key key.pem -auth-token s3cret
//
// With -tls-cert/-tls-key the daemon serves sessions over TLS; with
// -auth-token every session's Open frame must carry the same token
// (checked in constant time). Rejections — plaintext clients against the
// TLS listener, bad or missing tokens — fail fast and are counted under
// sessions_rejected_total on /metrics. See README.md, "Securing the
// service".
//
// With -checkpoint-dir the daemon is durable: window snapshots are cut at
// punctuation boundaries every -checkpoint-interval (plus one final
// snapshot as each session drains — a SIGTERM persists the window before
// exit), and on restart the newest valid snapshot is restored into the
// first matching session so clients replay only the post-snapshot suffix.
// See README.md, "Durability & cold restart".
//
// Stop with SIGINT/SIGTERM; the daemon drains active sessions for up to
// -drain before force-closing them. The flags and the serve sequence are
// internal/daemon's, shared with cmd/streamshard.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"accelstream/internal/daemon"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamd:", err)
		os.Exit(1)
	}
}

// run serves the join engines until ctx is done.
func run(ctx context.Context, args []string) error {
	d := daemon.New("streamd")
	if ok, err := d.Parse(args); !ok {
		return err
	}
	return d.Run(ctx, daemon.Hooks{})
}

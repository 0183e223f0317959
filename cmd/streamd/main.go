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
// -drain before force-closing them.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"accelstream"
)

// registerPprof mounts the net/http/pprof handlers on a mux, mirroring
// what importing the package does to http.DefaultServeMux. The metrics
// listeners use their own mux, so the handlers are mounted explicitly —
// and only when -pprof asks for them.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "streamd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("streamd", flag.ExitOnError)
	addr := fs.String("addr", ":7800", "listen address")
	credits := fs.Int("credits", 8, "per-session batch-credit window")
	maxBatch := fs.Int("maxbatch", 8192, "maximum tuples per batch frame")
	idle := fs.Duration("idle", 2*time.Minute, "idle session timeout (negative disables)")
	drain := fs.Duration("drain", 30*time.Second, "graceful drain budget on shutdown")
	maxSessions := fs.Int("max-sessions", 0, "concurrent session cap (0: unlimited)")
	quotaConfig := fs.String("quota-config", "", "multi-tenant admission quotas from this JSON file (see README, \"Multi-tenant operation\")")
	maxWindowMem := fs.Int64("max-window-mem", 0, "server-wide aggregate window-memory budget in bytes (0: unlimited; overrides the -quota-config server entry)")
	rateLimit := fs.Float64("rate-limit", 0, "server-wide sustained ingest cap in tuples/sec, enforced by credit shaping (0: unlimited; overrides the -quota-config server entry)")
	metricsAddr := fs.String("metrics", "", "serve Prometheus-format metrics on this address at /metrics (empty disables)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -metrics listener")
	tlsCert := fs.String("tls-cert", "", "serve sessions over TLS with this PEM certificate (requires -tls-key)")
	tlsKey := fs.String("tls-key", "", "PEM private key matching -tls-cert")
	authToken := fs.String("auth-token", "", "require this session auth token in every Open frame")
	probeKernel := fs.String("probe-kernel", "auto", "default probe kernel for soft-uni sessions: auto, hash, or scan (sessions naming a kernel keep their choice)")
	ckptDir := fs.String("checkpoint-dir", "", "durable window snapshots in this directory (restored on restart; empty disables)")
	ckptInterval := fs.Duration("checkpoint-interval", 0, "automatic snapshot cadence (0: default 5s; negative: only final snapshots)")
	quiet := fs.Bool("quiet", false, "suppress per-session log lines")
	version := fs.Bool("version", false, "print version and exit")
	fs.Parse(args)

	if *version {
		fmt.Println(accelstream.Version("streamd"))
		return nil
	}
	if *pprofOn && *metricsAddr == "" {
		return fmt.Errorf("-pprof requires -metrics (pprof is served on the metrics listener)")
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		return fmt.Errorf("-tls-cert and -tls-key must be given together")
	}

	kernel, err := accelstream.ParseProbeKernel(*probeKernel)
	if err != nil {
		return err
	}

	logger := log.New(os.Stderr, "streamd: ", log.LstdFlags)
	cfg := accelstream.ServerConfig{
		InitialCredits: *credits,
		MaxBatch:       *maxBatch,
		IdleTimeout:    *idle,
		MaxSessions:    *maxSessions,
		ProbeKernel:    kernel,
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	if *tlsCert != "" {
		if cfg.TLS, err = accelstream.LoadServerTLS(*tlsCert, *tlsKey); err != nil {
			return err
		}
	}
	cfg.AuthToken = *authToken
	if *authToken != "" && *tlsCert == "" {
		logger.Printf("warning: -auth-token without TLS sends the token in the clear")
	}
	if *ckptDir != "" {
		cfg.CheckpointDir, cfg.CheckpointInterval = *ckptDir, *ckptInterval
		logger.Printf("checkpoints in %s", *ckptDir)
	} else if *ckptInterval != 0 {
		return fmt.Errorf("-checkpoint-interval requires -checkpoint-dir")
	}
	var quotas accelstream.QuotaConfig
	if *quotaConfig != "" {
		quotas, err = accelstream.LoadQuotaConfig(*quotaConfig)
		if err != nil {
			return err
		}
	}
	// The shorthand flags bound the whole server; per-tenant limits need
	// the JSON config.
	if *maxWindowMem > 0 {
		quotas.Server.MaxWindowBytes = *maxWindowMem
	}
	if *rateLimit > 0 {
		quotas.Server.RatePerSec = *rateLimit
	}
	if quotas.Enabled() {
		cfg.Quotas = quotas
		logger.Printf("admission quotas enabled (%d tenant overrides)", len(quotas.Tenants))
	}
	srv, err := accelstream.Serve(*addr, cfg)
	if err != nil {
		return err
	}
	mode := "plaintext"
	if *tlsCert != "" {
		mode = "TLS"
	}
	logger.Printf("listening on %s (%s, auth %v)", srv.Addr(), mode, *authToken != "")

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		if *pprofOn {
			registerPprof(mux)
			logger.Printf("pprof on http://%s/debug/pprof/", mln.Addr())
		}
		msrv := &http.Server{Handler: mux}
		defer msrv.Close()
		go msrv.Serve(mln)
		logger.Printf("metrics on http://%s/metrics", mln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	logger.Printf("received %v, draining sessions (budget %v)", got, *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain budget exhausted; sessions aborted: %v", err)
	}
	for _, m := range srv.Metrics() {
		logger.Printf("session %d (%v): %d tuples in / %d batches, %d results out, avg batch latency %v",
			m.ID, m.Engine, m.TuplesIn, m.BatchesIn, m.ResultsOut, m.AvgBatchLatency)
	}
	logger.Printf("bye")
	return nil
}

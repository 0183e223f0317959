// Package daemon is the operator skeleton cmd/streamd and cmd/streamshard
// share: the flags that configure the join service, the refusals of
// inconsistent combinations, the accelstream.ServerConfig those flags
// build, and the serve, wait and drain sequence around the listener. A
// daemon registers its own flags on the same FlagSet and hooks its extras
// (an engine factory, admin routes, a background loop) into Run.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"accelstream"
)

// Daemon is one daemon process's shared flags and the server
// configuration Parse builds from them.
type Daemon struct {
	// Config is what Parse builds. A daemon fills in what the shared flags
	// do not set, such as NewEngine, before Run.
	Config accelstream.ServerConfig
	// Logger writes the daemon's log lines to stderr, prefixed with its
	// name.
	Logger *log.Logger

	fs *flag.FlagSet

	addr, metricsAddr, quotaConfig, probeKernel string
	tlsCert, tlsKey, authToken, ckptDir         string
	credits, maxBatch, maxSessions              int
	idle, drain, ckptInterval                   time.Duration
	maxWindowMem                                int64
	rateLimit                                   float64
	pprof, quiet, version                       bool
}

// New registers the shared flags on a fresh FlagSet named after the
// daemon. The daemon adds its own flags through Flags before Parse.
func New(name string) *Daemon {
	d := &Daemon{
		Logger: log.New(os.Stderr, name+": ", log.LstdFlags),
		fs:     flag.NewFlagSet(name, flag.ExitOnError),
	}
	fs := d.fs
	fs.StringVar(&d.addr, "addr", ":7800", "listen address")
	fs.IntVar(&d.credits, "credits", 8, "per-session batch-credit window")
	fs.IntVar(&d.maxBatch, "maxbatch", 8192, "maximum tuples per batch frame")
	fs.DurationVar(&d.idle, "idle", 2*time.Minute, "idle session timeout (negative disables)")
	fs.DurationVar(&d.drain, "drain", 30*time.Second, "graceful drain budget on shutdown")
	fs.IntVar(&d.maxSessions, "max-sessions", 0, "concurrent session cap (0: unlimited)")
	fs.StringVar(&d.quotaConfig, "quota-config", "", "multi-tenant admission quotas from this JSON file (see README, \"Multi-tenant operation\")")
	fs.Int64Var(&d.maxWindowMem, "max-window-mem", 0, "server-wide aggregate window-memory budget in bytes (0: unlimited; overrides the -quota-config server entry)")
	fs.Float64Var(&d.rateLimit, "rate-limit", 0, "server-wide sustained ingest cap in tuples/sec, enforced by credit shaping (0: unlimited; overrides the -quota-config server entry)")
	fs.StringVar(&d.metricsAddr, "metrics", "", "serve Prometheus-format metrics on this address at /metrics (empty disables)")
	fs.BoolVar(&d.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the -metrics listener")
	fs.StringVar(&d.tlsCert, "tls-cert", "", "serve sessions over TLS with this PEM certificate (requires -tls-key)")
	fs.StringVar(&d.tlsKey, "tls-key", "", "PEM private key matching -tls-cert")
	fs.StringVar(&d.authToken, "auth-token", "", "require this session auth token in every Open frame")
	fs.StringVar(&d.probeKernel, "probe-kernel", "auto", "default probe kernel for soft-uni sessions: auto, hash, or scan (sessions naming a kernel keep their choice)")
	fs.StringVar(&d.ckptDir, "checkpoint-dir", "", "durable window snapshots in this directory (restored on restart; empty disables)")
	fs.DurationVar(&d.ckptInterval, "checkpoint-interval", 0, "automatic snapshot cadence (0: default 5s; negative: only final snapshots)")
	fs.BoolVar(&d.quiet, "quiet", false, "suppress per-session log lines")
	fs.BoolVar(&d.version, "version", false, "print version and exit")
	return d
}

// Flags is the FlagSet the shared flags are registered on.
func (d *Daemon) Flags() *flag.FlagSet { return d.fs }

// Parse parses args, refuses inconsistent combinations of the shared
// flags and builds Config. With -version it prints the build identity
// instead and reports false: the daemon has nothing left to do.
func (d *Daemon) Parse(args []string) (bool, error) {
	d.fs.Parse(args)
	if d.version {
		fmt.Println(accelstream.Version(d.fs.Name()))
		return false, nil
	}
	if d.pprof && d.metricsAddr == "" {
		return false, fmt.Errorf("-pprof requires -metrics (pprof is served on the metrics listener)")
	}
	if (d.tlsCert == "") != (d.tlsKey == "") {
		return false, fmt.Errorf("-tls-cert and -tls-key must be given together")
	}
	kernel, err := accelstream.ParseProbeKernel(d.probeKernel)
	if err != nil {
		return false, err
	}
	d.Config = accelstream.ServerConfig{
		InitialCredits: d.credits,
		MaxBatch:       d.maxBatch,
		IdleTimeout:    d.idle,
		MaxSessions:    d.maxSessions,
		ProbeKernel:    kernel,
		AuthToken:      d.authToken,
	}
	if !d.quiet {
		d.Config.Logf = d.Logger.Printf
	}
	if d.tlsCert != "" {
		if d.Config.TLS, err = accelstream.LoadServerTLS(d.tlsCert, d.tlsKey); err != nil {
			return false, err
		}
	}
	if d.authToken != "" && d.tlsCert == "" {
		d.Logger.Printf("warning: -auth-token without TLS sends the token in the clear")
	}
	if d.ckptDir != "" {
		d.Config.CheckpointDir, d.Config.CheckpointInterval = d.ckptDir, d.ckptInterval
		d.Logger.Printf("checkpoints in %s", d.ckptDir)
	} else if d.ckptInterval != 0 {
		return false, fmt.Errorf("-checkpoint-interval requires -checkpoint-dir")
	}
	var quotas accelstream.QuotaConfig
	if d.quotaConfig != "" {
		if quotas, err = accelstream.LoadQuotaConfig(d.quotaConfig); err != nil {
			return false, err
		}
	}
	// The shorthand flags bound the whole server; per-tenant limits need
	// the JSON config.
	if d.maxWindowMem > 0 {
		quotas.Server.MaxWindowBytes = d.maxWindowMem
	}
	if d.rateLimit > 0 {
		quotas.Server.RatePerSec = d.rateLimit
	}
	if quotas.Enabled() {
		d.Config.Quotas = quotas
		d.Logger.Printf("admission quotas enabled (%d tenant overrides)", len(quotas.Tenants))
	}
	return true, nil
}

// Hooks are a daemon's additions to the shared serve sequence. Every
// field may be nil or empty.
type Hooks struct {
	// Listening is appended to the "listening on" line.
	Listening string
	// Mux fills the -metrics listener's mux in place of the server's own
	// /metrics handler.
	Mux func(mux *http.ServeMux, srv *accelstream.Server)
	// Started runs once the session listener is open.
	Started func(srv *accelstream.Server)
	// Stopping runs once ctx is done, before the drain.
	Stopping func()
}

// Run serves Config until ctx is done, then drains the open sessions
// within the -drain budget and logs each session's summary. It returns
// nil after a drain, even one that ran out of budget.
func (d *Daemon) Run(ctx context.Context, h Hooks) error {
	var mln net.Listener
	if d.metricsAddr != "" {
		var err error
		if mln, err = net.Listen("tcp", d.metricsAddr); err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer mln.Close()
	}
	srv, err := accelstream.Serve(d.addr, d.Config)
	if err != nil {
		return err
	}
	if h.Started != nil {
		h.Started(srv)
	}
	mode := "plaintext"
	if d.Config.TLS != nil {
		mode = "TLS"
	}
	d.Logger.Printf("listening on %s (%s, auth %v)%s", srv.Addr(), mode, d.authToken != "", h.Listening)

	if mln != nil {
		mux := http.NewServeMux()
		if h.Mux != nil {
			h.Mux(mux, srv)
		} else {
			mux.Handle("/metrics", srv.MetricsHandler())
		}
		if d.pprof {
			registerPprof(mux)
			d.Logger.Printf("pprof on http://%s/debug/pprof/", mln.Addr())
		}
		msrv := &http.Server{Handler: mux}
		defer msrv.Close()
		go msrv.Serve(mln)
		d.Logger.Printf("metrics on http://%s/metrics", mln.Addr())
	}

	<-ctx.Done()
	d.Logger.Printf("stopping, draining sessions (budget %v)", d.drain)
	if h.Stopping != nil {
		h.Stopping()
	}
	dctx, cancel := context.WithTimeout(context.Background(), d.drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		d.Logger.Printf("drain budget exhausted; sessions aborted: %v", err)
	}
	for _, m := range srv.Metrics() {
		d.Logger.Printf("session %d (%v): %d tuples in / %d batches, %d results out, avg batch latency %v",
			m.ID, m.Engine, m.TuplesIn, m.BatchesIn, m.ResultsOut, m.AvgBatchLatency)
	}
	d.Logger.Printf("bye")
	return nil
}

// registerPprof mounts the net/http/pprof handlers on a mux, mirroring
// what importing the package does to http.DefaultServeMux. The metrics
// listener uses its own mux, so the handlers are mounted explicitly, and
// only when -pprof asks for them.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Command streamshard is the shard router daemon: it speaks the ordinary
// streamd wire protocol on its front side, but serves each session by
// fanning the work out over N backing streamd processes SplitJoin-style —
// every batch is broadcast for probing, each tuple is stored by exactly
// one shard's residue class, and the merged result stream equals the
// single-engine oracle. Clients need no changes: a session opened against
// streamshard looks exactly like one opened against streamd with an
// N-times-larger machine behind it.
//
// Usage:
//
//	streamd -addr :7801 &
//	streamd -addr :7802 &
//	streamd -addr :7803 &
//	streamshard -addr :7800 -shards localhost:7801,localhost:7802,localhost:7803
//
// Session Open frames select the per-shard engine parallelism (cores) and
// the global window, which must divide evenly across the shards. Only the
// software uni-flow engine can be sharded.
//
// A running deployment can be resized without restarting anything: with
// -metrics set, the metrics listener also serves an admin endpoint that
// grows or shrinks the shard set live, rebalancing every open session's
// window state onto the new layout (results stay oracle-equal through
// the transition):
//
//	curl -X POST 'http://localhost:9100/admin/add-shard?addr=localhost:7804'
//	curl -X POST 'http://localhost:9100/admin/remove-shard?addr=localhost:7802'
//	curl http://localhost:9100/admin/shards
//
// With -autoscale the same resize plane runs closed-loop: the daemon
// samples its live signals (per-shard ingest rate, credit starvation,
// admission throttling, window occupancy) every tick and grows into the
// -standby-shards pool or shrinks back with hysteresis and a post-action
// cooldown. Tune thresholds with -autoscale-config (JSON policy) and
// inspect the loop live:
//
//	streamshard -addr :7800 -shards localhost:7801 \
//	  -standby-shards localhost:7802,localhost:7803 \
//	  -autoscale -metrics :9100
//	curl http://localhost:9100/admin/autoscale
//
// With -checkpoint-dir the whole deployment is durable: each session cuts
// coordinated all-shard snapshots of its global window (automatically
// every -checkpoint-interval, on demand via POST /admin/snapshot, and
// once more as the session drains), and on restart the newest valid
// snapshot is re-sliced over the current shard set before the client's
// first batch — the client replays only the post-snapshot suffix:
//
//	curl -X POST http://localhost:9100/admin/snapshot
//
// Both sides of the router can be secured independently: the front
// listener with -tls-cert/-tls-key/-auth-token (like streamd), and the
// back-side shard dials with -shard-tls/-shard-tls-ca/-shard-auth-token —
// redials after a shard drop reuse the same TLS and token, so a secured
// shard set survives connection loss.
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"accelstream"
	"accelstream/internal/stream"
)

// registerPprof mounts the net/http/pprof handlers on the metrics mux,
// gated behind -pprof instead of the package's DefaultServeMux side
// effect.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// metricsHandler serves one exposition: the front server's streamd_*
// families, then the registry's streamshard_* families.
func metricsHandler(srv *accelstream.Server, reg *routerRegistry) http.Handler {
	serverMetrics := srv.MetricsHandler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serverMetrics.ServeHTTP(w, r)
		reg.writeMetrics(w)
	})
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "streamshard:", err)
		os.Exit(1)
	}
}

// routerEngine serves one front-side session from a shard router,
// registered with the daemon's registry so the admin endpoint can
// rebalance it live.
type routerEngine struct {
	r   *accelstream.ShardRouter
	reg *routerRegistry
	id  int64
}

var _ accelstream.SessionResultBatcher = (*routerEngine)(nil)

func (e *routerEngine) Start() error { return nil }
func (e *routerEngine) PushBatch(batch []accelstream.Input) error {
	return e.r.SendBatch(batch)
}
func (e *routerEngine) Results() <-chan accelstream.Result { return e.r.Results() }

// NextResultBatch offers the server's batch capability: the front session
// re-encodes the shards' result batches as the router merged them, so no
// result crosses a channel on its own between a shard's socket and the
// client's. The session then never calls Results.
func (e *routerEngine) NextResultBatch(wait bool) (*accelstream.ResultBatch, bool) {
	return stream.ReceiveBatch(e.r.Batches(), wait)
}
func (e *routerEngine) Close() error {
	// Unregister first: remove blocks while a resize holds the registry,
	// so the router is never closed under a rebalance in flight.
	e.reg.remove(e.id)
	_, err := e.r.Close()
	return err
}
func (e *routerEngine) Backlog() int { return e.r.Backlog() }

// The router implements the server's optional Snapshotter and
// StateImporter capabilities, so a streamshard deployment checkpoints and
// restores exactly like a single streamd: SnapshotState cuts a
// coordinated all-shard snapshot of the global window, and ImportState
// re-slices a recovered snapshot back over the current shard set.
func (e *routerEngine) SnapshotState() ([]accelstream.Input, uint64, uint64, error) {
	return e.r.SnapshotState()
}
func (e *routerEngine) ResultsEmitted() uint64 { return e.r.ResultsEmitted() }
func (e *routerEngine) ImportState(tuples []accelstream.Input) error {
	return e.r.ImportState(tuples)
}

// parseAddrs splits a comma-separated address flag into its trimmed
// entries. An empty value is no list; an empty entry, such as the one a
// trailing comma leaves, is refused rather than dialed.
func parseAddrs(name, value string) ([]string, error) {
	if value == "" {
		return nil, nil
	}
	addrs := strings.Split(value, ",")
	for i := range addrs {
		if addrs[i] = strings.TrimSpace(addrs[i]); addrs[i] == "" {
			return nil, fmt.Errorf("-%s %q has an empty entry", name, value)
		}
	}
	return addrs, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("streamshard", flag.ExitOnError)
	addr := fs.String("addr", ":7800", "listen address")
	shards := fs.String("shards", "", "comma-separated backing streamd addresses (required; order fixes residue classes)")
	standbyShards := fs.String("standby-shards", "", "comma-separated standby streamd addresses the autoscaler may grow into, in activation order")
	autoscaleOn := fs.Bool("autoscale", false, "closed-loop shard autoscaling over -shards plus -standby-shards (conservative default policy; tune with -autoscale-config)")
	autoscaleConfig := fs.String("autoscale-config", "", "autoscale policy from this JSON file (implies -autoscale; see README, \"Autoscaling\")")
	credits := fs.Int("credits", 8, "per-session batch-credit window")
	maxBatch := fs.Int("maxbatch", 8192, "maximum tuples per batch frame")
	idle := fs.Duration("idle", 2*time.Minute, "idle session timeout (negative disables)")
	drain := fs.Duration("drain", 30*time.Second, "graceful drain budget on shutdown")
	queueDepth := fs.Int("queue", 4, "per-shard pending-batch queue depth")
	redials := fs.Int("redials", 3, "redial attempts before a dropped shard is abandoned (negative disables redial)")
	failFast := fs.Bool("failfast", false, "fail sessions when a shard is permanently lost instead of degrading")
	maxSessions := fs.Int("max-sessions", 0, "concurrent front-side session cap (0: unlimited)")
	quotaConfig := fs.String("quota-config", "", "multi-tenant admission quotas for front-side sessions from this JSON file (see README, \"Multi-tenant operation\")")
	maxWindowMem := fs.Int64("max-window-mem", 0, "aggregate window-memory budget in bytes across front-side sessions (0: unlimited; overrides the -quota-config server entry)")
	rateLimit := fs.Float64("rate-limit", 0, "sustained ingest cap in tuples/sec across front-side sessions, enforced by credit shaping (0: unlimited; overrides the -quota-config server entry)")
	metricsAddr := fs.String("metrics", "", "serve Prometheus-format metrics on this address at /metrics (empty disables)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -metrics listener")
	tlsCert := fs.String("tls-cert", "", "serve front-side sessions over TLS with this PEM certificate (requires -tls-key)")
	tlsKey := fs.String("tls-key", "", "PEM private key matching -tls-cert")
	authToken := fs.String("auth-token", "", "require this session auth token on front-side sessions")
	shardTLS := fs.Bool("shard-tls", false, "dial backing shards over TLS")
	shardTLSCA := fs.String("shard-tls-ca", "", "PEM CA bundle that signs the shards' certificates (implies -shard-tls)")
	shardTLSServerName := fs.String("shard-tls-servername", "", "hostname to verify on shard certificates (when dialing by IP)")
	shardTLSSkipVerify := fs.Bool("shard-tls-skip-verify", false, "dial shards over TLS without verifying their certificates (testing only)")
	shardAuthToken := fs.String("shard-auth-token", "", "session auth token presented to the backing shards")
	shardTenant := fs.String("shard-tenant", "", "tenant identity presented to the backing shards when the front session names none (front-session tenants are forwarded as-is)")
	probeKernel := fs.String("probe-kernel", "auto", "default probe kernel forwarded to the backing shard engines: auto, hash, or scan (sessions naming a kernel keep their choice)")
	ckptDir := fs.String("checkpoint-dir", "", "durable global-window snapshots in this directory (restored on restart; empty disables)")
	ckptInterval := fs.Duration("checkpoint-interval", 0, "automatic snapshot cadence (0: default 5s; negative: only final snapshots)")
	quiet := fs.Bool("quiet", false, "suppress per-session log lines")
	version := fs.Bool("version", false, "print version and exit")
	fs.Parse(args)

	if *version {
		fmt.Println(accelstream.Version("streamshard"))
		return nil
	}
	if *pprofOn && *metricsAddr == "" {
		return fmt.Errorf("-pprof requires -metrics (pprof is served on the metrics listener)")
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		return fmt.Errorf("-tls-cert and -tls-key must be given together")
	}

	addrs, err := parseAddrs("shards", *shards)
	if err != nil {
		return err
	}
	if len(addrs) == 0 {
		return fmt.Errorf("-shards is required (comma-separated streamd addresses)")
	}
	standby, err := parseAddrs("standby-shards", *standbyShards)
	if err != nil {
		return err
	}
	if *autoscaleConfig != "" {
		*autoscaleOn = true
	}

	defaultKernel, err := accelstream.ParseProbeKernel(*probeKernel)
	if err != nil {
		return err
	}

	logger := log.New(os.Stderr, "streamshard: ", log.LstdFlags)

	var shardTLSCfg *tls.Config
	if *shardTLS || *shardTLSCA != "" || *shardTLSSkipVerify {
		if shardTLSCfg, err = accelstream.LoadClientTLS(*shardTLSCA, *shardTLSServerName, *shardTLSSkipVerify); err != nil {
			return err
		}
	}

	reg := newRouterRegistry(addrs, logger.Printf)
	cfg := accelstream.ServerConfig{
		InitialCredits: *credits,
		MaxBatch:       *maxBatch,
		IdleTimeout:    *idle,
		MaxSessions:    *maxSessions,
		NewEngine: func(oc accelstream.SessionConfig) (accelstream.SessionEngineImpl, error) {
			if oc.Engine != accelstream.EngineSoftwareUniFlow {
				return nil, fmt.Errorf("streamshard: only the software uni-flow engine can be sharded, got %v", oc.Engine)
			}
			if oc.ShardCount > 1 {
				return nil, fmt.Errorf("streamshard: session is already sharded; chain routers by listing routers as shards instead")
			}
			// Non-zero BaseSeqR/S means the session resumes from a durable
			// checkpoint: every shard session opens at the same base offsets,
			// and the server installs the recovered window via ImportState
			// before the first batch.
			kernel := oc.ProbeKernel
			if kernel == accelstream.KernelAuto {
				kernel = defaultKernel
			}
			// Forward the front session's tenant identity to every backing
			// shard session (redials and rebalances included), so the
			// shards' admission accounting sees the real tenant rather
			// than the router; -shard-tenant fills in for anonymous ones.
			tenant := oc.Tenant
			if tenant == "" {
				tenant = *shardTenant
			}
			scfg := accelstream.ShardConfig{
				Addrs:       reg.dep.Addrs(),
				Cores:       oc.Cores,
				Window:      oc.Window,
				QueueDepth:  *queueDepth,
				Redial:      accelstream.ShardRedialPolicy{Attempts: *redials},
				FailFast:    *failFast,
				BaseSeqR:    oc.BaseSeqR,
				BaseSeqS:    oc.BaseSeqS,
				ProbeKernel: kernel,
				Tenant:      tenant,
				TLS:         shardTLSCfg,
				AuthToken:   *shardAuthToken,
			}
			if !*quiet {
				scfg.Logf = logger.Printf
			}
			r, err := accelstream.DialSharded(scfg)
			if err != nil {
				return nil, err
			}
			meta := routerMeta{cores: oc.Cores, window: oc.Window, ordered: oc.Ordered}
			return &routerEngine{r: r, reg: reg, id: reg.add(r, meta)}, nil
		},
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
		if err := reg.enableCheckpoints(*ckptDir); err != nil {
			return err
		}
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
	// The autoscale policy is checked before the listener opens; the
	// throttle hook reads srv only once the loop runs.
	var srv *accelstream.Server
	if *autoscaleOn {
		pol := defaultDaemonPolicy()
		if *autoscaleConfig != "" {
			if pol, err = accelstream.LoadAutoscalePolicy(*autoscaleConfig); err != nil {
				return err
			}
		}
		err = reg.dep.EnableAutoscale(pol, standby, func() uint64 {
			_, throttled := srv.TenantMetrics()
			return throttled
		})
		if err != nil {
			return err
		}
		logger.Printf("autoscale enabled: %d active + %d standby shards, tick %v, cooldown %v",
			len(addrs), len(standby), pol.WithDefaults().Tick(), pol.WithDefaults().Cooldown())
	} else if len(standby) > 0 {
		logger.Printf("warning: -standby-shards without -autoscale; the standby pool is unused")
	}
	if srv, err = accelstream.Serve(*addr, cfg); err != nil {
		return err
	}
	if auto := reg.dep.Controller(); auto != nil {
		auto.Start() // a fresh controller always starts
	}
	mode := "plaintext"
	if *tlsCert != "" {
		mode = "TLS"
	}
	logger.Printf("listening on %s (%s, auth %v), routing over %d shards: %s",
		srv.Addr(), mode, *authToken != "", len(addrs), strings.Join(addrs, ", "))

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", metricsHandler(srv, reg))
		reg.registerAdmin(mux)
		if *pprofOn {
			registerPprof(mux)
			logger.Printf("pprof on http://%s/debug/pprof/", mln.Addr())
		}
		msrv := &http.Server{Handler: mux}
		defer msrv.Close()
		go msrv.Serve(mln)
		logger.Printf("metrics on http://%s/metrics, admin on http://%s/admin/{shards,add-shard,remove-shard,snapshot}", mln.Addr(), mln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	logger.Printf("received %v, draining sessions (budget %v)", got, *drain)
	// Stop the autoscaler before draining: an in-flight tick finishes its
	// rebalance, and no new resize starts under the shutdown.
	if auto := reg.dep.Controller(); auto != nil {
		auto.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain budget exhausted; sessions aborted: %v", err)
	}
	for _, m := range srv.Metrics() {
		logger.Printf("session %d (%v): %d tuples in / %d batches, %d results out",
			m.ID, m.Engine, m.TuplesIn, m.BatchesIn, m.ResultsOut)
	}
	logger.Printf("bye")
	return nil
}

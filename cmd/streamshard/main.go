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
// The on-demand snapshot is the front server's own checkpoint, the one
// the interval and the drain write: it keeps -checkpoint-dir's retention,
// counts in the streamd_checkpoint* metrics, and is written only once the
// results of the input it holds have reached the client. Each line of
// the answer names a server session id, as the daemon's "session N: open
// from …" log lines do.
//
// Both sides of the router can be secured independently: the front
// listener with -tls-cert/-tls-key/-auth-token (like streamd), and the
// back-side shard dials with -shard-tls/-shard-tls-ca/-shard-auth-token —
// redials after a shard drop reuse the same TLS and token, so a secured
// shard set survives connection loss.
//
// The flags streamshard shares with streamd, and the serve and drain
// sequence around the front listener, are internal/daemon's; this command
// adds the router flags, the engine factory, the registry with its admin
// routes, and the autoscaler.
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"accelstream"
	"accelstream/internal/daemon"
	"accelstream/internal/stream"
)

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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
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

// routerFlags are streamshard's own flags, registered beside the shared
// daemon flags: the shard set, the autoscaler, and how the router dials
// its shards.
type routerFlags struct {
	shards, standby, autoscaleConfig                  string
	autoscale, failFast, shardTLS, shardTLSSkipVerify bool
	queue, redials                                    int
	shardTLSCA, shardTLSServerName                    string
	shardAuthToken, shardTenant                       string
}

// newFlags registers the shared daemon flags and the router's own on one
// FlagSet.
func newFlags() (*daemon.Daemon, *routerFlags) {
	d := daemon.New("streamshard")
	f := new(routerFlags)
	fs := d.Flags()
	fs.StringVar(&f.shards, "shards", "", "comma-separated backing streamd addresses (required; order fixes residue classes)")
	fs.StringVar(&f.standby, "standby-shards", "", "comma-separated standby streamd addresses the autoscaler may grow into, in activation order")
	fs.BoolVar(&f.autoscale, "autoscale", false, "closed-loop shard autoscaling over -shards plus -standby-shards (conservative default policy; tune with -autoscale-config)")
	fs.StringVar(&f.autoscaleConfig, "autoscale-config", "", "autoscale policy from this JSON file (implies -autoscale; see README, \"Autoscaling\")")
	fs.IntVar(&f.queue, "queue", 4, "per-shard pending-batch queue depth")
	fs.IntVar(&f.redials, "redials", 3, "redial attempts before a dropped shard is abandoned (negative disables redial)")
	fs.BoolVar(&f.failFast, "failfast", false, "fail sessions when a shard is permanently lost instead of degrading")
	fs.BoolVar(&f.shardTLS, "shard-tls", false, "dial backing shards over TLS")
	fs.StringVar(&f.shardTLSCA, "shard-tls-ca", "", "PEM CA bundle that signs the shards' certificates (implies -shard-tls)")
	fs.StringVar(&f.shardTLSServerName, "shard-tls-servername", "", "hostname to verify on shard certificates, when dialing by IP (implies -shard-tls)")
	fs.BoolVar(&f.shardTLSSkipVerify, "shard-tls-skip-verify", false, "dial shards over TLS without verifying their certificates (testing only)")
	fs.StringVar(&f.shardAuthToken, "shard-auth-token", "", "session auth token presented to the backing shards")
	fs.StringVar(&f.shardTenant, "shard-tenant", "", "tenant identity presented to the backing shards when the front session names none (front-session tenants are forwarded as-is)")
	return d, f
}

// shardTemplate is the ShardConfig every session's router dials with,
// less the session's own shape, which newEngine fills in. A CA, a server
// name and skipping verification each mean something only over TLS, so
// each implies -shard-tls.
func (f *routerFlags) shardTemplate(logf func(format string, args ...any)) (accelstream.ShardConfig, error) {
	tmpl := accelstream.ShardConfig{
		QueueDepth: f.queue,
		Redial:     accelstream.ShardRedialPolicy{Attempts: f.redials},
		FailFast:   f.failFast,
		Tenant:     f.shardTenant,
		AuthToken:  f.shardAuthToken,
		Logf:       logf,
	}
	if f.shardTLS || f.shardTLSCA != "" || f.shardTLSServerName != "" || f.shardTLSSkipVerify {
		var err error
		if tmpl.TLS, err = accelstream.LoadClientTLS(f.shardTLSCA, f.shardTLSServerName, f.shardTLSSkipVerify); err != nil {
			return tmpl, err
		}
	}
	return tmpl, nil
}

// newEngine is the daemon's session engine factory: each front session
// gets a shard router over the deployment's current shard set, dialed
// with tmpl's settings, and registered so the admin endpoint can
// rebalance it live.
func newEngine(reg *routerRegistry, tmpl accelstream.ShardConfig) func(accelstream.SessionConfig) (accelstream.SessionEngineImpl, error) {
	return func(oc accelstream.SessionConfig) (accelstream.SessionEngineImpl, error) {
		if oc.Engine != accelstream.EngineSoftwareUniFlow {
			return nil, fmt.Errorf("streamshard: only the software uni-flow engine can be sharded, got %v", oc.Engine)
		}
		if oc.ShardCount > 1 {
			return nil, fmt.Errorf("streamshard: session is already sharded; chain routers by listing routers as shards instead")
		}
		scfg := tmpl
		scfg.Addrs = reg.dep.Addrs()
		scfg.Cores, scfg.Window = oc.Cores, oc.Window
		// Non-zero BaseSeqR/S means the session resumes from a durable
		// checkpoint: every shard session opens at the same base offsets,
		// and the server installs the recovered window via ImportState
		// before the first batch.
		scfg.BaseSeqR, scfg.BaseSeqS = oc.BaseSeqR, oc.BaseSeqS
		// The front server has already resolved an auto kernel to its
		// -probe-kernel default.
		scfg.ProbeKernel = oc.ProbeKernel
		// Forward the front session's tenant identity to every backing
		// shard session (redials and rebalances included), so the shards'
		// admission accounting sees the real tenant rather than the
		// router; -shard-tenant fills in for anonymous ones.
		if oc.Tenant != "" {
			scfg.Tenant = oc.Tenant
		}
		r, err := accelstream.DialSharded(scfg)
		if err != nil {
			return nil, err
		}
		return &routerEngine{r: r, reg: reg, id: reg.dep.Join(r)}, nil
	}
}

// run serves the router until ctx is done.
func run(ctx context.Context, args []string) error {
	d, f := newFlags()
	if ok, err := d.Parse(args); !ok {
		return err
	}
	addrs, err := parseAddrs("shards", f.shards)
	if err != nil {
		return err
	}
	if len(addrs) == 0 {
		return fmt.Errorf("-shards is required (comma-separated streamd addresses)")
	}
	standby, err := parseAddrs("standby-shards", f.standby)
	if err != nil {
		return err
	}
	tmpl, err := f.shardTemplate(d.Config.Logf)
	if err != nil {
		return err
	}
	logf := d.Logger.Printf
	reg := newRouterRegistry(addrs, logf)
	d.Config.NewEngine = newEngine(reg, tmpl)
	hooks := daemon.Hooks{
		Listening: fmt.Sprintf(", routing over %d shards: %s", len(addrs), strings.Join(addrs, ", ")),
		Mux: func(mux *http.ServeMux, srv *accelstream.Server) {
			mux.Handle("/metrics", metricsHandler(srv, reg))
			reg.registerAdmin(mux)
			mux.Handle("/admin/snapshot", snapshotHandler(srv, logf))
			logf("admin on the metrics listener at /admin/{shards,add-shard,remove-shard,snapshot,autoscale}")
		},
	}
	if f.autoscale || f.autoscaleConfig != "" {
		pol := defaultDaemonPolicy()
		if f.autoscaleConfig != "" {
			if pol, err = accelstream.LoadAutoscalePolicy(f.autoscaleConfig); err != nil {
				return err
			}
		}
		// The policy is checked before the listener opens; the throttle
		// hook reads srv only once the loop runs.
		var srv *accelstream.Server
		err = reg.dep.EnableAutoscale(pol, standby, func() uint64 {
			_, throttled := srv.TenantMetrics()
			return throttled
		})
		if err != nil {
			return err
		}
		logf("autoscale enabled: %d active + %d standby shards, tick %v, cooldown %v",
			len(addrs), len(standby), pol.WithDefaults().Tick(), pol.WithDefaults().Cooldown())
		auto := reg.dep.Controller()
		hooks.Started = func(s *accelstream.Server) {
			srv = s
			auto.Start() // a fresh controller always starts
		}
		// Stop the autoscaler before draining: an in-flight tick finishes
		// its rebalance, and no new resize starts under the shutdown.
		hooks.Stopping = auto.Stop
	} else if len(standby) > 0 {
		logf("warning: -standby-shards without -autoscale; the standby pool is unused")
	}
	return d.Run(ctx, hooks)
}

package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"accelstream"
	"accelstream/internal/metrics"
	"accelstream/internal/shard"
)

// routerRegistry is the daemon's view of its sessions. The shard set, the
// standby pool, resizes and the autoscaler belong to dep, which every
// session's router joins; the registry adds what only the daemon has:
// cumulative rebalance totals of closed sessions, and the HTTP admin and
// metrics surface.
type routerRegistry struct {
	dep  *shard.Deployment
	logf func(format string, args ...any)

	mu sync.Mutex
	// Rebalance counters of routers that already closed, so the metrics
	// endpoint reports cumulative daemon totals rather than only the
	// currently-live sessions.
	retired struct {
		completed, aborted, migrated uint64
		nanos                        uint64
	}
}

func newRouterRegistry(addrs []string, logf func(format string, args ...any)) *routerRegistry {
	return &routerRegistry{
		dep:  shard.NewDeployment(addrs, logf),
		logf: logf,
	}
}

// remove unregisters a closing router, folding its rebalance counters
// into the retired totals. It blocks while a resize is in flight, so a
// session close never races a rebalance on the same router.
func (g *routerRegistry) remove(id int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.dep.Leave(id)
	if r == nil {
		return
	}
	completed, aborted, migrated, total := r.RebalanceMetrics()
	g.retired.completed += completed
	g.retired.aborted += aborted
	g.retired.migrated += migrated
	g.retired.nanos += uint64(total.Nanoseconds())
}

// registerAdmin mounts the registry's operator endpoints on the metrics
// mux (main mounts POST /admin/snapshot beside them, on the front server):
//
//	GET  /admin/shards                     current shard set
//	POST /admin/add-shard?addr=host:port   grow: rebalance live sessions onto the set + addr
//	POST /admin/remove-shard?addr=host:port shrink: rebalance live sessions onto the set - addr
//	GET  /admin/autoscale                  the autoscaler's policy and last report
//
// Growth and shrink go through ShardRouter.Rebalance, so every live
// session's window state is re-sliced onto the new layout with results
// staying oracle-equal; each session's global window must divide evenly
// by the new shard count or that session's resize is refused.
func (g *routerRegistry) registerAdmin(mux *http.ServeMux) {
	mux.HandleFunc("/admin/shards", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		fmt.Fprintln(w, strings.Join(g.dep.Addrs(), "\n"))
	})
	mux.HandleFunc("/admin/add-shard", func(w http.ResponseWriter, r *http.Request) {
		g.handleResize(w, r, true)
	})
	mux.HandleFunc("/admin/remove-shard", func(w http.ResponseWriter, r *http.Request) {
		g.handleResize(w, r, false)
	})
	mux.HandleFunc("/admin/autoscale", g.handleAutoscale)
}

// snapshotHandler serves POST /admin/snapshot: the front server cuts and
// persists a checkpoint of every live session through its own checkpoint
// path, so the files follow -checkpoint-dir's retention, count in the
// streamd_checkpoint* metrics, and become durable only after the results
// of the input they hold reach the client. Each line names a server
// session id. A cold restart restores from the newest file.
func snapshotHandler(srv *accelstream.Server, logf func(format string, args ...any)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "use POST", http.StatusMethodNotAllowed)
			return
		}
		cps, err := srv.Checkpoint()
		if err != nil {
			http.Error(w, "snapshots disabled: start streamshard with -checkpoint-dir", http.StatusConflict)
			return
		}
		if len(cps) == 0 {
			fmt.Fprintln(w, "no live sessions; nothing to snapshot")
			return
		}
		lines := make([]string, len(cps))
		failed := false
		for i, c := range cps {
			lines[i] = fmt.Sprintf("session %d: %d window tuples at seqs (%d, %d), %d bytes in %v",
				c.Session, c.Cut.TuplesR+c.Cut.TuplesS, c.Cut.SeqR, c.Cut.SeqS, c.Bytes, c.Took.Round(time.Millisecond))
			if c.Err != nil {
				failed = true
				lines[i] = fmt.Sprintf("session %d: FAILED: %v", c.Session, c.Err)
			}
			logf("admin: snapshot: %s", lines[i])
		}
		if failed {
			w.WriteHeader(http.StatusInternalServerError)
		}
		for _, line := range lines {
			fmt.Fprintln(w, line)
		}
	}
}

func (g *routerRegistry) handleResize(w http.ResponseWriter, r *http.Request, grow bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	addr := strings.TrimSpace(r.FormValue("addr"))
	if addr == "" {
		http.Error(w, "missing addr parameter (host:port of the shard)", http.StatusBadRequest)
		return
	}
	current := g.dep.Addrs()
	var target []string
	if grow {
		for _, a := range current {
			if a == addr {
				http.Error(w, fmt.Sprintf("shard %s already in the set", addr), http.StatusConflict)
				return
			}
		}
		target = append(append([]string(nil), current...), addr)
	} else {
		for _, a := range current {
			if a != addr {
				target = append(target, a)
			}
		}
		if len(target) == len(current) {
			http.Error(w, fmt.Sprintf("shard %s not in the set", addr), http.StatusNotFound)
			return
		}
		if len(target) == 0 {
			http.Error(w, "refusing to remove the last shard", http.StatusConflict)
			return
		}
	}
	op := "add"
	if !grow {
		op = "remove"
	}
	g.logf("admin: %s-shard %s: resizing to %d shards (%s)", op, addr, len(target), strings.Join(target, ","))
	summary, err := g.dep.Resize(target)
	for _, line := range summary {
		g.logf("admin: %s", line)
	}
	if err != nil {
		g.logf("admin: %s-shard %s failed: %v", op, addr, err)
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, err)
	}
	for _, line := range summary {
		fmt.Fprintln(w, line)
	}
}

// writeMetrics appends the router-layer metrics to the streamd server
// families: per-shard labeled gauges/counters for every live session's
// router, plus cumulative rebalance totals (live + retired sessions), in
// the Prometheus text exposition format.
func (g *routerRegistry) writeMetrics(out io.Writer) {
	g.mu.Lock()
	type row struct {
		session int64
		st      accelstream.ShardState
	}
	var rows []row
	completed, aborted, migrated := g.retired.completed, g.retired.aborted, g.retired.migrated
	nanos := g.retired.nanos
	for _, m := range g.dep.Members() {
		for _, st := range m.Router.Shards() {
			rows = append(rows, row{m.ID, st})
		}
		c, a, mig, d := m.Router.RebalanceMetrics()
		completed += c
		aborted += a
		migrated += mig
		nanos += uint64(d.Nanoseconds())
	}
	g.mu.Unlock()
	// Members come in join order (ascending id) and each router's shards
	// in index order, so the rows are already sorted for scrapers.
	w := metrics.NewWriter(out)
	w.Gauge("streamshard_shards", "Shards in the current deployment layout.", len(g.dep.Addrs()))
	perShard := func(name, kind, help string, value func(accelstream.ShardState) any) {
		w.Family(name, kind, help)
		for _, r := range rows {
			w.Sample(name, value(r.st), "session", strconv.FormatInt(r.session, 10), "shard", strconv.Itoa(r.st.Index), "addr", r.st.Addr)
		}
	}
	perShard("streamshard_shard_up", "gauge", "Whether the shard's session is live, per session and shard.", func(st accelstream.ShardState) any { return st.Up })
	perShard("streamshard_shard_redials_total", "counter", "Successful reconnections, per session and shard.", func(st accelstream.ShardState) any { return st.Redials })
	perShard("streamshard_shard_batches_dropped_total", "counter", "Broadcast batches the shard never processed, per session and shard.", func(st accelstream.ShardState) any { return st.BatchesDropped })
	perShard("streamshard_shard_results_total", "counter", "Results merged from the shard, per session and shard.", func(st accelstream.ShardState) any { return st.Results })
	perShard("streamshard_shard_credits_outstanding", "gauge", "Batch credits the shard's session holds server-side (per-shard backpressure).", func(st accelstream.ShardState) any { return st.CreditsOutstanding })
	w.Counter("streamshard_rebalance_total", "Completed shard-set rebalances across all sessions.", completed)
	w.Counter("streamshard_rebalance_aborts_total", "Aborted shard-set rebalances (old layout restored).", aborted)
	w.Counter("streamshard_rebalance_tuples_migrated_total", "Window tuples re-sliced across rebalances.", migrated)
	w.Counter("streamshard_rebalance_duration_seconds", "Total wall time spent rebalancing, pause to resume.", time.Duration(nanos).Seconds())
	g.writeAutoscaleMetrics(w)
}

package main

import (
	"encoding/json"
	"net/http"
	"sort"

	"accelstream/internal/autoscale"
	"accelstream/internal/metrics"
)

// defaultDaemonPolicy is the autoscale policy -autoscale runs without
// -autoscale-config. It is deliberately conservative for a daemon fronting
// many sessions: the hot trigger is credit starvation (shards pinned at
// their credit/queue limits), scale-ups need three consecutive hot
// 1-second ticks, scale-downs ten quiet ones, and every action is followed
// by a 10s cooldown so a resize settles before the next decision.
func defaultDaemonPolicy() autoscale.Policy {
	return autoscale.Policy{
		TickMS:     1000,
		StarveHigh: 0.9,
		StarveLow:  0.25,
		UpAfter:    3,
		DownAfter:  10,
		CooldownMS: 10000,
	}
}

// handleAutoscale serves GET /admin/autoscale: the effective policy, the
// active and standby shard sets, and the controller's live report
// (streaks, cooldown, recent decisions) as JSON.
func (g *routerRegistry) handleAutoscale(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "use GET", http.StatusMethodNotAllowed)
		return
	}
	auto := g.dep.Controller()
	resp := struct {
		Enabled bool              `json:"enabled"`
		Shards  []string          `json:"shards"`
		Standby []string          `json:"standby,omitempty"`
		Policy  *autoscale.Policy `json:"policy,omitempty"`
		Report  *autoscale.Report `json:"report,omitempty"`
	}{
		Enabled: auto != nil,
		Shards:  g.dep.Addrs(),
		Standby: g.dep.Standby(),
	}
	if auto != nil {
		pol := auto.Policy()
		rep := auto.Report()
		resp.Policy = &pol
		resp.Report = &rep
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// writeAutoscaleMetrics appends the autoscaler's families to the daemon
// metrics. Always emitted (enabled=0 with a zero report when -autoscale is
// off) so dashboards need no conditional scrape config.
func (g *routerRegistry) writeAutoscaleMetrics(w *metrics.Writer) {
	auto := g.dep.Controller()
	var rep autoscale.Report
	if auto != nil {
		rep = auto.Report()
	}
	w.Gauge("streamshard_autoscale_enabled", "Whether the closed-loop shard autoscaler is running.", auto != nil)
	w.Gauge("streamshard_standby_shards", "Shard endpoints held in the autoscaler's standby pool.", len(g.dep.Standby()))
	w.Counter("streamshard_autoscale_ticks_total", "Autoscale policy evaluations.", rep.Ticks)
	w.Counter("streamshard_autoscale_scale_ups_total", "Completed autoscale grow actions.", rep.ScaleUps)
	w.Counter("streamshard_autoscale_scale_downs_total", "Completed autoscale shrink actions.", rep.ScaleDowns)
	w.Counter("streamshard_autoscale_holds_total", "Autoscale ticks that held the current shard count.", rep.Holds)
	w.Counter("streamshard_autoscale_errors_total", "Autoscale actions that failed at the rebalance layer.", rep.Errors)
	w.Gauge("streamshard_autoscale_cooldown_active", "Whether the autoscaler is in its post-action cooldown.", !rep.CooldownUntil.IsZero())
	w.Gauge("streamshard_autoscale_target", "Shard count of the autoscaler's last landed deployment.", rep.Shards)
	var lastTS int64
	if !rep.Last.At.IsZero() && rep.Last.Action != autoscale.ActionHold {
		lastTS = rep.Last.At.Unix()
	}
	w.Gauge("streamshard_autoscale_last_decision_timestamp_seconds", "Unix time of the last scale action (0: none yet).", lastTS)
	w.Family("streamshard_autoscale_triggers_total", "counter", "Scale actions by the signal that tripped them.")
	triggers := make([]string, 0, len(rep.Triggers))
	for name := range rep.Triggers {
		triggers = append(triggers, name)
	}
	sort.Strings(triggers)
	for _, name := range triggers {
		w.Sample("streamshard_autoscale_triggers_total", rep.Triggers[name], "trigger", name)
	}
}

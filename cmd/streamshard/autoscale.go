package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"accelstream/internal/autoscale"
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
func (g *routerRegistry) writeAutoscaleMetrics(b *strings.Builder) {
	auto := g.dep.Controller()
	standby := len(g.dep.Standby())
	var rep autoscale.Report
	if auto != nil {
		rep = auto.Report()
	}
	family := func(name, kind, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	}
	enabled := 0
	if auto != nil {
		enabled = 1
	}
	family("streamshard_autoscale_enabled", "gauge", "Whether the closed-loop shard autoscaler is running.")
	fmt.Fprintf(b, "streamshard_autoscale_enabled %d\n", enabled)
	family("streamshard_standby_shards", "gauge", "Shard endpoints held in the autoscaler's standby pool.")
	fmt.Fprintf(b, "streamshard_standby_shards %d\n", standby)
	family("streamshard_autoscale_ticks_total", "counter", "Autoscale policy evaluations.")
	fmt.Fprintf(b, "streamshard_autoscale_ticks_total %d\n", rep.Ticks)
	family("streamshard_autoscale_scale_ups_total", "counter", "Completed autoscale grow actions.")
	fmt.Fprintf(b, "streamshard_autoscale_scale_ups_total %d\n", rep.ScaleUps)
	family("streamshard_autoscale_scale_downs_total", "counter", "Completed autoscale shrink actions.")
	fmt.Fprintf(b, "streamshard_autoscale_scale_downs_total %d\n", rep.ScaleDowns)
	family("streamshard_autoscale_holds_total", "counter", "Autoscale ticks that held the current shard count.")
	fmt.Fprintf(b, "streamshard_autoscale_holds_total %d\n", rep.Holds)
	family("streamshard_autoscale_errors_total", "counter", "Autoscale actions that failed at the rebalance layer.")
	fmt.Fprintf(b, "streamshard_autoscale_errors_total %d\n", rep.Errors)
	family("streamshard_autoscale_cooldown_active", "gauge", "Whether the autoscaler is in its post-action cooldown.")
	cooling := 0
	if !rep.CooldownUntil.IsZero() {
		cooling = 1
	}
	fmt.Fprintf(b, "streamshard_autoscale_cooldown_active %d\n", cooling)
	family("streamshard_autoscale_target", "gauge", "Shard count of the autoscaler's last landed deployment.")
	fmt.Fprintf(b, "streamshard_autoscale_target %d\n", rep.Shards)
	family("streamshard_autoscale_last_decision_timestamp_seconds", "gauge", "Unix time of the last scale action (0: none yet).")
	var lastTS int64
	if !rep.Last.At.IsZero() && rep.Last.Action != autoscale.ActionHold {
		lastTS = rep.Last.At.Unix()
	}
	fmt.Fprintf(b, "streamshard_autoscale_last_decision_timestamp_seconds %d\n", lastTS)
	family("streamshard_autoscale_triggers_total", "counter", "Scale actions by the signal that tripped them.")
	triggers := make([]string, 0, len(rep.Triggers))
	for name := range rep.Triggers {
		triggers = append(triggers, name)
	}
	sort.Strings(triggers)
	for _, name := range triggers {
		fmt.Fprintf(b, "streamshard_autoscale_triggers_total{trigger=%q} %d\n", name, rep.Triggers[name])
	}
}

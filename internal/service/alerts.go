package service

import (
	"log"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// The alert engine evaluates SLO rules over the telemetry history once
// per telemetry round. A rule names a metric (or a numerator/denominator
// pair), an aggregation over a window, a comparison, and a hold
// duration. Each matching series gets its own alert instance walking the
// inactive → pending → firing → resolved state machine; transitions emit
// one structured stderr log line each, and the current set is served at
// GET /v1/alerts.

// alertRule is one rule. kind selects the aggregation:
//
//   - "threshold": each series' latest sample value.
//   - "increase":  each counter series' reset-aware growth over window.
//   - "quantile":  the quantile of a histogram family's observations
//     that landed within window (per series).
//   - "ratio":     sum of the numerator metrics' increases over window
//     divided by the denominator metrics' — series matched up by label
//     set. minCount gates on denominator activity, so a ratio over
//     nothing never alerts.
//
// The computed value is compared op value ("<", "<=", ">", ">="); when
// the comparison holds continuously for hold, the alert fires.
type alertRule struct {
	name, description, severity string
	kind                        string
	metric                      string
	numerator, denominator      []string
	quantile                    float64
	op                          string
	value                       float64
	window, hold                time.Duration
	minCount                    float64
}

// alertRules are the SLOs every telemetry-enabled daemon watches.
// Fleet-only series (member up, shard retries) simply never match on a
// single daemon, so the rules are harmless everywhere.
// TestAlertRulesReadRegisteredMetrics checks every metric they name.
var alertRules = []alertRule{
	{
		name:        "worker_down",
		description: "The coordinator's /metrics scrape of a fleet member is failing.",
		severity:    "critical",
		kind:        "threshold", metric: memberUpFamily,
		op: "<", value: 1,
	},
	{
		name:        "queue_depth_sustained",
		description: "Design points have been queuing for a pool slot for a sustained period.",
		severity:    "warning",
		kind:        "threshold", metric: "wt_pool_queue_depth",
		op: ">", value: 16, hold: 10 * time.Second,
	},
	{
		name:        "cache_hit_ratio_collapse",
		description: "The trial cache is missing almost everything — repeated sweeps should mostly hit.",
		severity:    "warning",
		kind:        "ratio",
		// wt_cache_hits_total already counts a hit in any tier; the disk
		// and peer counters are subsets of it.
		numerator:   []string{"wt_cache_hits_total"},
		denominator: []string{"wt_cache_hits_total", "wt_cache_misses_total"},
		op:          "<", value: 0.1,
		window: 60 * time.Second, minCount: 20,
	},
	{
		name:        "journal_fsync_slow",
		description: "Journal batch flush (write + fsync) p99 latency is above 50ms — every durable stream line waits at least that long to become visible.",
		severity:    "warning",
		kind:        "quantile", metric: "wt_journal_fsync_seconds", quantile: 0.99,
		op: ">", value: 0.05, window: 60 * time.Second,
	},
	{
		name:        "degraded_jobs",
		description: "A job degraded to coordinator-local execution after exhausting shard failover.",
		severity:    "critical",
		kind:        "increase", metric: "wt_fleet_degraded_jobs_total",
		op: ">", value: 0, window: 5 * time.Minute,
	},
	{
		name:        "failover_burst",
		description: "Shard failovers are happening in bursts — workers are flapping under the coordinator.",
		severity:    "warning",
		kind:        "increase", metric: "wt_fleet_shard_retries_total",
		op: ">", value: 3, window: 60 * time.Second,
	},
}

// AlertState is an alert instance's lifecycle phase.
type AlertState string

const (
	// AlertPending: the condition holds but has not yet held for the
	// rule's hold duration.
	AlertPending AlertState = "pending"
	// AlertFiring: the condition has held for at least the hold duration.
	AlertFiring AlertState = "firing"
	// AlertResolved: the condition stopped holding after the alert
	// fired. Resolved alerts stay listed (they are the incident's paper
	// trail) until the condition fires again or the daemon restarts.
	AlertResolved AlertState = "resolved"
)

// Alert is one rule × series instance, the GET /v1/alerts unit.
type Alert struct {
	Rule        string     `json:"rule"`
	Severity    string     `json:"severity"`
	Description string     `json:"description,omitempty"`
	Labels      string     `json:"labels,omitempty"`
	State       AlertState `json:"state"`
	Value       float64    `json:"value"`
	Since       time.Time  `json:"since"`
	ResolvedAt  time.Time  `json:"resolved_at,omitzero"`
}

// AlertsResponse is the GET /v1/alerts payload.
type AlertsResponse struct {
	Firing  int     `json:"firing"`
	Pending int     `json:"pending"`
	Alerts  []Alert `json:"alerts"`
}

type alertInstance struct {
	Alert
	condSince time.Time // when the condition started holding
}

// alertEngine evaluates the rules over one History, once per telemetry
// round.
type alertEngine struct {
	hist  *obs.History
	rules []alertRule
	logf  func(format string, args ...any)

	mu     sync.Mutex
	active map[string]*alertInstance // key: rule name + labels
}

func newAlertEngine(hist *obs.History) *alertEngine {
	return &alertEngine{hist: hist, rules: alertRules, logf: log.Printf, active: make(map[string]*alertInstance)}
}

// Snapshot returns the current alert set, firing first, then pending,
// then resolved, stably ordered within each state.
func (e *alertEngine) Snapshot() AlertsResponse {
	resp := AlertsResponse{Alerts: []Alert{}}
	e.mu.Lock()
	for _, inst := range e.active {
		resp.Alerts = append(resp.Alerts, inst.Alert)
	}
	e.mu.Unlock()
	rank := map[AlertState]int{AlertFiring: 0, AlertPending: 1, AlertResolved: 2}
	sort.Slice(resp.Alerts, func(i, j int) bool {
		a, b := resp.Alerts[i], resp.Alerts[j]
		if rank[a.State] != rank[b.State] {
			return rank[a.State] < rank[b.State]
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Labels < b.Labels
	})
	for _, a := range resp.Alerts {
		switch a.State {
		case AlertFiring:
			resp.Firing++
		case AlertPending:
			resp.Pending++
		}
	}
	return resp
}

// FiringCount returns how many alerts are currently firing — the number
// /v1/healthz carries.
func (e *alertEngine) FiringCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, inst := range e.active {
		if inst.State == AlertFiring {
			n++
		}
	}
	return n
}

// evaluate runs every rule at now.
func (e *alertEngine) evaluate(now time.Time) {
	for _, rule := range e.rules {
		e.apply(rule, e.eval(rule, now), now)
	}
}

// eval computes a rule's current value per matching series label set.
func (e *alertEngine) eval(rule alertRule, now time.Time) map[string]float64 {
	out := make(map[string]float64)
	switch rule.kind {
	case "threshold":
		for _, v := range e.hist.Latest(rule.metric) {
			out[v.Labels] = v.V
		}
	case "increase":
		for _, d := range e.hist.Increase(rule.metric, rule.window, now) {
			out[d.Labels] = d.Delta
		}
	case "quantile":
		for _, v := range e.hist.QuantileOver(rule.metric, rule.quantile, rule.window, now) {
			out[v.Labels] = v.V
		}
	case "ratio":
		num := make(map[string]float64)
		den := make(map[string]float64)
		for _, m := range rule.numerator {
			for _, d := range e.hist.Increase(m, rule.window, now) {
				num[d.Labels] += d.Delta
			}
		}
		for _, m := range rule.denominator {
			for _, d := range e.hist.Increase(m, rule.window, now) {
				den[d.Labels] += d.Delta
			}
		}
		for labels, dv := range den {
			if dv < rule.minCount || dv <= 0 {
				continue // too little activity for the ratio to mean anything
			}
			out[labels] = num[labels] / dv
		}
	}
	return out
}

func compare(op string, v, threshold float64) bool {
	switch op {
	case "<":
		return v < threshold
	case "<=":
		return v <= threshold
	case ">":
		return v > threshold
	case ">=":
		return v >= threshold
	}
	return false
}

// apply folds one rule's evaluated values into the alert instances,
// logging every state transition.
func (e *alertEngine) apply(rule alertRule, values map[string]float64, now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := make(map[string]bool, len(values))
	for labels, v := range values {
		key := rule.name + labels
		seen[key] = true
		inst := e.active[key]
		holds := compare(rule.op, v, rule.value)
		switch {
		case holds && (inst == nil || inst.State == AlertResolved):
			from := AlertState("inactive")
			if inst != nil {
				from = AlertResolved
			}
			inst = &alertInstance{
				Alert: Alert{
					Rule: rule.name, Severity: rule.severity, Description: rule.description,
					Labels: labels, State: AlertPending, Value: v, Since: now,
				},
				condSince: now,
			}
			e.active[key] = inst
			if rule.hold <= 0 {
				inst.State = AlertFiring
			}
			e.transition(inst, from, inst.State)
		case holds:
			inst.Value = v
			if inst.State == AlertPending && now.Sub(inst.condSince) >= rule.hold {
				inst.State, inst.Since = AlertFiring, now
				e.transition(inst, AlertPending, AlertFiring)
			}
		case inst == nil:
			// Condition clear and no instance: nothing to do.
		case inst.State == AlertPending:
			// The condition let go before the hold elapsed: not an
			// incident, just noise — drop back to inactive.
			delete(e.active, key)
			e.transition(inst, AlertPending, "inactive")
		case inst.State == AlertFiring:
			inst.State, inst.ResolvedAt, inst.Value = AlertResolved, now, v
			e.transition(inst, AlertFiring, AlertResolved)
		default:
			inst.Value = v // resolved: keep the paper trail current
		}
	}
	// Series that stopped reporting entirely: a pending alert on them is
	// dropped; a firing one resolves — no data is not a held condition.
	for key, inst := range e.active {
		if inst.Rule != rule.name || seen[key] {
			continue
		}
		switch inst.State {
		case AlertPending:
			delete(e.active, key)
			e.transition(inst, AlertPending, "inactive")
		case AlertFiring:
			inst.State, inst.ResolvedAt = AlertResolved, now
			e.transition(inst, AlertFiring, AlertResolved)
		}
	}
}

// transition logs one state change as a single structured stderr line.
func (e *alertEngine) transition(inst *alertInstance, from, to AlertState) {
	labels := inst.Labels
	if labels == "" {
		labels = "{}"
	}
	e.logf("alert rule=%s severity=%s labels=%s from=%s to=%s value=%g",
		inst.Rule, inst.Severity, labels, from, to, inst.Value)
}

package service

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// The alert engine evaluates declarative SLO rules over the telemetry
// history on a fixed interval. Rules are data, not code: a rule names a
// metric (or a numerator/denominator pair), an aggregation over a
// window, a comparison, and a hold duration. Each matching series gets
// its own alert instance walking the inactive → pending → firing →
// resolved state machine; transitions emit one structured stderr log
// line each, and the current set is served at GET /v1/alerts.

// RuleDuration is a time.Duration that (un)marshals as a Go duration
// string ("30s", "5m") so rules files stay human-writable.
type RuleDuration time.Duration

func (d *RuleDuration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"30s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = RuleDuration(v)
	return nil
}

func (d RuleDuration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// AlertRule is one declarative rule. Kind selects the aggregation:
//
//   - "threshold": each series' latest sample value.
//   - "increase":  each counter series' reset-aware growth over Window.
//   - "rate":      the same growth as a per-second rate.
//   - "quantile":  the Quantile of a histogram family's observations
//     that landed within Window (per series).
//   - "ratio":     sum of the Numerator metrics' increases over Window
//     divided by the Denominator metrics' — series matched up by label
//     set. MinCount gates on denominator activity, so a ratio over
//     nothing never alerts.
//
// The computed value is compared Op Value ("<", "<=", ">", ">="); when
// the comparison holds continuously for For, the alert fires.
type AlertRule struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Severity    string       `json:"severity,omitempty"` // "warning" (default) | "critical"
	Kind        string       `json:"kind"`
	Metric      string       `json:"metric,omitempty"`
	Numerator   []string     `json:"numerator,omitempty"`
	Denominator []string     `json:"denominator,omitempty"`
	Quantile    float64      `json:"quantile,omitempty"`
	Op          string       `json:"op"`
	Value       float64      `json:"value"`
	Window      RuleDuration `json:"window,omitempty"`
	For         RuleDuration `json:"for,omitempty"`
	MinCount    float64      `json:"min_count,omitempty"`
	// Disabled drops the rule — the way a rules file turns off one of
	// the defaults by redefining it by name.
	Disabled bool `json:"disabled,omitempty"`
}

func (r AlertRule) validate() error {
	switch r.Kind {
	case "threshold", "increase", "rate", "quantile":
		if r.Metric == "" {
			return fmt.Errorf("alert rule %q: kind %s needs a metric", r.Name, r.Kind)
		}
	case "ratio":
		if len(r.Numerator) == 0 || len(r.Denominator) == 0 {
			return fmt.Errorf("alert rule %q: kind ratio needs numerator and denominator metrics", r.Name)
		}
	default:
		return fmt.Errorf("alert rule %q: unknown kind %q", r.Name, r.Kind)
	}
	switch r.Op {
	case "<", "<=", ">", ">=":
	default:
		return fmt.Errorf("alert rule %q: unknown op %q", r.Name, r.Op)
	}
	if r.Name == "" {
		return fmt.Errorf("alert rule: missing name")
	}
	if r.Kind == "quantile" && (r.Quantile <= 0 || r.Quantile >= 1) {
		return fmt.Errorf("alert rule %q: quantile must be in (0, 1)", r.Name)
	}
	return nil
}

// DefaultAlertRules are the SLOs every telemetry-enabled daemon watches
// out of the box. Fleet-only series (member up, shard retries) simply
// never match on a single daemon, so the rules are harmless everywhere.
func DefaultAlertRules() []AlertRule {
	return []AlertRule{
		{
			Name:        "worker_down",
			Description: "The coordinator's /metrics scrape of a fleet member is failing.",
			Severity:    "critical",
			Kind:        "threshold", Metric: "wt_fleet_member_up",
			Op: "<", Value: 1,
		},
		{
			Name:        "queue_depth_sustained",
			Description: "Design points have been queuing for a pool slot for a sustained period.",
			Severity:    "warning",
			Kind:        "threshold", Metric: "wt_pool_queue_depth",
			Op: ">", Value: 16, For: RuleDuration(10 * time.Second),
		},
		{
			Name:        "cache_hit_ratio_collapse",
			Description: "The trial cache is missing almost everything — repeated sweeps should mostly hit.",
			Severity:    "warning",
			Kind:        "ratio",
			// wt_cache_hits_total already counts a hit in any tier; the disk
			// and peer counters are subsets of it.
			Numerator:   []string{"wt_cache_hits_total"},
			Denominator: []string{"wt_cache_hits_total", "wt_cache_misses_total"},
			Op:          "<", Value: 0.1,
			Window: RuleDuration(60 * time.Second), MinCount: 20,
		},
		{
			Name:        "journal_fsync_slow",
			Description: "Journal batch flush (write + fsync) p99 latency is above 50ms — every durable stream line waits at least that long to become visible.",
			Severity:    "warning",
			Kind:        "quantile", Metric: "wt_journal_fsync_seconds", Quantile: 0.99,
			Op: ">", Value: 0.05, Window: RuleDuration(60 * time.Second),
		},
		{
			Name:        "degraded_jobs",
			Description: "A job degraded to coordinator-local execution after exhausting shard failover.",
			Severity:    "critical",
			Kind:        "increase", Metric: "wt_fleet_degraded_jobs_total",
			Op: ">", Value: 0, Window: RuleDuration(5 * time.Minute),
		},
		{
			Name:        "failover_burst",
			Description: "Shard failovers are happening in bursts — workers are flapping under the coordinator.",
			Severity:    "warning",
			Kind:        "increase", Metric: "wt_fleet_shard_retries_total",
			Op: ">", Value: 3, Window: RuleDuration(60 * time.Second),
		},
	}
}

// LoadAlertRules reads a rules file (a JSON array of AlertRule) and
// merges it over the defaults: a rule whose name matches a default
// replaces it (or removes it, with "disabled": true); other rules are
// appended.
func LoadAlertRules(path string) ([]AlertRule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var user []AlertRule
	if err := json.Unmarshal(data, &user); err != nil {
		return nil, fmt.Errorf("alert rules %s: %w", path, err)
	}
	return MergeAlertRules(DefaultAlertRules(), user)
}

// MergeAlertRules overlays user rules on base by name and validates the
// result.
func MergeAlertRules(base, user []AlertRule) ([]AlertRule, error) {
	byName := make(map[string]int, len(base))
	out := append([]AlertRule(nil), base...)
	for i, r := range out {
		byName[r.Name] = i
	}
	for _, r := range user {
		if i, ok := byName[r.Name]; ok {
			out[i] = r
		} else {
			byName[r.Name] = len(out)
			out = append(out, r)
		}
	}
	kept := out[:0]
	for _, r := range out {
		if r.Disabled {
			continue
		}
		if err := r.validate(); err != nil {
			return nil, err
		}
		kept = append(kept, r)
	}
	return kept, nil
}

// AlertState is an alert instance's lifecycle phase.
type AlertState string

const (
	// AlertPending: the condition holds but has not yet held for the
	// rule's For duration.
	AlertPending AlertState = "pending"
	// AlertFiring: the condition has held for at least For.
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

// alertEngine evaluates the rules over one History on a fixed interval.
type alertEngine struct {
	hist     *obs.History
	rules    []AlertRule
	interval time.Duration
	logf     func(format string, args ...any)

	mu     sync.Mutex
	active map[string]*alertInstance // key: rule name + labels
	now    func() time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// startAlertEngine launches the evaluation loop (interval <= 0 =
// obs.DefaultSampleInterval, matching the sampler so "2 evaluation
// intervals" and "2 samples" are the same clock).
func startAlertEngine(hist *obs.History, rules []AlertRule, interval time.Duration) *alertEngine {
	if interval <= 0 {
		interval = obs.DefaultSampleInterval
	}
	e := &alertEngine{
		hist:     hist,
		rules:    rules,
		interval: interval,
		logf:     log.Printf,
		active:   make(map[string]*alertInstance),
		now:      time.Now,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go func() {
		defer close(e.done)
		ticker := time.NewTicker(e.interval)
		defer ticker.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-ticker.C:
				e.evaluate()
			}
		}
	}()
	return e
}

// Stop ends the evaluation loop (idempotent) and waits for it.
func (e *alertEngine) Stop() {
	if e == nil {
		return
	}
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
}

// Snapshot returns the current alert set, firing first, then pending,
// then resolved, stably ordered within each state.
func (e *alertEngine) Snapshot() AlertsResponse {
	resp := AlertsResponse{Alerts: []Alert{}}
	if e == nil {
		return resp
	}
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
	if e == nil {
		return 0
	}
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

// evaluate runs one evaluation round over every rule.
func (e *alertEngine) evaluate() {
	now := e.now()
	for _, rule := range e.rules {
		e.apply(rule, e.eval(rule, now), now)
	}
}

// eval computes a rule's current value per matching series label set.
func (e *alertEngine) eval(rule AlertRule, now time.Time) map[string]float64 {
	window := time.Duration(rule.Window)
	if window <= 0 {
		window = time.Minute
	}
	out := make(map[string]float64)
	switch rule.Kind {
	case "threshold":
		for _, v := range e.hist.Latest(rule.Metric) {
			out[v.Labels] = v.V
		}
	case "increase":
		for _, d := range e.hist.Increase(rule.Metric, window, now) {
			out[d.Labels] = d.Delta
		}
	case "rate":
		for _, d := range e.hist.Increase(rule.Metric, window, now) {
			out[d.Labels] = d.PerSec()
		}
	case "quantile":
		for _, v := range e.hist.QuantileOver(rule.Metric, rule.Quantile, window, now) {
			out[v.Labels] = v.V
		}
	case "ratio":
		num := make(map[string]float64)
		den := make(map[string]float64)
		for _, m := range rule.Numerator {
			for _, d := range e.hist.Increase(m, window, now) {
				num[d.Labels] += d.Delta
			}
		}
		for _, m := range rule.Denominator {
			for _, d := range e.hist.Increase(m, window, now) {
				den[d.Labels] += d.Delta
			}
		}
		for labels, dv := range den {
			if dv < rule.MinCount || dv <= 0 {
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
func (e *alertEngine) apply(rule AlertRule, values map[string]float64, now time.Time) {
	severity := rule.Severity
	if severity == "" {
		severity = "warning"
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := make(map[string]bool, len(values))
	for labels, v := range values {
		key := rule.Name + labels
		seen[key] = true
		inst := e.active[key]
		holds := compare(rule.Op, v, rule.Value)
		switch {
		case holds && inst == nil,
			holds && inst.State == AlertResolved:
			inst = &alertInstance{
				Alert: Alert{
					Rule: rule.Name, Severity: severity, Description: rule.Description,
					Labels: labels, State: AlertPending, Value: v, Since: now,
				},
				condSince: now,
			}
			e.active[key] = inst
			if rule.For <= 0 {
				inst.State, inst.ResolvedAt = AlertFiring, time.Time{}
				e.transition(inst, "inactive", AlertFiring)
			} else {
				e.transition(inst, "inactive", AlertPending)
			}
		case holds:
			inst.Value = v
			if inst.State == AlertPending && now.Sub(inst.condSince) >= time.Duration(rule.For) {
				inst.State, inst.Since = AlertFiring, now
				e.transition(inst, AlertPending, AlertFiring)
			}
		case inst == nil:
			// Condition clear and no instance: nothing to do.
		case inst.State == AlertPending:
			// The condition let go before For elapsed: not an incident,
			// just noise — drop back to inactive silently-ish.
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
		if inst.Rule != rule.Name || seen[key] {
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

package service

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// testEngine builds an alertEngine over rules with a controllable clock,
// so tests drive evaluate() round by round.
func testEngine(hist *obs.History, rules []alertRule) (*alertEngine, *time.Time, *[]string) {
	clock := time.Unix(1700000000, 0)
	var logs []string
	e := newAlertEngine(hist)
	e.rules = rules
	e.logf = func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	return e, &clock, &logs
}

func ingestGauge(h *obs.History, name string, v float64, instance string, t time.Time) {
	h.Ingest([]obs.FamilySnapshot{{
		Name: name, Type: "gauge",
		Samples: []obs.SeriesSample{{Value: v}},
	}}, instance, t)
}

// TestAlertThresholdImmediateFire: a hold-less threshold rule fires on
// the first evaluation where the condition holds, resolves when it
// clears, and re-fires on the next violation — logging each transition.
func TestAlertThresholdImmediateFire(t *testing.T) {
	h := obs.NewHistory(16)
	rule := alertRule{name: "down", kind: "threshold", metric: "wt_fleet_member_up", op: "<", value: 1, severity: "critical"}
	e, clock, logs := testEngine(h, []alertRule{rule})

	ingestGauge(h, "wt_fleet_member_up", 1, "w1", *clock)
	e.evaluate(*clock)
	if got := e.Snapshot(); got.Firing != 0 || len(got.Alerts) != 0 {
		t.Fatalf("healthy member raised %+v", got)
	}

	*clock = clock.Add(time.Second)
	ingestGauge(h, "wt_fleet_member_up", 0, "w1", *clock)
	e.evaluate(*clock)
	snap := e.Snapshot()
	if snap.Firing != 1 || len(snap.Alerts) != 1 || snap.Alerts[0].State != AlertFiring {
		t.Fatalf("want one firing alert, got %+v", snap)
	}
	if a := snap.Alerts[0]; a.Rule != "down" || a.Severity != "critical" || !strings.Contains(a.Labels, "w1") {
		t.Fatalf("alert fields wrong: %+v", a)
	}
	if e.FiringCount() != 1 {
		t.Fatalf("firing count %d", e.FiringCount())
	}

	*clock = clock.Add(time.Second)
	ingestGauge(h, "wt_fleet_member_up", 1, "w1", *clock)
	e.evaluate(*clock)
	snap = e.Snapshot()
	if snap.Firing != 0 || len(snap.Alerts) != 1 || snap.Alerts[0].State != AlertResolved {
		t.Fatalf("want resolved paper trail, got %+v", snap)
	}
	if snap.Alerts[0].ResolvedAt.IsZero() {
		t.Fatal("resolved alert has no resolved_at")
	}

	// Re-violation starts a fresh incident.
	*clock = clock.Add(time.Second)
	ingestGauge(h, "wt_fleet_member_up", 0, "w1", *clock)
	e.evaluate(*clock)
	if snap := e.Snapshot(); snap.Firing != 1 {
		t.Fatalf("re-violation did not re-fire: %+v", snap)
	}

	// A resolved alert that fires again comes from resolved, not inactive.
	wantLogs := []string{"from=inactive to=firing", "from=firing to=resolved", "from=resolved to=firing"}
	if len(*logs) != len(wantLogs) {
		t.Fatalf("want %d transition logs, got %v", len(wantLogs), *logs)
	}
	for i, want := range wantLogs {
		if !strings.Contains((*logs)[i], want) || !strings.Contains((*logs)[i], "rule=down") {
			t.Fatalf("log %d = %q, want it to contain %q", i, (*logs)[i], want)
		}
	}
}

// TestAlertPendingHoldsForDuration: a rule with a hold walks
// inactive → pending → firing only after the condition holds
// continuously, and drops back to inactive if it lets go early.
func TestAlertPendingHoldsForDuration(t *testing.T) {
	h := obs.NewHistory(64)
	rule := alertRule{name: "queue", kind: "threshold", metric: "wt_pool_queue_depth",
		op: ">", value: 16, hold: 10 * time.Second}
	e, clock, _ := testEngine(h, []alertRule{rule})

	ingestGauge(h, "wt_pool_queue_depth", 20, "", *clock)
	e.evaluate(*clock)
	if snap := e.Snapshot(); snap.Pending != 1 || snap.Firing != 0 {
		t.Fatalf("first violation should be pending: %+v", snap)
	}

	// Condition lets go before the hold: back to inactive, nothing listed.
	*clock = clock.Add(5 * time.Second)
	ingestGauge(h, "wt_pool_queue_depth", 3, "", *clock)
	e.evaluate(*clock)
	if snap := e.Snapshot(); len(snap.Alerts) != 0 {
		t.Fatalf("early recovery should clear the pending alert: %+v", snap)
	}

	// Holds past the hold: pending, then firing.
	*clock = clock.Add(time.Second)
	ingestGauge(h, "wt_pool_queue_depth", 30, "", *clock)
	e.evaluate(*clock)
	*clock = clock.Add(11 * time.Second)
	ingestGauge(h, "wt_pool_queue_depth", 31, "", *clock)
	e.evaluate(*clock)
	snap := e.Snapshot()
	if snap.Firing != 1 || snap.Alerts[0].Value != 31 {
		t.Fatalf("sustained violation should fire with the latest value: %+v", snap)
	}
}

// TestAlertRatioMinCount: the ratio kind divides summed increases and
// stays silent below the activity floor — a cache that served nothing
// has no hit ratio to collapse.
func TestAlertRatioMinCount(t *testing.T) {
	h := obs.NewHistory(64)
	rule := alertRule{name: "cache", kind: "ratio",
		numerator:   []string{"wt_cache_hits_total"},
		denominator: []string{"wt_cache_hits_total", "wt_cache_misses_total"},
		op:          "<", value: 0.1, window: time.Minute, minCount: 20}
	e, clock, _ := testEngine(h, []alertRule{rule})

	ingest := func(hits, disk, misses float64) {
		h.Ingest([]obs.FamilySnapshot{
			{Name: "wt_cache_hits_total", Type: "counter", Samples: []obs.SeriesSample{{Value: hits}}},
			{Name: "wt_cache_disk_hits_total", Type: "counter", Samples: []obs.SeriesSample{{Value: disk}}},
			{Name: "wt_cache_misses_total", Type: "counter", Samples: []obs.SeriesSample{{Value: misses}}},
		}, "w1", *clock)
	}

	// Below the activity floor: 10 misses in the window, minCount 20.
	ingest(0, 0, 0)
	*clock = clock.Add(10 * time.Second)
	ingest(0, 0, 10)
	e.evaluate(*clock)
	if snap := e.Snapshot(); len(snap.Alerts) != 0 {
		t.Fatalf("ratio below minCount activity should not alert: %+v", snap)
	}

	// Plenty of traffic, 2% hit ratio: fires.
	*clock = clock.Add(10 * time.Second)
	ingest(2, 1, 108) // one of the two hits came off disk: num 2, den 110
	e.evaluate(*clock)
	snap := e.Snapshot()
	if snap.Firing != 1 {
		t.Fatalf("collapsed ratio should fire: %+v", snap)
	}
	if v := snap.Alerts[0].Value; v < 0.017 || v > 0.019 {
		t.Fatalf("ratio value %v, want ~2/110", v)
	}

	// Healthy ratio: resolves.
	*clock = clock.Add(10 * time.Second)
	ingest(102, 1, 108)
	e.evaluate(*clock)
	if snap := e.Snapshot(); snap.Firing != 0 || snap.Alerts[0].State != AlertResolved {
		t.Fatalf("recovered ratio should resolve: %+v", snap)
	}
}

// TestAlertSeriesDisappearance: a firing alert whose series stops
// reporting resolves (no data is not a held condition), and a pending
// one is dropped.
func TestAlertSeriesDisappearance(t *testing.T) {
	h := obs.NewHistory(4)
	rules := []alertRule{
		{name: "inc", kind: "increase", metric: "wt_x_total", op: ">", value: 0, window: 20 * time.Second},
	}
	e, clock, _ := testEngine(h, rules)

	ingest := func(v float64) {
		h.Ingest([]obs.FamilySnapshot{{Name: "wt_x_total", Type: "counter",
			Samples: []obs.SeriesSample{{Value: v}}}}, "w1", *clock)
	}
	ingest(0)
	*clock = clock.Add(5 * time.Second)
	ingest(4)
	e.evaluate(*clock)
	if snap := e.Snapshot(); snap.Firing != 1 {
		t.Fatalf("increase rule should fire: %+v", snap)
	}

	// The window slides past all samples: the series vanishes from the
	// evaluation and the alert resolves rather than firing forever.
	*clock = clock.Add(time.Hour)
	e.evaluate(*clock)
	if snap := e.Snapshot(); snap.Firing != 0 || snap.Alerts[0].State != AlertResolved {
		t.Fatalf("vanished series should resolve the alert: %+v", snap)
	}
}

// TestAlertQuantileRule: the quantile kind estimates over the window's
// bucket increases — a latency regression fires it, recovery resolves.
func TestAlertQuantileRule(t *testing.T) {
	h := obs.NewHistory(64)
	reg := obs.NewRegistry()
	hist := reg.Histogram("wt_journal_fsync_seconds", "Fsync.", obs.DurationBuckets)
	rule := alertRule{name: "fsync", kind: "quantile", metric: "wt_journal_fsync_seconds",
		quantile: 0.99, op: ">", value: 0.05, window: time.Minute}
	e, clock, _ := testEngine(h, []alertRule{rule})

	h.Ingest(reg.Snapshot(), "w1", *clock)
	for i := 0; i < 100; i++ {
		hist.Observe(0.2) // all observations land above the 50ms SLO
	}
	*clock = clock.Add(10 * time.Second)
	h.Ingest(reg.Snapshot(), "w1", *clock)
	e.evaluate(*clock)
	if snap := e.Snapshot(); snap.Firing != 1 {
		t.Fatalf("slow fsync p99 should fire: %+v", snap)
	}
}

// TestAlertRulesReadRegisteredMetrics: every metric a rule names —
// its metric, numerators and denominators — is a family a coordinator
// with telemetry registers (or, for wt_fleet_member_up, synthesizes each
// round), of the type its kind reads; and every kind, comparison,
// severity, quantile and window is one the engine knows. A misspelt name would
// leave a rule silently matching nothing.
func TestAlertRulesReadRegisteredMetrics(t *testing.T) {
	srv, err := New(Config{PoolSize: 1, Coordinator: true, Peers: []string{"http://w1.invalid"}, HistoryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	types := map[string]string{memberUpFamily: "gauge"}
	for _, f := range srv.tel.reg.Snapshot() {
		types[f.Name] = f.Type
	}
	reads := map[string]string{"threshold": "gauge", "increase": "counter", "quantile": "histogram", "ratio": "counter"}
	for _, r := range alertRules {
		want, known := reads[r.kind]
		if !known {
			t.Errorf("rule %s: unknown kind %q", r.name, r.kind)
		}
		metrics := append(append([]string(nil), r.numerator...), r.denominator...)
		if r.metric != "" {
			metrics = append(metrics, r.metric)
		}
		if len(metrics) == 0 || (r.kind == "ratio") != (r.metric == "") {
			t.Errorf("rule %s: kind %s names metric %q, numerator %v, denominator %v", r.name, r.kind, r.metric, r.numerator, r.denominator)
		}
		for _, m := range metrics {
			if got := types[m]; got != want {
				t.Errorf("rule %s reads %s as a %s, but a coordinator has it as %q", r.name, m, want, got)
			}
		}
		if !slices.Contains([]string{"<", "<=", ">", ">="}, r.op) || !slices.Contains([]string{"warning", "critical"}, r.severity) {
			t.Errorf("rule %s: op %q, severity %q", r.name, r.op, r.severity)
		}
		if (r.kind == "quantile") != (r.quantile > 0 && r.quantile < 1) || (r.kind == "threshold") != (r.window == 0) {
			t.Errorf("rule %s: kind %s with quantile %v over window %v", r.name, r.kind, r.quantile, r.window)
		}
	}
}

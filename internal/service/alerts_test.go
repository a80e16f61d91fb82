package service

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// testEngine builds an alertEngine with no background goroutine and a
// controllable clock, so tests drive evaluate() round by round.
func testEngine(hist *obs.History, rules []AlertRule) (*alertEngine, *time.Time, *[]string) {
	clock := time.Unix(1700000000, 0)
	var logs []string
	e := &alertEngine{
		hist:   hist,
		rules:  rules,
		active: make(map[string]*alertInstance),
		now:    func() time.Time { return clock },
		logf: func(format string, args ...any) {
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	}
	return e, &clock, &logs
}

func ingestGauge(h *obs.History, name string, v float64, instance string, t time.Time) {
	h.Ingest([]obs.FamilySnapshot{{
		Name: name, Type: "gauge",
		Samples: []obs.SeriesSample{{Value: v}},
	}}, instance, t)
}

// TestAlertThresholdImmediateFire: a For-less threshold rule fires on
// the first evaluation where the condition holds, resolves when it
// clears, and re-fires on the next violation — logging each transition.
func TestAlertThresholdImmediateFire(t *testing.T) {
	h := obs.NewHistory(16)
	rule := AlertRule{Name: "down", Kind: "threshold", Metric: "wt_fleet_member_up", Op: "<", Value: 1, Severity: "critical"}
	e, clock, logs := testEngine(h, []AlertRule{rule})

	ingestGauge(h, "wt_fleet_member_up", 1, "w1", *clock)
	e.evaluate()
	if got := e.Snapshot(); got.Firing != 0 || len(got.Alerts) != 0 {
		t.Fatalf("healthy member raised %+v", got)
	}

	*clock = clock.Add(time.Second)
	ingestGauge(h, "wt_fleet_member_up", 0, "w1", *clock)
	e.evaluate()
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
	e.evaluate()
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
	e.evaluate()
	if snap := e.Snapshot(); snap.Firing != 1 {
		t.Fatalf("re-violation did not re-fire: %+v", snap)
	}

	wantLogs := []string{"to=firing", "to=resolved", "to=firing"}
	if len(*logs) != len(wantLogs) {
		t.Fatalf("want %d transition logs, got %v", len(wantLogs), *logs)
	}
	for i, want := range wantLogs {
		if !strings.Contains((*logs)[i], want) || !strings.Contains((*logs)[i], "rule=down") {
			t.Fatalf("log %d = %q, want it to contain %q", i, (*logs)[i], want)
		}
	}
}

// TestAlertPendingHoldsForDuration: a rule with For walks
// inactive → pending → firing only after the condition holds
// continuously, and drops back to inactive if it lets go early.
func TestAlertPendingHoldsForDuration(t *testing.T) {
	h := obs.NewHistory(64)
	rule := AlertRule{Name: "queue", Kind: "threshold", Metric: "wt_pool_queue_depth",
		Op: ">", Value: 16, For: RuleDuration(10 * time.Second)}
	e, clock, _ := testEngine(h, []AlertRule{rule})

	ingestGauge(h, "wt_pool_queue_depth", 20, "", *clock)
	e.evaluate()
	if snap := e.Snapshot(); snap.Pending != 1 || snap.Firing != 0 {
		t.Fatalf("first violation should be pending: %+v", snap)
	}

	// Condition lets go before For: back to inactive, nothing listed.
	*clock = clock.Add(5 * time.Second)
	ingestGauge(h, "wt_pool_queue_depth", 3, "", *clock)
	e.evaluate()
	if snap := e.Snapshot(); len(snap.Alerts) != 0 {
		t.Fatalf("early recovery should clear the pending alert: %+v", snap)
	}

	// Holds past For: pending, then firing.
	*clock = clock.Add(time.Second)
	ingestGauge(h, "wt_pool_queue_depth", 30, "", *clock)
	e.evaluate()
	*clock = clock.Add(11 * time.Second)
	ingestGauge(h, "wt_pool_queue_depth", 31, "", *clock)
	e.evaluate()
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
	rule := AlertRule{Name: "cache", Kind: "ratio",
		Numerator:   []string{"wt_cache_hits_total"},
		Denominator: []string{"wt_cache_hits_total", "wt_cache_misses_total"},
		Op:          "<", Value: 0.1, Window: RuleDuration(time.Minute), MinCount: 20}
	e, clock, _ := testEngine(h, []AlertRule{rule})

	ingest := func(hits, disk, misses float64) {
		h.Ingest([]obs.FamilySnapshot{
			{Name: "wt_cache_hits_total", Type: "counter", Samples: []obs.SeriesSample{{Value: hits}}},
			{Name: "wt_cache_disk_hits_total", Type: "counter", Samples: []obs.SeriesSample{{Value: disk}}},
			{Name: "wt_cache_misses_total", Type: "counter", Samples: []obs.SeriesSample{{Value: misses}}},
		}, "w1", *clock)
	}

	// Below the activity floor: 10 misses in the window, MinCount 20.
	ingest(0, 0, 0)
	*clock = clock.Add(10 * time.Second)
	ingest(0, 0, 10)
	e.evaluate()
	if snap := e.Snapshot(); len(snap.Alerts) != 0 {
		t.Fatalf("ratio below MinCount activity should not alert: %+v", snap)
	}

	// Plenty of traffic, 2% hit ratio: fires.
	*clock = clock.Add(10 * time.Second)
	ingest(2, 1, 108) // one of the two hits came off disk: num 2, den 110
	e.evaluate()
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
	e.evaluate()
	if snap := e.Snapshot(); snap.Firing != 0 || snap.Alerts[0].State != AlertResolved {
		t.Fatalf("recovered ratio should resolve: %+v", snap)
	}
}

// TestAlertSeriesDisappearance: a firing alert whose series stops
// reporting resolves (no data is not a held condition), and a pending
// one is dropped.
func TestAlertSeriesDisappearance(t *testing.T) {
	h := obs.NewHistory(4)
	rules := []AlertRule{
		{Name: "inc", Kind: "increase", Metric: "wt_x_total", Op: ">", Value: 0, Window: RuleDuration(20 * time.Second)},
	}
	e, clock, _ := testEngine(h, rules)

	ingest := func(v float64) {
		h.Ingest([]obs.FamilySnapshot{{Name: "wt_x_total", Type: "counter",
			Samples: []obs.SeriesSample{{Value: v}}}}, "w1", *clock)
	}
	ingest(0)
	*clock = clock.Add(5 * time.Second)
	ingest(4)
	e.evaluate()
	if snap := e.Snapshot(); snap.Firing != 1 {
		t.Fatalf("increase rule should fire: %+v", snap)
	}

	// The window slides past all samples: the series vanishes from the
	// evaluation and the alert resolves rather than firing forever.
	*clock = clock.Add(time.Hour)
	e.evaluate()
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
	rule := AlertRule{Name: "fsync", Kind: "quantile", Metric: "wt_journal_fsync_seconds",
		Quantile: 0.99, Op: ">", Value: 0.05, Window: RuleDuration(time.Minute)}
	e, clock, _ := testEngine(h, []AlertRule{rule})

	h.Ingest(reg.Snapshot(), "w1", *clock)
	for i := 0; i < 100; i++ {
		hist.Observe(0.2) // all observations land above the 50ms SLO
	}
	*clock = clock.Add(10 * time.Second)
	h.Ingest(reg.Snapshot(), "w1", *clock)
	e.evaluate()
	if snap := e.Snapshot(); snap.Firing != 1 {
		t.Fatalf("slow fsync p99 should fire: %+v", snap)
	}
}

// TestMergeAlertRules: user rules override defaults by name, append
// otherwise, and disabled drops a rule; invalid rules are rejected.
func TestMergeAlertRules(t *testing.T) {
	merged, err := MergeAlertRules(DefaultAlertRules(), []AlertRule{
		{Name: "worker_down", Disabled: true},
		{Name: "queue_depth_sustained", Kind: "threshold", Metric: "wt_pool_queue_depth", Op: ">", Value: 64},
		{Name: "custom", Kind: "rate", Metric: "wt_points_committed_total", Op: "<", Value: 1, Window: RuleDuration(time.Minute)},
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AlertRule{}
	for _, r := range merged {
		byName[r.Name] = r
	}
	if _, ok := byName["worker_down"]; ok {
		t.Fatal("disabled default survived the merge")
	}
	if got := byName["queue_depth_sustained"].Value; got != 64 {
		t.Fatalf("override lost: threshold %v, want 64", got)
	}
	if _, ok := byName["custom"]; !ok {
		t.Fatal("appended rule missing")
	}
	if _, ok := byName["journal_fsync_slow"]; !ok {
		t.Fatal("untouched default missing")
	}

	if _, err := MergeAlertRules(nil, []AlertRule{{Name: "bad", Kind: "nope", Op: ">"}}); err == nil {
		t.Fatal("invalid kind accepted")
	}
	if _, err := MergeAlertRules(nil, []AlertRule{{Name: "bad", Kind: "threshold", Metric: "m", Op: "~"}}); err == nil {
		t.Fatal("invalid op accepted")
	}
	if _, err := MergeAlertRules(nil, []AlertRule{{Name: "bad", Kind: "ratio", Op: ">"}}); err == nil {
		t.Fatal("ratio without operands accepted")
	}
}

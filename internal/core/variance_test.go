package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/design"
	"repro/internal/dist"
	"repro/internal/sla"
	"repro/internal/stats"
	"repro/internal/storage"
)

// rareScenario is a high-availability, short-horizon configuration
// where quorum-loss windows are rare enough that plain Monte Carlo
// wastes most of its trials observing nothing — the §4.2 target case
// for failure biasing. (Over long horizons with many failure cycles the
// compounding likelihood ratio degenerates and biasing stops paying;
// the bias knob is for mission-time questions like this one.)
func rareScenario() Scenario {
	sc := quickScenario()
	sc.Cluster.NodeTTF = dist.Must(dist.ExpMean(5000))
	sc.HorizonHours = 300
	return sc
}

// monotoneScenario is a single-copy configuration whose unavailability
// is (to first order) the total node downtime — monotone in the failure
// draws, the regime where antithetic mirroring anti-correlates pairs.
// (Quorum scenarios respond to failure overlaps, which are not monotone
// in individual draws, and pairing is roughly neutral there.)
func monotoneScenario() Scenario {
	sc := quickScenario()
	sc.Scheme = storage.ReplicationScheme(1)
	return sc
}

// TestCRNPairingDeterminism pins the common-random-numbers contract:
// with CRN keying, the failure draws of a trial are a pure function of
// (seed, trial, stream name), so two design points that differ only in
// a software knob (placement here) see byte-identical node failure
// trajectories, and the whole run is Workers-independent.
func TestCRNPairingDeterminism(t *testing.T) {
	a := quickScenario()
	a.Placement = "random"
	b := quickScenario()
	b.Placement = "roundrobin"

	ra, err := Runner{Trials: 4, CRN: true}.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Runner{Trials: 4, CRN: true}.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Metrics["node_failures"] != rb.Metrics["node_failures"] {
		t.Errorf("CRN pairing broken: node_failures %v vs %v across placements",
			ra.Metrics["node_failures"], rb.Metrics["node_failures"])
	}

	par, err := Runner{Trials: 4, CRN: true, Workers: 4}.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"availability", "node_failures", "repairs", "events"} {
		if ra.Metrics[m] != par.Metrics[m] {
			t.Errorf("CRN run depends on Workers: %s %v vs %v", m, ra.Metrics[m], par.Metrics[m])
		}
	}
}

// TestAntitheticUnbiased checks the §4.2 unbiasedness property: the
// antithetic estimate of availability agrees with plain Monte Carlo
// within their combined confidence intervals.
func TestAntitheticUnbiased(t *testing.T) {
	sc := quickScenario()
	plain, err := Runner{Trials: 48}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	anti, err := Runner{Trials: 48, Antithetic: true}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(plain.Metrics["availability"] - anti.Metrics["availability"])
	budget := plain.CI["availability"] + anti.CI["availability"]
	if diff > budget {
		t.Errorf("antithetic mean %v vs plain %v: |diff| %v exceeds CI budget %v",
			anti.Metrics["availability"], plain.Metrics["availability"], diff, budget)
	}
	if anti.Trials != 48 {
		t.Errorf("antithetic raw trials = %d, want 48", anti.Trials)
	}
}

// TestAntitheticTightensCI checks that pairing actually buys variance
// reduction in its regime: on the monotone-response workload, at equal
// raw trials, the paired CI must be strictly tighter than the plain CI
// (the run is fully deterministic, so this is a pinned property, not a
// flaky statistical test; measured reduction is ~30% in CI, i.e. ~2x in
// trials to a fixed target).
func TestAntitheticTightensCI(t *testing.T) {
	sc := monotoneScenario()
	plain, err := Runner{Trials: 128}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	anti, err := Runner{Trials: 128, Antithetic: true}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if anti.CI["availability"] >= plain.CI["availability"] {
		t.Errorf("antithetic CI %v not tighter than plain %v",
			anti.CI["availability"], plain.CI["availability"])
	}
}

// TestAntitheticIntervalIsOverPairMeans: an antithetic run of 2m trials
// reports 2m trials, and its availability mean and interval are
// stats.Welford's over the m pair means computed here by hand, one trial
// at a time — m − 1 degrees of freedom, not the 2m − 1 of the raw trials.
func TestAntitheticIntervalIsOverPairMeans(t *testing.T) {
	const m = 16
	sc := monotoneScenario()
	r := Runner{Trials: 2 * m, Antithetic: true, Workers: 1}
	res, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 2*m {
		t.Fatalf("an antithetic run of %d trials reports %d", 2*m, res.Trials)
	}

	var world worldKey
	walkKeys(&sc, &r, nil, &world)
	w := worlds.take(world, r, sc)
	defer worlds.give(w)
	var pairs, raw stats.Welford
	for k := uint64(0); k < m; k++ {
		even, odd := w.run(context.Background(), 2*k), w.run(context.Background(), 2*k+1)
		if even.err != nil || odd.err != nil {
			t.Fatal(even.err, odd.err)
		}
		pairs.Add((even.availability + odd.availability) / 2)
		raw.Add(even.availability)
		raw.Add(odd.availability)
	}
	if got, want := res.Metrics["availability"], pairs.Mean(); got != want {
		t.Errorf("availability %.17g, the mean of the %d pair means is %.17g", got, m, want)
	}
	if got, want := res.CI["availability"], pairs.CI(0.05); got != want || want == 0 {
		t.Errorf("availability half-width %.17g, Welford's over the %d pair means is %.17g", got, m, want)
	}
	if res.CI["availability"] == raw.CI(0.05) {
		t.Errorf("the half-width is the raw trials' %.17g, not the pair means'", raw.CI(0.05))
	}
}

// TestFailureBiasUnbiased checks the importance-sampling identity: the
// weighted availability estimate under a biased failure hazard agrees
// with plain Monte Carlo within their combined confidence intervals.
func TestFailureBiasUnbiased(t *testing.T) {
	sc := rareScenario()
	plain, err := Runner{Trials: 96}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	biased, err := Runner{Trials: 48, CRN: true, FailureBias: 3}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(plain.Metrics["availability"] - biased.Metrics["availability"])
	budget := plain.CI["availability"] + biased.CI["availability"]
	if diff > budget {
		t.Errorf("biased mean %v vs plain %v: |diff| %v exceeds CI budget %v",
			biased.Metrics["availability"], plain.Metrics["availability"], diff, budget)
	}
	if biased.Metrics["is_effective_trials"] <= float64(biased.Trials)/4 {
		t.Errorf("effective trials = %v of %d: weights degenerate",
			biased.Metrics["is_effective_trials"], biased.Trials)
	}
	if m := biased.Metrics["is_weight_mean"]; m < 0.5 || m > 2 {
		t.Errorf("mean importance weight %v far from 1: bias too aggressive", m)
	}
	// Biasing must surface more raw simulation activity per trial (the
	// weighted node_failures estimate re-normalizes to the plain mean,
	// so the raw event count is the witness that failures were forced).
	if biased.Metrics["events"] <= plain.Metrics["events"] {
		t.Errorf("bias did not increase per-trial activity: %v vs %v events",
			biased.Metrics["events"], plain.Metrics["events"])
	}
}

// TestFailureBiasResolvesRareEvents is the §4.2 rare-event showcase: at
// a trial budget where plain Monte Carlo frequently observes zero
// unavailability, the failure-biased runner produces a nonzero estimate
// that agrees with a high-trial plain reference within CIs.
func TestFailureBiasResolvesRareEvents(t *testing.T) {
	sc := rareScenario()
	sc.Cluster.NodeTTF = dist.Must(dist.ExpMean(20000))

	ref, err := Runner{Trials: 4000}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	biased, err := Runner{Trials: 200, CRN: true, FailureBias: 5}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if biased.Metrics["unavail_fraction"] <= 0 {
		t.Fatal("biased run resolved no unavailability at all")
	}
	diff := math.Abs(ref.Metrics["availability"] - biased.Metrics["availability"])
	budget := ref.CI["availability"] + biased.CI["availability"]
	if diff > budget {
		t.Errorf("biased estimate %v vs reference %v: |diff| %v exceeds CI budget %v",
			biased.Metrics["availability"], ref.Metrics["availability"], diff, budget)
	}
}

// TestVarianceReducedWorkersIndependence: all techniques combined stay
// bit-identical for any Workers count.
func TestVarianceReducedWorkersIndependence(t *testing.T) {
	sc := rareScenario()
	r1, err := Runner{Trials: 8, Workers: 1, Antithetic: true, FailureBias: 2}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Runner{Trials: 8, Workers: 4, Antithetic: true, FailureBias: 2}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"availability", "node_failures", "repairs", "events", "is_weight_mean"} {
		if r1.Metrics[m] != r4.Metrics[m] {
			t.Errorf("variance-reduced run depends on Workers: %s %.17g vs %.17g",
				m, r1.Metrics[m], r4.Metrics[m])
		}
	}
}

// screeningSpace builds a replication sweep whose points the analytic
// screen can separate: generous SLA at high replication (pass), tight
// SLA cases that must simulate, and a slow-detection configuration that
// provably fails.
func screeningSpace(t *testing.T) (*design.Space, func(p design.Point) (Scenario, []sla.SLA, error)) {
	t.Helper()
	space, err := design.NewSpace(
		design.Dimension{Name: "replicas", Values: []design.Value{1, 3, 5}, Monotone: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	target, err := sla.NewAvailability(0.9)
	if err != nil {
		t.Fatal(err)
	}
	build := func(p design.Point) (Scenario, []sla.SLA, error) {
		sc := quickScenario()
		sc.Scheme = storage.ReplicationScheme(p.MustValue("replicas").(int))
		return sc, []sla.SLA{target}, nil
	}
	return space, build
}

// TestScreeningGolden pins the screening decisions for a fixed sweep:
// decisions are a pure function of the design point, so they must be
// exactly reproducible and identical for any Workers count.
func TestScreeningGolden(t *testing.T) {
	space, build := screeningSpace(t)
	run := func(workers int) *Exploration {
		ex := &Explorer{
			Space: space, Build: build,
			Runner:  Runner{Trials: 2},
			Screen:  &ScreenRule{Margin: DefaultScreenMargin},
			Workers: workers,
		}
		res, err := ex.RunPoints(context.Background(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	// Pinned decisions for quickScenario (MTTF 500h, repair 12h,
	// detection 6h, 100 users, availability >= 0.9): replicas=5 clears
	// the union bound with 2x margin; replicas=3 and 1 are inside the
	// bracket and must simulate.
	wantScreened := map[int]ScreenDecision{5: ScreenPass}
	if seq.Screened != len(wantScreened) {
		t.Fatalf("screened %d points, want %d", seq.Screened, len(wantScreened))
	}
	for _, out := range seq.Outcomes {
		r := out.Point.MustValue("replicas").(int)
		dec, want := wantScreened[r]
		if out.Screened != want {
			t.Errorf("replicas=%d screened=%v, want %v", r, out.Screened, want)
		}
		if want && out.Decision != dec {
			t.Errorf("replicas=%d decision=%d, want %d", r, out.Decision, dec)
		}
		if out.Screened && out.Result == nil {
			t.Errorf("replicas=%d screened without a reported analytic result", r)
		}
	}
	if seq.Executed+seq.Screened+seq.Pruned != space.Size() {
		t.Errorf("executed %d + screened %d + pruned %d != %d (silent skip!)",
			seq.Executed, seq.Screened, seq.Pruned, space.Size())
	}

	par := run(4)
	if par.Screened != seq.Screened || par.Executed != seq.Executed || par.Pruned != seq.Pruned {
		t.Fatalf("screening depends on Workers: (%d,%d,%d) vs (%d,%d,%d)",
			par.Executed, par.Screened, par.Pruned, seq.Executed, seq.Screened, seq.Pruned)
	}
	for i := range seq.Outcomes {
		if seq.Outcomes[i].Screened != par.Outcomes[i].Screened ||
			seq.Outcomes[i].Decision != par.Outcomes[i].Decision {
			t.Errorf("outcome %d screening differs between Workers=1 and Workers=4", i)
		}
	}
}

// TestScreeningFailDecision checks the provably-miss direction: with a
// long detection delay even the optimistic fast-repair chain breaks a
// tight SLA, so the point fails without simulation and feeds dominance
// pruning.
func TestScreeningFailDecision(t *testing.T) {
	sc := quickScenario()
	sc.Repair.Detection = dist.Must(dist.NewDeterministic(48))
	tight, err := sla.NewAvailability(0.999)
	if err != nil {
		t.Fatal(err)
	}
	bounds, ok, err := AnalyticScreen(sc)
	if err != nil || !ok {
		t.Fatalf("screen unavailable: ok=%v err=%v", ok, err)
	}
	rule := ScreenRule{Margin: DefaultScreenMargin}
	if dec := rule.Decide(bounds, []sla.SLA{tight}); dec != ScreenFail {
		t.Fatalf("decision = %v, want fail (lower bound %v vs budget 0.001)",
			dec, bounds.ObjUnavailLower)
	}
}

// TestScreeningSkipsNonAvailabilitySLAs: a screen can fail a point on
// its availability SLA but must never PASS a point whose SLA list
// contains constraints it cannot prove.
func TestScreeningSkipsNonAvailabilitySLAs(t *testing.T) {
	sc := quickScenario()
	sc.Scheme = storage.ReplicationScheme(5)
	easy, err := sla.NewAvailability(0.9)
	if err != nil {
		t.Fatal(err)
	}
	bounds, ok, err := AnalyticScreen(sc)
	if err != nil || !ok {
		t.Fatalf("screen unavailable: ok=%v err=%v", ok, err)
	}
	rule := ScreenRule{Margin: DefaultScreenMargin}
	if dec := rule.Decide(bounds, []sla.SLA{easy}); dec != ScreenPass {
		t.Fatalf("availability-only decision = %v, want pass", dec)
	}
	// alwaysFail is an SLA the screen knows nothing of.
	if dec := rule.Decide(bounds, []sla.SLA{easy, alwaysFail{}}); dec != ScreenSimulate {
		t.Fatalf("mixed-SLA decision = %v, want simulate", dec)
	}
}

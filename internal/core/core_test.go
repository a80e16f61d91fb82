package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/design"
	"repro/internal/dist"
	"repro/internal/repair"
	"repro/internal/sla"
	"repro/internal/storage"
)

// quickScenario returns a small, fast scenario for tests.
func quickScenario() Scenario {
	sc := DefaultScenario()
	sc.Cluster.Racks = 2
	sc.Cluster.NodesPerRack = 5
	sc.Cluster.NodeTTF = dist.Must(dist.ExpMean(500))
	sc.Cluster.NodeRepair = dist.Must(dist.NewDeterministic(12))
	sc.Users = 100
	sc.ObjectSizeMB = 10
	sc.HorizonHours = 2000
	// A 6-hour detection delay leaves real windows of vulnerability, so
	// double failures produce measurable unavailability.
	sc.Repair = repair.Config{Mode: repair.Parallel, MaxConcurrent: 8,
		Detection: dist.Must(dist.NewDeterministic(6))}
	return sc
}

func TestScenarioValidate(t *testing.T) {
	if err := DefaultScenario().Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
	bad := DefaultScenario()
	bad.Users = 0
	if bad.Validate() == nil {
		t.Error("0 users accepted")
	}
	bad = DefaultScenario()
	bad.Placement = "bogus"
	if bad.Validate() == nil {
		t.Error("unknown placement accepted")
	}
	bad = DefaultScenario()
	bad.HorizonHours = 0
	if bad.Validate() == nil {
		t.Error("zero horizon accepted")
	}
}

func TestRunnerProducesMetrics(t *testing.T) {
	res, err := Runner{Trials: 4}.Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 4 {
		t.Fatalf("trials = %d, want 4", res.Trials)
	}
	for _, m := range []string{"availability", "loss_prob", "repairs", "node_failures", "events"} {
		if _, err := res.Metric(m); err != nil {
			t.Errorf("missing metric %s: %v", m, err)
		}
	}
	av := res.Metrics["availability"]
	if av <= 0 || av > 1 {
		t.Errorf("availability = %v outside (0,1]", av)
	}
	if res.Metrics["node_failures"] <= 0 {
		t.Error("no node failures simulated over 2000h with MTTF 500h")
	}
	if res.Metrics["repairs"] <= 0 {
		t.Error("no repairs completed")
	}
	if _, err := res.Metric("nope"); err == nil {
		t.Error("unknown metric did not error")
	}
}

func TestRunnerDeterministicAcrossRuns(t *testing.T) {
	a, err := Runner{Trials: 3, Workers: 1}.Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Runner{Trials: 3, Workers: 3}.Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	// Same seeds, same trials, regardless of worker parallelism.
	if math.Abs(a.Metrics["availability"]-b.Metrics["availability"]) > 1e-12 {
		t.Fatalf("parallel workers changed results: %v vs %v",
			a.Metrics["availability"], b.Metrics["availability"])
	}
}

func TestRunnerSLAVerdicts(t *testing.T) {
	impossible, err := sla.NewAvailability(1.0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Runner{Trials: 4, SLAs: []sla.SLA{impossible}}.Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) != 1 {
		t.Fatalf("verdicts = %d, want 1", len(res.Verdicts))
	}
	// With MTTF 500h on 10 nodes over 2000h there will be windows where
	// some object loses quorum; perfect availability is unreachable.
	if res.AllMet {
		t.Error("availability == 1.0 SLA reported as met")
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := (Runner{Trials: 0}).Run(quickScenario()); err == nil {
		t.Error("0 trials accepted")
	}
	bad := quickScenario()
	bad.Users = -1
	if _, err := (Runner{Trials: 1}).Run(bad); err == nil {
		t.Error("invalid scenario accepted")
	}
}

// TestCeilings: a scenario or a run sized above a ceiling is refused by
// name — by Validate, or by the Runner before it builds a world — and one
// sized exactly at it is not. Each factor alone is checked, and the
// products no single factor bounds.
func TestCeilings(t *testing.T) {
	at := func(edit func(*Scenario)) Scenario {
		sc := quickScenario()
		edit(&sc)
		return sc
	}
	for want, sc := range map[string]Scenario{
		"1001 racks x 1000 nodes per rack is over the ceiling of 1000000 nodes": at(func(sc *Scenario) { sc.Cluster.Racks, sc.Cluster.NodesPerRack = 1001, 1000 }),
		"1025 disks per node is over the ceiling of 1024":                       at(func(sc *Scenario) { sc.Cluster.DisksPerNode = 1025 }),
		"10001 nodes x 1000 disks per node is over the ceiling of 10000000": at(func(sc *Scenario) {
			sc.Cluster.Racks, sc.Cluster.NodesPerRack, sc.Cluster.DisksPerNode = 1, 10001, 1000
		}),
		"10000001 users is over the ceiling of 10000000":                       at(func(sc *Scenario) { sc.Users = MaxUsers + 1 }),
		"10000000 users x 11 shards (rs-8-3) is over the ceiling of 100000000": at(func(sc *Scenario) { sc.Users, sc.Scheme = MaxUsers, storage.RSScheme(8, 3) }),
	} {
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Validate() = %v, want %q", err, want)
		}
	}
	for _, sc := range []Scenario{
		at(func(sc *Scenario) {
			sc.Cluster.Racks, sc.Cluster.NodesPerRack, sc.Cluster.DisksPerNode = 1000, 1000, 10
		}),
		at(func(sc *Scenario) { sc.Cluster.DisksPerNode = MaxDisksPerNode }),
		at(func(sc *Scenario) { sc.Users, sc.Scheme = MaxUsers, storage.ReplicationScheme(10) }),
	} {
		if err := sc.Validate(); err != nil {
			t.Errorf("at the ceiling: %v", err)
		}
	}
	for want, run := range map[string]struct {
		trials, users int
	}{
		"10000001 trials is over the ceiling of 10000000":   {MaxTrials + 1, 1},
		"2000000000 trials is over the ceiling of 10000000": {2000000000, 100},
	} {
		sc := at(func(sc *Scenario) { sc.Users = run.users })
		if _, err := (Runner{Trials: run.trials}).Run(sc); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run with %d trials, %d users = %v, want %q", run.trials, run.users, err, want)
		}
	}
}

// TestTenantAvailabilityConsistentWithGlobal: the per-tenant aggregate
// agrees with the global one. Some tenant is unavailable at some time
// exactly when availability is below 1, and the time-averaged number of
// unavailable tenants lies between the fraction of time any was down and
// that fraction times the tenants.
func TestTenantAvailabilityConsistentWithGlobal(t *testing.T) {
	sc := quickScenario()
	res, err := Runner{Trials: 4, Workers: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	down, mean := res.Metrics["unavail_fraction"], res.Metrics["mean_unavail_objects"]
	if down <= 0 || res.Metrics["availability"] >= 1 {
		t.Fatalf("availability %v: the quick scenario no longer sees an outage", res.Metrics["availability"])
	}
	if mean < down*(1-1e-12) || mean > down*float64(sc.Users)*(1+1e-12) {
		t.Fatalf("%v tenants unavailable on average, outside [%v, %v x %d]", mean, down, down, sc.Users)
	}
	quiet := sc
	quiet.Cluster.NodeTTF = dist.Must(dist.ExpMean(1e12))
	res, err = Runner{Trials: 4, Workers: 1}.Run(quiet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["availability"] != 1 || res.Metrics["mean_unavail_objects"] != 0 {
		t.Fatalf("a failure-free run: availability %v, %v tenants unavailable on average", res.Metrics["availability"], res.Metrics["mean_unavail_objects"])
	}
}

func TestParallelRepairBeatsSerialAvailability(t *testing.T) {
	// §1's claim, end to end: with equal hardware, parallel repair yields
	// at-least-as-good availability.
	serial := quickScenario()
	serial.Repair.Mode = repair.Serial
	serial.Repair.MaxConcurrent = 0
	parallel := quickScenario()
	parallel.Repair.MaxConcurrent = 16
	rs, err := Runner{Trials: 6}.Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Runner{Trials: 6}.Run(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Metrics["repair_makespan"] > rs.Metrics["repair_makespan"] {
		t.Errorf("parallel repair makespan %v exceeds serial %v",
			rp.Metrics["repair_makespan"], rs.Metrics["repair_makespan"])
	}
}

func TestRSSchemeScenario(t *testing.T) {
	sc := quickScenario()
	sc.Scheme = storage.RSScheme(4, 2)
	res, err := Runner{Trials: 2}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["availability"] <= 0 {
		t.Error("no availability metric for RS scheme")
	}
}

// alwaysFail is an unsatisfiable SLA used to exercise pruning.
type alwaysFail struct{}

func (alwaysFail) Name() string { return "always-fail" }
func (alwaysFail) Check(sla.Result) (sla.Verdict, error) {
	return sla.Verdict{SLA: "always-fail", Met: false}, nil
}

func TestExplorerPruningSavesRuns(t *testing.T) {
	space, err := design.NewSpace(
		design.Dimension{Name: "replicas", Values: []design.Value{2, 3, 5}, Monotone: true},
		design.Dimension{Name: "placement", Values: []design.Value{"random", "roundrobin"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	build := func(p design.Point) (Scenario, []sla.SLA, error) {
		sc := quickScenario()
		sc.Scheme = storage.ReplicationScheme(p.MustValue("replicas").(int))
		sc.Placement = p.MustValue("placement").(string)
		// An unsatisfiable SLA: everything fails, forcing maximal pruning.
		return sc, []sla.SLA{alwaysFail{}}, nil
	}
	ex := &Explorer{Space: space, Build: build, Runner: Runner{Trials: 1}, Prune: true}
	res, err := ex.RunPoints(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 {
		t.Fatal("no points pruned despite universal failure")
	}
	if res.Executed+res.Pruned != space.Size() {
		t.Fatalf("executed %d + pruned %d != %d", res.Executed, res.Pruned, space.Size())
	}
	// With every run failing, best-first order means only the best point
	// per categorical slice executes: 2 placements -> 2 runs.
	if res.Executed != 2 {
		t.Fatalf("executed %d, want 2 (one per placement)", res.Executed)
	}
	if _, err := res.Best(); err == nil {
		t.Error("Best() succeeded with nothing passing")
	}
}

func TestExplorerFindsCheapestPassing(t *testing.T) {
	space, err := design.NewSpace(
		design.Dimension{Name: "replicas", Values: []design.Value{3, 5}, Monotone: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	build := func(p design.Point) (Scenario, []sla.SLA, error) {
		sc := quickScenario()
		sc.Scheme = storage.ReplicationScheme(p.MustValue("replicas").(int))
		easy, err := sla.NewAvailability(0.5)
		if err != nil {
			return Scenario{}, nil, err
		}
		return sc, []sla.SLA{easy}, nil
	}
	ex := &Explorer{
		Space: space, Build: build, Runner: Runner{Trials: 2},
		Objective: func(p design.Point, _ *RunResult) (float64, error) {
			return float64(p.MustValue("replicas").(int)), nil // replicas = cost proxy
		},
	}
	res, err := ex.RunPoints(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	best, err := res.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Point.MustValue("replicas") != 3 {
		t.Errorf("best = %v, want replicas=3 (cheapest passing)", best.Point.Key())
	}
}

func TestExplorerParallelMatchesSequential(t *testing.T) {
	space, err := design.NewSpace(
		design.Dimension{Name: "replicas", Values: []design.Value{2, 3}, Monotone: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	build := func(p design.Point) (Scenario, []sla.SLA, error) {
		sc := quickScenario()
		sc.Scheme = storage.ReplicationScheme(p.MustValue("replicas").(int))
		return sc, nil, nil
	}
	seq := &Explorer{Space: space, Build: build, Runner: Runner{Trials: 2}, Workers: 1}
	par := &Explorer{Space: space, Build: build, Runner: Runner{Trials: 2}, Workers: 4}
	rs, err := seq.RunPoints(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := par.RunPoints(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs.Outcomes {
		a := rs.Outcomes[i].Result.Metrics["availability"]
		b := rp.Outcomes[i].Result.Metrics["availability"]
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("point %d: parallel %v != sequential %v", i, b, a)
		}
	}
}

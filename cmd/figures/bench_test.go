// Benchmarks regenerating (scaled-down instances of) every figure and
// experiment in EXPERIMENTS.md, one benchmark per artifact, plus engine
// micro-benchmarks. `go test -bench=. -benchmem` runs them all; the full-
// size tables come from `go run ./cmd/figures -exp all`.
package main

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/dist"
	"repro/internal/opslog"
	"repro/internal/power"
	"repro/internal/repair"
	"repro/internal/sim"
	"repro/internal/sla"
	"repro/internal/storage"
	"repro/internal/validate"
	"repro/internal/workload"
	"repro/internal/wtql"
)

// benchScenario is a small availability scenario shared by the
// experiment benchmarks.
func benchScenario() core.Scenario {
	sc := core.DefaultScenario()
	sc.Cluster.Racks = 2
	sc.Cluster.NodesPerRack = 5
	sc.Cluster.NodeTTF = dist.Must(dist.ExpMean(500))
	sc.Cluster.NodeRepair = dist.Must(dist.NewDeterministic(12))
	sc.Users = 200
	sc.ObjectSizeMB = 32
	sc.HorizonHours = 2000
	sc.Repair.Detection = dist.Must(dist.NewDeterministic(2))
	return sc
}

// BenchmarkFigure1Random measures one Monte-Carlo Figure-1 point under
// Random placement (F1).
func BenchmarkFigure1Random(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := core.Figure1MonteCarlo(core.Figure1Config{
			N: 30, Replicas: 3, Failures: 3, Users: 10000,
			Placement: "random", Trials: 50, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1RoundRobin measures the same point under RoundRobin (F1).
func BenchmarkFigure1RoundRobin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := core.Figure1MonteCarlo(core.Figure1Config{
			N: 30, Replicas: 3, Failures: 3, Users: 10000,
			Placement: "roundrobin", Trials: 50, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Exact measures the closed-form curve (F1's overlay):
// both placements, all failure counts, N=30.
func BenchmarkFigure1Exact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for f := 0; f <= 30; f++ {
			if _, err := analytic.RandomPlacementUnavailability(30, 3, f, 10000); err != nil {
				b.Fatal(err)
			}
			if _, err := analytic.RoundRobinUnavailability(30, 5, f, 10000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRepairTradeoff measures one E1 trial (replication vs repair).
func BenchmarkRepairTradeoff(b *testing.B) {
	sc := benchScenario()
	sc.Repair.Mode = repair.Parallel
	sc.Repair.MaxConcurrent = 8
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i + 1)
		if _, err := (core.Runner{Trials: 1}).Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticError measures one E2 G/G/1-vs-M/M/1 comparison.
func BenchmarkAnalyticError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := validate.ExponentialAssumptionError(0.6, 1.5, 0.8, 1, 20000, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterference measures one E3 co-located workload run.
func BenchmarkInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New(uint64(i))
		n, err := workload.NewNodeModel(s, "n0", workload.NodeSpec{
			Cores: 8, DiskIOPS: 210, NICMBps: 1250,
		})
		if err != nil {
			b.Fatal(err)
		}
		a, err := workload.NewWorkload(s, "A", workload.Profile{
			CPU: dist.Must(dist.ExpMean(0.002)), Disk: dist.Must(dist.ExpMean(1))},
			[]*workload.NodeModel{n})
		if err != nil {
			b.Fatal(err)
		}
		bg, err := workload.NewWorkload(s, "B", workload.Profile{
			Disk: dist.Must(dist.ExpMean(4))}, []*workload.NodeModel{n})
		if err != nil {
			b.Fatal(err)
		}
		if err := a.StartOpen(dist.Must(dist.ExpMean(0.02)), 5000); err != nil {
			b.Fatal(err)
		}
		if err := bg.StartOpen(dist.Must(dist.ExpMean(0.1)), 1000); err != nil {
			b.Fatal(err)
		}
		s.RunUntil(200)
	}
}

// BenchmarkProvisioning measures one E4 provisioning point (workload sim
// plus cost estimate).
func BenchmarkProvisioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New(uint64(i))
		n, err := workload.NewNodeModel(s, "n0", workload.NodeSpec{
			Cores: 8, DiskIOPS: 210, NICMBps: 1250,
		})
		if err != nil {
			b.Fatal(err)
		}
		w, err := workload.NewWorkload(s, "kv", workload.Profile{
			CPU: dist.Must(dist.ExpMean(0.001)), Disk: dist.Must(dist.ExpMean(0.5))},
			[]*workload.NodeModel{n})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.StartOpen(dist.Must(dist.ExpMean(0.01)), 5000); err != nil {
			b.Fatal(err)
		}
		s.RunUntil(100)
		_ = w.Latencies().Quantile(0.95)
	}
}

// BenchmarkPruning measures an E5 pruned sweep over 12 configurations.
func BenchmarkPruning(b *testing.B) {
	space, err := design.NewSpace(
		design.Dimension{Name: "replicas", Values: []design.Value{2, 3, 5}, Monotone: true},
		design.Dimension{Name: "placement", Values: []design.Value{"random", "roundrobin"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	target, err := sla.NewAvailability(0.99999)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ex := &core.Explorer{
			Space: space,
			Build: func(p design.Point) (core.Scenario, []sla.SLA, error) {
				sc := benchScenario()
				sc.Seed = uint64(i + 1)
				sc.Scheme = storage.ReplicationScheme(p.MustValue("replicas").(int))
				sc.Placement = p.MustValue("placement").(string)
				return sc, []sla.SLA{target}, nil
			},
			Runner: core.Runner{Trials: 1},
			Prune:  true,
		}
		if _, err := ex.RunPoints(context.Background(), nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSweep measures a parallel (unpruned) sweep. Point-level
// scaling makes no design claim, so it has no figures artifact.
func BenchmarkParallelSweep(b *testing.B) {
	space, err := design.NewSpace(
		design.Dimension{Name: "replicas", Values: []design.Value{2, 3}},
	)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ex := &core.Explorer{
			Space: space,
			Build: func(p design.Point) (core.Scenario, []sla.SLA, error) {
				sc := benchScenario()
				sc.Seed = uint64(i + 1)
				sc.Scheme = storage.ReplicationScheme(p.MustValue("replicas").(int))
				return sc, nil, nil
			},
			Runner:  core.Runner{Trials: 1},
			Workers: 2,
		}
		if _, err := ex.RunPoints(context.Background(), nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLimpware measures one E7 degraded-NIC workload run.
func BenchmarkLimpware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New(uint64(i))
		n, err := workload.NewNodeModel(s, "n0", workload.NodeSpec{
			Cores: 8, DiskIOPS: 75000, NICMBps: 125,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := n.DegradeNIC(0.01); err != nil {
			b.Fatal(err)
		}
		w, err := workload.NewWorkload(s, "w", workload.Profile{
			Net: dist.Must(dist.ExpMean(0.1))}, []*workload.NodeModel{n})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.StartOpen(dist.Must(dist.ExpMean(0.05)), 2000); err != nil {
			b.Fatal(err)
		}
		s.RunUntil(200)
	}
}

// BenchmarkErasureVsReplication measures one E8 RS-scheme trial.
func BenchmarkErasureVsReplication(b *testing.B) {
	sc := benchScenario()
	sc.Scheme = storage.RSScheme(6, 3)
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i + 1)
		if _, err := (core.Runner{Trials: 1}).Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitting measures one E9 log-generation + fit pipeline.
func BenchmarkFitting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		events, err := opslog.Generate(opslog.GeneratorConfig{
			Components: 50, Horizon: 50000,
			TTF:    dist.Must(dist.NewWeibull(0.7, 1500)),
			Repair: dist.Must(dist.NewLogNormal(2.2, 0.9)),
			Seed:   uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := opslog.FitModels(events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidation measures one V1 M/M/1 validation run.
func BenchmarkValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := validate.MM1SojournTime(0.5, 1, 20000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// vrScenario is the monotone-response workload (single-copy objects)
// where antithetic pairing anti-correlates trials; see
// internal/core/variance_test.go for the regime discussion.
func vrScenario() core.Scenario {
	sc := benchScenario()
	sc.Scheme = storage.ReplicationScheme(1)
	sc.Users = 100
	return sc
}

// vrHalfWidth runs r on the monotone workload at seeds 1..b.N and
// reports the mean 95 % availability half-width — E10's measure: at equal
// trials, how tight an interval each runner reads.
func vrHalfWidth(b *testing.B, r core.Runner) {
	sc := vrScenario()
	ci := 0.0
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i + 1)
		res, err := r.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		ci += res.CI["availability"]
	}
	b.ReportMetric(ci/float64(b.N), "ci/op")
}

// BenchmarkRunnerPlainCI is E10's baseline: plain Monte Carlo at 256
// trials.
func BenchmarkRunnerPlainCI(b *testing.B) { vrHalfWidth(b, core.Runner{Trials: 256}) }

// BenchmarkRunnerAntithetic is the same 256 trials with §4.2 antithetic
// pairing: 128 pair means, a tighter interval (E10).
func BenchmarkRunnerAntithetic(b *testing.B) {
	vrHalfWidth(b, core.Runner{Trials: 256, Antithetic: true})
}

// vrSweep builds the E11 multi-fidelity acceptance sweep: replication
// (3,5,7,9) x cluster size (5,10,20 nodes/rack), availability >= 0.9,
// 16 trials at every point. With screening, the three clearly
// over-provisioned replication columns are decided analytically and
// only the marginal replication-3 column pays for simulation.
func vrSweep(b *testing.B, seed uint64, screened bool) *core.Exploration {
	space, err := design.NewSpace(
		design.Dimension{Name: "replicas", Values: []design.Value{3, 5, 7, 9}},
		design.Dimension{Name: "nodes", Values: []design.Value{5, 10, 20}},
	)
	if err != nil {
		b.Fatal(err)
	}
	target, err := sla.NewAvailability(0.9)
	if err != nil {
		b.Fatal(err)
	}
	ex := &core.Explorer{
		Space: space,
		Build: func(p design.Point) (core.Scenario, []sla.SLA, error) {
			sc := benchScenario()
			sc.Seed = seed
			sc.Users = 100
			sc.Cluster.NodesPerRack = p.MustValue("nodes").(int)
			sc.Scheme = storage.ReplicationScheme(p.MustValue("replicas").(int))
			return sc, []sla.SLA{target}, nil
		},
		Runner: core.Runner{Trials: 16, CRN: true},
	}
	if screened {
		ex.Screen = &core.ScreenRule{Margin: core.DefaultScreenMargin}
	}
	res, err := ex.RunPoints(context.Background(), nil, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// sweepTrials sums the simulated trials across a sweep's outcomes.
func sweepTrials(res *core.Exploration) float64 {
	total := 0.0
	for _, out := range res.Outcomes {
		if out.Result != nil {
			total += float64(out.Result.Trials)
		}
	}
	return total
}

// BenchmarkSweepBaselineCI measures the E11 sweep with full simulation
// at every design point (the PR 2 execution model).
func BenchmarkSweepBaselineCI(b *testing.B) {
	trials, events := 0.0, 0.0
	for i := 0; i < b.N; i++ {
		res := vrSweep(b, uint64(i+1), false)
		trials += sweepTrials(res)
		events += float64(res.Events)
	}
	b.ReportMetric(trials/float64(b.N), "trials/op")
	b.ReportMetric(events/float64(b.N), "events/op")
}

// BenchmarkExplorerScreened measures the same sweep with the §2.2
// analytic screening pass deciding clear-cut points without simulation.
func BenchmarkExplorerScreened(b *testing.B) {
	trials, events := 0.0, 0.0
	for i := 0; i < b.N; i++ {
		res := vrSweep(b, uint64(i+1), true)
		if res.Screened == 0 {
			b.Fatal("nothing screened")
		}
		trials += sweepTrials(res)
		events += float64(res.Events)
	}
	b.ReportMetric(trials/float64(b.N), "trials/op")
	b.ReportMetric(events/float64(b.N), "events/op")
}

// BenchmarkEngineEvents measures raw DES throughput (events/second).
func BenchmarkEngineEvents(b *testing.B) {
	s := sim.New(1)
	var tick func()
	count := 0
	tick = func() {
		count++
		s.Schedule(1, "tick", tick)
	}
	s.Schedule(0, "tick", tick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Step() {
			b.Fatal("engine drained")
		}
	}
	b.ReportMetric(float64(b.N), "events")
}

// BenchmarkWTQL measures a full declarative query (parse + plan + run).
func BenchmarkWTQL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := (&wtql.Engine{}).Execute(fmt.Sprintf(`
			SIMULATE availability
			VARY storage.replication IN (2, 3)
			WITH users = 50, trials = 1, horizon_hours = 500, object_mb = 5,
			     cluster.racks = 1, cluster.nodes_per_rack = 6, seed = %d`, i))
		if err != nil {
			b.Fatal(err)
		}
		if rs.Executed == 0 {
			b.Fatal("no configurations executed")
		}
	}
}

// BenchmarkPowerObserver measures the energy meter's per-event cost —
// the zero-allocation observer internal/power layers on node and power
// domain transitions. One op is one power-state transition (the same
// granularity as a node fail/restore); it must stay at ~0 allocs/op so
// power-enabled sweeps pay arithmetic, not garbage, per event.
func BenchmarkPowerObserver(b *testing.B) {
	m, err := power.NewMeter(1024, 140, 0.45, 0.3, 1.5, 0.4, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := 0.0
	for i := 0; i < b.N; i++ {
		node := i & 1023
		m.SetNodeOn(now, node, i&1 == 0)
		now += 0.001
	}
	m.Finalize(now)
	if m.ITEnergyKWh() <= 0 {
		b.Fatal("meter integrated no energy")
	}
}

package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wtql"
)

// replaySweep re-runs every trial of one sweep from outside the engine:
// it builds the scenario of each design point itself, calls the layers'
// public constructors in the order core.Runner does, and times each
// call. Two checks keep the replay honest. The scenario is the plan's:
// its core.CacheKey equals Plan.PointKeys. And the trials are the
// engine's: their mean availability and event total equal what the
// traced sweep committed for the point.
func replaySweep(cfg config, spec querySpec, engine []core.PointOutcome, out *outcome) error {
	q, err := wtql.Parse(spec.text())
	if err != nil {
		return err
	}
	plan, err := newSweepEngine().Plan(q)
	if err != nil {
		return err
	}
	keys, err := plan.PointKeys()
	if err != nil {
		return err
	}
	points := plan.Points()
	if len(engine) != len(points) {
		return fmt.Errorf("replay: %d engine outcomes for %d points", len(engine), len(points))
	}

	var build, place, attach, run, events, repairs, moved, failures []float64
	for i, pt := range points {
		sc, err := spec.scenario(pt)
		if err != nil {
			return err
		}
		runner := core.Runner{Trials: spec.trials()}
		if key := core.CacheKey(sc, runner); key != keys[i] {
			out.op(fmt.Sprintf("replay: point %d scenario key %s differs from the plan's %s", i, key[:12], keys[i][:12]))
			continue
		}
		var avail stats.Welford
		pointEvents := uint64(0)
		for trial := 0; trial < runner.Trials; trial++ {
			tr, err := replayTrial(cfg.spans, sc, uint64(trial))
			if err != nil {
				return fmt.Errorf("replay: point %d trial %d: %w", i, trial, err)
			}
			build = append(build, us(tr.build))
			place = append(place, us(tr.place))
			attach = append(attach, us(tr.attach))
			run = append(run, us(tr.run))
			events = append(events, float64(tr.events))
			repairs = append(repairs, float64(tr.repairs))
			moved = append(moved, tr.movedMB)
			failures = append(failures, float64(tr.nodeFailures))
			avail.Add(tr.availability)
			pointEvents += tr.events
		}
		want := engine[i].Result
		problem := ""
		// Not exact, for the reason sweepOutput gives.
		if math.Abs(avail.Mean()-want.Metrics["availability"]) > 1e-9 || pointEvents != want.EventsTotal {
			problem = fmt.Sprintf("replay: point %d availability %v over %d events, the engine committed %v over %d",
				i, avail.Mean(), pointEvents, want.Metrics["availability"], want.EventsTotal)
		}
		out.op(problem)
	}

	n := len(run)
	if n == 0 {
		return nil
	}
	m := out.metrics
	// Means, not medians: design points differ in size and most quiet
	// trials see no failure at all, so the median trial is not where the
	// time goes. The four means add up to one replayed trial.
	m.set("cluster.build_us", sum(build)/float64(n), n)
	m.set("storage.place_us", sum(place)/float64(n), n)
	m.set("repair.attach_us", sum(attach)/float64(n), n)
	m.set("sim.run_us", sum(run)/float64(n), n)
	m.set("sim.events_per_trial", sum(events)/float64(n), n)
	m.set("sim.us_per_event", sum(run)/sum(events), int(sum(events)))
	m.set("repair.completed_per_trial", sum(repairs)/float64(n), n)
	m.set("repair.mb_moved_per_trial", sum(moved)/float64(n), n)
	m.set("cluster.node_failures_per_trial", sum(failures)/float64(n), n)
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }

type trialReplay struct {
	build, place, attach, run time.Duration
	availability              float64
	events                    uint64
	repairs                   int64
	movedMB                   float64
	nodeFailures              int64
}

// replayTrial is core.Runner's plain trial path (no variance reduction,
// no power subsystem — none of the workloads use them), call for call.
func replayTrial(rec *recorder, sc core.Scenario, trial uint64) (trialReplay, error) {
	var tr trialReplay
	op := rec.newOp()
	t0 := time.Now()
	s := sim.New(sc.Seed*1_000_003 + trial)
	placeRng := rng.New(sc.Seed*7_919 + trial)
	cl, err := cluster.Build(s, hardware.DefaultCatalog(), sc.Cluster)
	if err != nil {
		return tr, err
	}
	t1 := time.Now()

	rackOf := make([]int, cl.Size())
	for i, n := range cl.Nodes() {
		rackOf[i] = n.Rack
	}
	policy, err := storage.PolicyByName(sc.Placement)
	if err != nil {
		return tr, err
	}
	st, err := storage.NewStore(storage.View{Nodes: cl.Size(), RackOf: rackOf}, policy)
	if err != nil {
		return tr, err
	}
	if err := st.AddObjects(sc.Users, sc.ObjectSizeMB, sc.Scheme, placeRng); err != nil {
		return tr, err
	}
	t2 := time.Now()

	mgr, err := repair.NewManager(s, cl, st, sc.Repair)
	if err != nil {
		return tr, err
	}
	mgr.Start()
	cl.StartFailures()
	t3 := time.Now()

	s.RunUntil(sc.HorizonHours)
	t4 := time.Now()

	tr = trialReplay{
		build: t1.Sub(t0), place: t2.Sub(t1), attach: t3.Sub(t2), run: t4.Sub(t3),
		availability: 1 - mgr.AnyUnavailableFraction(),
		events:       s.Executed(),
		repairs:      mgr.Completed(),
		movedMB:      mgr.BytesMovedMB(),
		nodeFailures: cl.NodeFailures(),
	}
	root := rec.add(op, 0, "replay", t0, t4.Sub(t0))
	rec.add(op, root, "cluster.build", t0, tr.build)
	rec.add(op, root, "storage.place", t1, tr.place)
	rec.add(op, root, "repair.attach", t2, tr.attach)
	rec.add(op, root, "sim.run", t3, tr.run)
	return tr, nil
}

package core

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/hardware"
	"repro/internal/power"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// trialWorld is everything one trial simulates — simulator, cluster (with
// its topology, flow simulator and components), object store and repair
// manager — owned by one worker goroutine of one Runner.simulate call at a
// time. Its first trial builds it with the layers' public constructors;
// every trial, the first included, then starts by resetting each layer in
// place to its just-built state, so a trial costs what it simulates rather
// than what it would take to construct the data center again. A layer's
// constructor is "allocate, then run the same reset", which is why a
// reused world and a world built fresh for the trial give bit-identical
// outcomes (TestReusedWorldMatchesFresh; bench/'s replay, which builds
// fresh, checks the same from outside).
//
// A world also outlives its point. When the run ends, the world goes back
// to the process's worldPool under its worldKey — the point's content
// address without seed and trial count — and the next
// run with that key, in any sweep, takes it with only its seed and name
// changed (TestPooledWorldMatchesFresh). A world whose trial failed is
// dropped, not pooled, and so is an idle one the pool's budget pushes out.
//
// A trial also pays for its objects only when something looks at one. run
// tells the store its population (storage.Store.Defer) and the placing
// happens at the first read: the repair manager's, at the first node
// transition of any kind — a node death, a ToR, PDU or utility outage. A
// trial in which no node changes state never places and allocates
// nothing. This is sound
// only because placement draws from the place stream, which nothing else
// reads: when its draws are taken cannot change what they are, nor any
// draw of the simulation. A placement stream shared with the simulator
// would make the deferred trial a different trial. The world's first
// population is placed at once, so a scenario that cannot be placed fails
// its first trial rather than its first failure; a placement that fails
// later is that trial's error (TestDeferredPopulationMatchesEager holds
// all of it against the eager AddObjects).
//
// Nor does a trial pay for what falls after its horizon. The cluster is
// told it: a node failure that falls past it — in a rare-failure trial,
// nearly every node's first — is drawn but never scheduled, and mostly
// decided from its uniform alone (cluster.Cluster.StartFailuresUntil). The
// simulator is told it too, before anything is scheduled, and parks any
// other event past it outside the calendar's heap
// (sim.Simulator.SetHorizon).
type trialWorld struct {
	key    worldKey
	runner Runner            // only the fields in key: CRN, Antithetic, FailureBias
	sc     Scenario          // this worker's copy; Cluster.NodeTTF is biased under FailureBias
	cat    *hardware.Catalog // shared with the other workers, read-only

	sim    *sim.Simulator // nil until build has succeeded
	place  rng.Source     // placement stream, reseeded per trial
	cl     *cluster.Cluster
	store  *storage.Store
	mgr    *repair.Manager
	biased *dist.HazardBiased // nil unless FailureBias is active
	placed bool               // the first population went in eagerly
	trace  sim.Tracer         // nil outside tests: set on each trial's simulator after its reset
	failed bool               // a trial ended in an error other than its run's cancellation
}

// newWorld returns an unbuilt world for runs of r on sc under key k. It
// keeps only the runner fields a world reads, all of them in k.
func newWorld(k worldKey, r Runner, sc Scenario) *trialWorld {
	return &trialWorld{
		key:    k,
		runner: Runner{CRN: r.CRN, Antithetic: r.Antithetic, FailureBias: r.FailureBias},
		sc:     sc,
		cat:    hardware.SharedCatalog(),
	}
}

// build allocates the world. Nothing here depends on the trial index:
// seeds, placements and every other per-trial state are run's business.
func (w *trialWorld) build() error {
	r, sc := w.runner, w.sc
	s := sim.New(0)
	var biased *dist.HazardBiased
	if r.biasActive() {
		b, err := dist.NewHazardBiased(sc.Cluster.NodeTTF, r.FailureBias)
		if err != nil {
			return err
		}
		// Censoring-aware weighting: TTF draws beyond the remaining
		// horizon contribute the bounded survival ratio, keeping weight
		// variance under control at any bias.
		b.Now = s.Now
		b.Horizon = sc.HorizonHours
		biased = b
		sc.Cluster.NodeTTF = biased
	}
	cl, err := cluster.Build(s, w.cat, sc.Cluster)
	if err != nil {
		return err
	}
	policy, err := storage.PolicyByName(sc.Placement)
	if err != nil {
		return err
	}
	st, err := storage.NewStore(storage.View{Nodes: cl.Size(), RackOf: rackOf(cl)}, policy)
	if err != nil {
		return err
	}
	mgr, err := repair.NewManager(s, cl, st, sc.Repair)
	if err != nil {
		return err
	}
	w.sc, w.sim, w.cl, w.store, w.mgr, w.biased = sc, s, cl, st, mgr, biased
	return nil
}

// trialSlice is how many events a trial runs between two looks at its
// context: at under a microsecond an event, tens of milliseconds.
const trialSlice = 1 << 16

// run executes one independent replication. It looks at ctx between slices
// of trialSlice events and gives up with ctx's error once it is done, so a
// cancelled run does not wait out a trial of a long horizon. Nothing outside
// the simulator acts between two slices, so slicing changes no draw. A
// cancelled trial leaves the world fit for the next trial's resets; any
// other error marks it failed.
func (w *trialWorld) run(ctx context.Context, trial uint64) trialOutcome {
	out := w.trial(ctx, trial)
	if out.err != nil && out.err != ctx.Err() {
		w.failed = true
	}
	return out
}

// trial is run without the failure mark.
func (w *trialWorld) trial(ctx context.Context, trial uint64) trialOutcome {
	if w.sim == nil {
		if err := w.build(); err != nil {
			return trialOutcome{err: err}
		}
	}
	r, sc, s, cl, mgr := w.runner, w.sc, w.sim, w.cl, w.mgr

	if r.CRN || r.Antithetic {
		pairBase := trial
		if r.Antithetic {
			pairBase = trial &^ 1 // odd twins share the even twin's stream key
		}
		s.ResetKeyed(sc.Seed, pairBase, r.Antithetic && trial&1 == 1)
		// Placement is shared (not mirrored) within an antithetic pair:
		// the pair compares mirrored failure draws over one object layout.
		w.place.Rekey(sc.Seed, pairBase, "placement")
	} else {
		s.Reset(sc.Seed*1_000_003 + trial)
		w.place.Reseed(sc.Seed*7_919 + trial)
	}
	// Nothing is scheduled yet: every event the trial will not reach is
	// parked out of the calendar's heap from the start.
	s.SetHorizon(sc.HorizonHours)
	if w.biased != nil {
		w.biased.Reset()
	}
	cl.Reset()
	w.store.Reset()
	err := w.store.Defer(sc.Users, sc.ObjectSizeMB, sc.Scheme, &w.place)
	if err == nil && !w.placed {
		err = w.store.Place()
		w.placed = err == nil
	}
	if err != nil {
		return trialOutcome{err: err}
	}
	mgr.Reset()
	mgr.Start()
	var psys *power.System
	if sc.Power.Enabled {
		var err error
		psys, err = power.Attach(s, cl, w.cat, sc.Power, sc.HorizonHours)
		if err != nil {
			return trialOutcome{err: err}
		}
	}
	cl.StartFailuresUntil(sc.HorizonHours)

	if w.trace != nil {
		s.SetTracer(w.trace)
	}

	for !s.RunUntilN(sc.HorizonHours, trialSlice) {
		if err := ctx.Err(); err != nil {
			return trialOutcome{err: err}
		}
	}

	if err := w.store.Err(); err != nil {
		return trialOutcome{err: err}
	}
	out := trialOutcome{
		availability: 1 - mgr.AnyUnavailableFraction(),
		zeroCopy:     mgr.ZeroCopyFraction(),
		meanUnavail:  mgr.MeanUnavailableObjects(),
		lost:         mgr.LostObjects(),
		repairs:      mgr.Completed(),
		repairBytes:  mgr.BytesMovedMB(),
		nodeFailures: cl.NodeFailures(),
		events:       s.Executed(),
		weight:       1,
	}
	if w.biased != nil {
		out.weight = w.biased.Weight()
	}
	if psys != nil {
		out.power = psys.Stats(s.Now())
	}
	if mgr.RepairTimes().N() > 0 {
		out.repairMakespan = mgr.RepairTimes().Max()
	}
	return out
}

// rackOf extracts the rack map for placement.
func rackOf(cl *cluster.Cluster) []int {
	out := make([]int, cl.Size())
	for i, n := range cl.Nodes() {
		out[i] = n.Rack
	}
	return out
}

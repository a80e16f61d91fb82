package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/design"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/sla"
	"repro/internal/storage"
)

// useWorldPool gives the test a pool of its own with the given budget in
// place of the process's, and puts the process's back when the test ends.
func useWorldPool(t testing.TB, budget int64) *worldPool {
	saved := worlds
	worlds = newWorldPool(budget)
	t.Cleanup(func() { worlds = saved })
	return worlds
}

// drain drops every idle world, as if the process had just started.
func (p *worldPool) drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle, p.bytes = nil, 0
}

// held reports how many worlds are idle and their estimated bytes, and
// checks the pool's books: the byte count is the idle worlds' sum.
func (p *worldPool) held(t testing.TB) (int, int64) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	bytes := int64(0)
	for _, w := range p.idle {
		bytes += worldBytes(&w.sc)
	}
	if bytes != p.bytes {
		t.Fatalf("pool books disagree: %d bytes counted, %d summed", p.bytes, bytes)
	}
	return len(p.idle), bytes
}

// stormRun is stormScenario on the default catalog, which Runner uses.
func stormRun(edit func(*Scenario)) Scenario {
	sc := stormScenario()
	edit(&sc)
	sc.Cluster.DiskSpec, sc.Cluster.NICSpec, sc.Cluster.SwitchSpec = "hdd-7200", "nic-1g", "switch-48p-1g"
	return sc
}

// samplingRunners are the runner's four sampling schemes.
var samplingRunners = []struct {
	name   string
	runner Runner
}{
	{"plain", Runner{}},
	{"crn", Runner{CRN: true}},
	{"antithetic", Runner{Antithetic: true}},
	{"bias", Runner{FailureBias: 3}},
}

// TestPooledWorldMatchesFresh is the contract the world pool stands on: a
// run on a world that an earlier run of another seed left behind — with
// flows in flight, nodes down and events pending — gives bit for bit the
// result of a run on worlds built for it, for every storm variant under
// every sampling scheme, on one worker and on two. And two scenarios that
// differ in any one field a world is built from never share a world.
func TestPooledWorldMatchesFresh(t *testing.T) {
	for i, v := range stormVariants() {
		for j, s := range samplingRunners {
			name := v.name + "/" + s.name
			r := s.runner
			r.Trials, r.Workers = 6, 1+(i+j)%2
			a := stormRun(v.edit)
			b := a
			b.Seed, b.Name = a.Seed+1, "b"
			pool := useWorldPool(t, worldBudget)
			if _, err := r.Run(a); err != nil {
				t.Fatalf("%s: seed A: %v", name, err)
			}
			// A worker that drew no trial built no world, so two workers
			// may leave one.
			built, _ := pool.held(t)
			if built < 1 || built > r.Workers {
				t.Fatalf("%s: %d workers left %d worlds", name, r.Workers, built)
			}
			got, err := r.Run(b)
			if err != nil {
				t.Fatalf("%s: seed B: %v", name, err)
			}
			// B's workers take A's worlds before their first trial; only a
			// worker A left without one may build.
			if n, _ := pool.held(t); n < built || n > r.Workers {
				t.Fatalf("%s: seed B built worlds of its own: %d idle after A's %d, %d workers", name, n, built, r.Workers)
			}
			pool.drain()
			want, err := r.Run(b)
			if err != nil {
				t.Fatalf("%s: fresh seed B: %v", name, err)
			}
			if d := diffValues("RunResult", reflect.ValueOf(*got), reflect.ValueOf(*want)); d != "" {
				t.Errorf("%s: seed B on seed A's worlds differs from fresh worlds in %s", name, d)
			}
			if got.EventsTotal == 0 || got.Metrics["availability"] == 1 {
				t.Errorf("%s: seed B saw no storm (%d events, availability %v)", name, got.EventsTotal, got.Metrics["availability"])
			}
		}
	}

	// Each field a world is built from, changed alone, makes a run build a
	// world of its own; seed, trials, target interval, name, workers and
	// SLAs do not.
	pool := useWorldPool(t, worldBudget)
	base := stormRun(func(*Scenario) {})
	base.HorizonHours = 100
	run := func(sc Scenario, r Runner) {
		t.Helper()
		if r.Trials == 0 {
			r.Trials = 2
		}
		if r.Workers == 0 {
			r.Workers = 1
		}
		if _, err := r.Run(sc); err != nil {
			t.Fatal(err)
		}
	}
	run(base, Runner{})
	shaping := []struct {
		field string
		edit  func(*Scenario, *Runner)
	}{
		{"cluster.nodes_per_rack", func(sc *Scenario, _ *Runner) { sc.Cluster.NodesPerRack++ }},
		{"cluster.racks", func(sc *Scenario, _ *Runner) { sc.Cluster.Racks++ }},
		{"cluster.disks_per_node", func(sc *Scenario, _ *Runner) { sc.Cluster.DisksPerNode++ }},
		{"placement", func(sc *Scenario, _ *Runner) { sc.Placement = "rackaware" }},
		{"scheme", func(sc *Scenario, _ *Runner) { sc.Scheme = storage.RSScheme(2, 1) }},
		{"users", func(sc *Scenario, _ *Runner) { sc.Users++ }},
		{"object_mb", func(sc *Scenario, _ *Runner) { sc.ObjectSizeMB *= 2 }},
		{"repair.max_concurrent", func(sc *Scenario, _ *Runner) { sc.Repair.MaxConcurrent++ }},
		{"horizon_hours", func(sc *Scenario, _ *Runner) { sc.HorizonHours++ }},
		{"node.ttf", func(sc *Scenario, _ *Runner) { sc.Cluster.NodeTTF = exp(151) }},
		{"node.repair", func(sc *Scenario, _ *Runner) { sc.Cluster.NodeRepair = exp(31) }},
		{"power.enabled", func(sc *Scenario, _ *Runner) { sc.Power = stormPower() }},
		{"runner.failure_bias", func(_ *Scenario, r *Runner) { r.FailureBias = 2 }},
		{"runner.crn", func(_ *Scenario, r *Runner) { r.CRN = true }},
		{"runner.antithetic", func(_ *Scenario, r *Runner) { r.Antithetic = true }},
	}
	for i, f := range shaping {
		sc, r := base, Runner{}
		f.edit(&sc, &r)
		var kb, kf worldKey
		walkKeys(&base, &Runner{}, nil, &kb)
		walkKeys(&sc, &r, nil, &kf)
		if kb == kf {
			t.Errorf("%s: a changed %s leaves the world key as it was", f.field, f.field)
		}
		run(sc, r)
		if n, _ := pool.held(t); n != i+2 {
			t.Fatalf("after changing %s: %d worlds built, want %d — it ran on another scenario's world", f.field, n, i+2)
		}
	}
	builds, _ := pool.held(t)
	for _, f := range []struct {
		field string
		edit  func(*Scenario, *Runner)
	}{
		{"seed", func(sc *Scenario, _ *Runner) { sc.Seed = 99 }},
		{"name", func(sc *Scenario, _ *Runner) { sc.Name = "other" }},
		{"runner.trials", func(_ *Scenario, r *Runner) { r.Trials = 3 }},
		{"runner.slas", func(_ *Scenario, r *Runner) { r.SLAs = []sla.SLA{mustAvailability(t, 0.5)} }},
	} {
		sc, r := base, Runner{}
		f.edit(&sc, &r)
		run(sc, r)
		if n, _ := pool.held(t); n != builds {
			t.Errorf("changing %s built a world: %d idle, want %d", f.field, n, builds)
		}
	}
}

// sweepExplorer is an eight-point sweep of small scenarios at one seed.
func sweepExplorer(t testing.TB, seed uint64) *Explorer {
	space, err := design.NewSpace(
		design.Dimension{Name: "nodes", Values: []design.Value{4, 5}},
		design.Dimension{Name: "placement", Values: []design.Value{"random", "roundrobin"}},
		design.Dimension{Name: "replication", Values: []design.Value{2, 3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return &Explorer{
		Space: space,
		Build: func(p design.Point) (Scenario, []sla.SLA, error) {
			sc := stormRun(func(*Scenario) {})
			sc.Cluster.NodesPerRack = p.MustValue("nodes").(int)
			sc.Placement = p.MustValue("placement").(string)
			sc.Scheme = storage.ReplicationScheme(p.MustValue("replication").(int))
			sc.HorizonHours, sc.Users, sc.Seed = 150, 40, seed
			return sc, nil, nil
		},
		Runner:  Runner{Trials: 3, Workers: 1 + int(seed%2)},
		Workers: 2,
	}
}

// TestWorldPoolBounded: the idle worlds never hold more than the budget
// by their estimate, the least recently used go first, a world over the
// whole budget is never kept, and eight sweeps sharing a pool that keeps
// only a few worlds print the tables each prints alone.
func TestWorldPoolBounded(t *testing.T) {
	sc := stormRun(func(*Scenario) {})
	sc.HorizonHours = 50
	one := worldBytes(&sc)
	pool := useWorldPool(t, 3*one+one/2)
	const keys = 8
	for i := 0; i < keys; i++ {
		sc := sc
		sc.Users = 150 - i // a distinct key, and a world of the same size or smaller
		if _, err := (Runner{Trials: 2, Workers: 1}).Run(sc); err != nil {
			t.Fatal(err)
		}
		if _, bytes := pool.held(t); bytes > pool.budget {
			t.Fatalf("after %d keys the idle worlds hold %d bytes, over the budget of %d", i+1, bytes, pool.budget)
		}
	}
	if n, _ := pool.held(t); n != 3 {
		t.Fatalf("%d worlds idle, want the 3 that fit", n)
	}
	// The three kept are the three most recent.
	for i := 0; i < keys; i++ {
		sc := sc
		sc.Users = 150 - i
		var k worldKey
		walkKeys(&sc, &Runner{}, nil, &k)
		kept := slices.ContainsFunc(pool.idle, func(w *trialWorld) bool { return w.key == k })
		if kept != (i >= keys-3) {
			t.Errorf("key %d of %d: kept %v", i, keys, kept)
		}
	}

	// Over the whole budget: run, not kept, and nothing else evicted for it.
	small := useWorldPool(t, one-1)
	fits := sc
	fits.Users = 100
	for workers, sc := range []Scenario{fits, sc} {
		if _, err := (Runner{Trials: 2, Workers: 1 + workers}).Run(sc); err != nil {
			t.Fatal(err)
		}
	}
	if n, bytes := small.held(t); n != 1 || bytes != worldBytes(&fits) {
		t.Fatalf("with worlds over the budget run last, %d worlds of %d bytes idle, want the one that fits", n, bytes)
	}

	// Eight concurrent sweeps over three seeds, through a pool a fraction of
	// their worlds fit in, against each sweep run alone on new worlds.
	const sweeps = 8
	seedOf := func(i int) uint64 { return uint64(1 + i%3) }
	var want [sweeps]*Exploration
	for i := range want {
		useWorldPool(t, 0)
		var err error
		if want[i], err = sweepExplorer(t, seedOf(i)).RunPoints(context.Background(), nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	shared := useWorldPool(t, 5*one)
	var wg sync.WaitGroup
	var got [sweeps]*Exploration
	var errs [sweeps]error
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = sweepExplorer(t, seedOf(i)).RunPoints(context.Background(), nil, nil, nil)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(got[i].Outcomes) != len(want[i].Outcomes) {
			t.Fatalf("sweep %d: %d outcomes, alone %d", i, len(got[i].Outcomes), len(want[i].Outcomes))
		}
		for j := range got[i].Outcomes {
			g, w := got[i].Outcomes[j].Result, want[i].Outcomes[j].Result
			if d := diffValues("RunResult", reflect.ValueOf(*g), reflect.ValueOf(*w)); d != "" {
				t.Errorf("sweep %d point %d: shared pool differs from the sweep alone in %s", i, j, d)
			}
		}
	}
	if n, bytes := shared.held(t); n == 0 || bytes > shared.budget {
		t.Fatalf("the shared pool holds %d worlds of %d bytes, want some within its budget of %d", n, bytes, shared.budget)
	}
}

// cancelAfter is an exponential distribution that cancels a run's
// context at its n-th draw, in the middle of whatever trial draws it.
type cancelAfter struct {
	dist.Exponential
	left   *atomic.Int64
	cancel context.CancelFunc
}

func (c cancelAfter) Sample(r *rng.Source) float64 {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Exponential.Sample(r)
}

// TestFailedWorldNotPooled: a scenario that cannot be placed fails every
// run with the same text, and its worlds are never kept; a run cancelled
// in the middle of a trial gives its world back, and the next run on it is
// a fresh world's.
func TestFailedWorldNotPooled(t *testing.T) {
	pool := useWorldPool(t, worldBudget)
	bad := quietScenario()
	bad.Cluster.Racks, bad.Cluster.NodesPerRack = 1, 5
	bad.Scheme = storage.RSScheme(6, 3)
	const want = "storage: scheme rs-6-3 needs 9 nodes, view has 5"
	for run, workers := range []int{1, 2, 1} {
		_, err := Runner{Trials: 4, Workers: workers}.Run(bad)
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %q", run, err, want)
		}
		if n, _ := pool.held(t); n != 0 {
			t.Fatalf("run %d: %d worlds kept whose trial failed", run, n)
		}
	}
	// However a world's trial failed, give drops it.
	var k worldKey
	w := newWorld(k, Runner{}, quietScenario())
	if out := w.run(context.Background(), 0); out.err != nil {
		t.Fatal(out.err)
	}
	w.failed = true
	pool.give(w)
	if n, _ := pool.held(t); n != 0 {
		t.Fatal("a world marked failed was kept")
	}

	// A trial cancelled at its 3 000th node failure draw, long before its
	// horizon; the world goes back to the pool.
	sc := stormRun(func(*Scenario) {})
	sc.HorizonHours = 400_000
	ctx, cancel := context.WithCancel(context.Background())
	left := &atomic.Int64{}
	left.Store(3000)
	cancelling := sc
	cancelling.Cluster.NodeTTF = cancelAfter{sc.Cluster.NodeTTF.(dist.Exponential), left, cancel}
	if _, err := (Runner{Trials: 2, Workers: 1}).RunContext(ctx, cancelling); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n, _ := pool.held(t); n != 1 {
		t.Fatalf("the cancelled run left %d worlds, want its one", n)
	}
	cancelled := pool.idle[0]
	if now := cancelled.sim.Now(); now >= sc.HorizonHours {
		t.Fatalf("the cancelled trial reached its horizon (%v h): nothing was cut off mid-trial", now)
	}
	sc.Seed++
	got, err := Runner{Trials: 1, Workers: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := pool.held(t); n != 1 || pool.idle[0] != cancelled {
		t.Fatal("the next run did not take the cancelled run's world")
	}
	pool.drain()
	fresh, err := Runner{Trials: 1, Workers: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffValues("RunResult", reflect.ValueOf(*got), reflect.ValueOf(*fresh)); d != "" {
		t.Errorf("the run on the cancelled run's world differs from a fresh world's in %s", d)
	}
}

// TestWorldBytesCoversHeap holds worldBytes to what built worlds hold on
// the heap after running trials — quiet ones, repair storms, components
// with lifecycles, a daemon query's — so that the pool's budget bounds
// real memory: a world may not hold more than 5/4 of its estimate. A storm
// world's heap keeps growing for many trials, so the six world shapes
// of the benchmark's sweep_repair (replication 2, 3 and 5 on 3 racks of 5
// and of 10 nodes, 300 tenants) run 256 trials each.
func TestWorldBytesCoversHeap(t *testing.T) {
	type world struct {
		sc     Scenario
		trials uint64
	}
	quiet := quietScenario()
	disks := stormRun(func(sc *Scenario) { sc.Cluster.DisksPerNode = 12 })
	query := DefaultScenario()
	query.Cluster.Racks, query.Cluster.NodesPerRack, query.Users, query.HorizonHours = 2, 4, 20, 200
	query.Cluster.NodeTTF = exp(500)
	worlds := map[string]world{"quiet": {quiet, 8}, "component lifecycles": {disks, 8}, "query": {query, 8}}
	for _, replication := range []int{2, 3, 5} {
		for _, perRack := range []int{5, 10} {
			sc := DefaultScenario()
			sc.Cluster.Racks, sc.Cluster.NodesPerRack = 3, perRack
			sc.Users, sc.ObjectSizeMB, sc.HorizonHours = 300, 64, 2000
			sc.Scheme = storage.ReplicationScheme(replication)
			worlds[fmt.Sprintf("sweep_repair rep-%d 3x%d", replication, perRack)] = world{sc, 256}
		}
	}
	for name, w := range worlds {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		built := newWorld(worldKey{}, Runner{}, w.sc)
		for trial := uint64(0); trial < w.trials; trial++ {
			if out := built.run(context.Background(), trial); out.err != nil {
				t.Fatal(out.err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		held, est := int64(after.HeapAlloc)-int64(before.HeapAlloc), worldBytes(&w.sc)
		t.Logf("%s: %d trials, holds %d bytes, estimated %d (%.2f)", name, w.trials, held, est, float64(held)/float64(est))
		if held > est*5/4 {
			t.Errorf("%s: after %d trials a world holds %d bytes, estimated %d", name, w.trials, held, est)
		}
		runtime.KeepAlive(built)
	}
}

// TestRunAllocationFlatInTrials: on a warm pool with one worker, each
// trial a run adds costs at most perTrialBytes of allocation: a run keeps
// nothing in proportion to trials x users, so Trials needs no ceiling
// beyond MaxTrials. The storm keeps most of its 150 tenants below
// availability 1 in most trials, where a record kept per tenant-trial
// would grow by kilobytes a trial.
func TestRunAllocationFlatInTrials(t *testing.T) {
	const perTrialBytes = 2048
	useWorldPool(t, worldBudget)
	sc := stormRun(func(*Scenario) {})
	alloc := func(trials int) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := (Runner{Trials: trials, Workers: 1}).Run(sc); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	alloc(1) // builds the world the two measured runs take
	small, large := alloc(20), alloc(200)
	perTrial := (large - small) / 180
	if perTrial > perTrialBytes {
		t.Errorf("each trial past the 20th allocates %d bytes, budget %d (20 trials: %d bytes, 200: %d)", perTrial, perTrialBytes, small, large)
	}
	t.Logf("%d bytes a trial (20 trials: %d bytes, 200: %d)", perTrial, small, large)
}

// TestWarmPointAllocationIndependentOfTrials: a point shaped like
// sweep_repair's, run on the world an earlier run of it left in the pool,
// allocates the same bytes and the same count at 8 trials as at 64 — a
// warm point allocates its answer, not its trials. Its trials are repair
// storms: node lists outgrow their room, and those outgrown lists move
// into the store's kept index rather than storage the next Reset drops.
func TestWarmPointAllocationIndependentOfTrials(t *testing.T) {
	useWorldPool(t, worldBudget)
	sc := DefaultScenario()
	sc.Cluster.NodesPerRack, sc.Users, sc.ObjectSizeMB, sc.HorizonHours = 5, 300, 64, 2000
	sc.Repair.MaxConcurrent = 4
	run := func(trials int) *RunResult {
		res, err := Runner{Trials: trials, Workers: 1}.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(64); res.Metrics["repairs"] == 0 {
		t.Fatal("64 trials repaired nothing: the point no longer storms")
	}
	// The least of ten runs: a run whose cache-key buffer the sync.Pool
	// dropped (at a GC, or at random under the race detector) allocates
	// 4 KB more.
	measure := func(trials int) (bytes, allocs uint64) {
		bytes, allocs = math.MaxUint64, math.MaxUint64
		for range 10 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(trials)
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
		}
		return bytes, allocs
	}
	fewBytes, fewAllocs := measure(8)
	manyBytes, manyAllocs := measure(64)
	if fewBytes != manyBytes || fewAllocs != manyAllocs {
		t.Errorf("a warm point allocates %d bytes in %d allocations at 8 trials, %d bytes in %d at 64", fewBytes, fewAllocs, manyBytes, manyAllocs)
	}
	t.Logf("a warm point allocates %d bytes in %d allocations", manyBytes, manyAllocs)
}

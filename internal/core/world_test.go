package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/hardware"
	"repro/internal/power"
	"repro/internal/repair"
	"repro/internal/sim"
	"repro/internal/storage"
)

// exp is the exponential distribution with the given mean (hours).
func exp(mean float64) dist.Dist { return dist.Must(dist.ExpMean(mean)) }

// flakyCatalog is the default catalog plus components that fail every
// few hundred hours, so that a 400-hour trial sees disk, NIC and ToR
// failures and ends in the middle of some.
func flakyCatalog(t testing.TB) *hardware.Catalog {
	cat := hardware.DefaultCatalog()
	for _, sp := range []hardware.Spec{
		{Name: "hdd-flaky", Kind: hardware.KindDisk, CapacityGB: 2000, ThroughputMBps: 150, PowerWatts: 8, TTF: exp(900), Repair: exp(20)},
		{Name: "nic-flaky", Kind: hardware.KindNIC, ThroughputMBps: 125, PowerWatts: 3, TTF: exp(700), Repair: exp(15)},
		{Name: "switch-flaky", Kind: hardware.KindSwitch, Ports: 48, ThroughputMBps: 125, PowerWatts: 120, TTF: exp(250), Repair: exp(40)},
	} {
		if err := cat.Add(sp); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// stormScenario is small, fails constantly and repairs slowly: 3x6 nodes
// losing one every ~8 hours, 2 TB objects over 1 Gb/s links through two
// repair slots, component and ToR failures on. Whenever a trial ends,
// transfers are in flight, nodes are down and events are pending.
func stormScenario() Scenario {
	sc := DefaultScenario()
	sc.Cluster.Racks, sc.Cluster.NodesPerRack = 3, 6
	sc.Cluster.DiskSpec, sc.Cluster.DisksPerNode = "hdd-flaky", 2
	sc.Cluster.NICSpec, sc.Cluster.SwitchSpec = "nic-flaky", "switch-flaky"
	sc.Cluster.NodeTTF = exp(150)
	sc.Cluster.NodeRepair = exp(30)
	sc.Cluster.ComponentFailures, sc.Cluster.SwitchFailures = true, true
	sc.Users = 150
	sc.ObjectSizeMB = 2e6
	sc.Repair = repair.Config{Mode: repair.Parallel, MaxConcurrent: 2, Detection: exp(0.5)}
	sc.HorizonHours = 400
	sc.Seed = 11
	return sc
}

// stormPower adds the whole power hierarchy, with a cap that is still
// throttling the access links when the horizon is reached.
func stormPower() power.Config {
	return power.Config{
		Enabled: true, PDUs: 2, UPSSpec: "ups-240kva",
		UtilityTTF:    exp(120),
		UtilityRepair: exp(3),
		UPSMinutes:    10, GeneratorStartProb: 0.5, GeneratorStartHours: 0.5,
		CapFraction: 0.3, CapStartHours: 100,
	}
}

// diffOutcomes names the first field in which two trial outcomes differ,
// floats compared bit for bit; "" when none does. It walks the struct by
// reflection so that a field added to trialOutcome later is compared too.
func diffOutcomes(a, b trialOutcome) string {
	return diffValues("trialOutcome", reflect.ValueOf(a), reflect.ValueOf(b))
}

func diffValues(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %.17g vs %.17g", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d entries", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffValues(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffValues(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d entries", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			if !b.MapIndex(k).IsValid() {
				return fmt.Sprintf("%s[%v]: on one side only", path, k)
			}
			if d := diffValues(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), b.MapIndex(k)); d != "" {
				return d
			}
		}
	case reflect.Interface: // err
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: nil on one side only", path)
		}
	default:
		panic("diffValues: no rule for " + path + " of kind " + a.Kind().String())
	}
	return ""
}

// stormVariant is one runner and one edit of stormScenario.
type stormVariant struct {
	name   string
	runner Runner
	edit   func(*Scenario)
}

// stormVariants covers every sampling scheme of the runner — plain, CRN,
// antithetic, failure bias — with and without the power hierarchy,
// over both redundancy schemes and the three placement policies.
func stormVariants() []stormVariant {
	return []stormVariant{
		{"replication/random", Runner{}, func(sc *Scenario) {}},
		{"replication/roundrobin/power", Runner{}, func(sc *Scenario) {
			sc.Placement = "roundrobin"
			sc.Power = stormPower()
		}},
		{"rs/rackaware", Runner{}, func(sc *Scenario) {
			sc.Scheme = storage.RSScheme(4, 2)
			sc.Placement = "rackaware"
		}},
		{"rs/random/crn", Runner{CRN: true}, func(sc *Scenario) {
			sc.Scheme = storage.RSScheme(6, 3)
		}},
		{"replication/rackaware/antithetic/power", Runner{Antithetic: true}, func(sc *Scenario) {
			sc.Placement = "rackaware"
			sc.Power = stormPower()
		}},
		{"replication/random/bias", Runner{FailureBias: 3}, func(sc *Scenario) {}},
		{"rs/roundrobin", Runner{}, func(sc *Scenario) {
			sc.Scheme = storage.RSScheme(4, 2)
			sc.Placement = "roundrobin"
		}},
		{"replication/rackaware/all", Runner{Antithetic: true, FailureBias: 2}, func(sc *Scenario) {
			sc.Placement = "rackaware"
			sc.Power = stormPower()
		}},
	}
}

// TestReusedWorldMatchesFresh is the contract the build-once trial path
// stands on: a world that has already run other trials — and was left
// with flows in flight, a rack and nodes down, events pending past the
// horizon, a service throttle applied — gives, after its resets, exactly
// the outcome of a world built for that trial alone. Trial indices go
// through the reused world out of order and one repeats.
func TestReusedWorldMatchesFresh(t *testing.T) {
	cat := flakyCatalog(t)
	variants := stormVariants()
	// Which dirty end states the reused worlds were actually left in.
	var flows, nodeDown, rackDown, pending, throttled, lost bool
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			sc := stormScenario()
			v.edit(&sc)
			if err := sc.Power.Validate(); err != nil {
				t.Fatal(err)
			}
			reused := trialWorld{runner: v.runner, sc: sc, cat: cat}
			for _, trial := range []uint64{5, 0, 3, 0, 4} {
				got := reused.run(context.Background(), trial)
				if got.err != nil {
					t.Fatalf("trial %d: %v", trial, got.err)
				}
				fresh := trialWorld{runner: v.runner, sc: sc, cat: cat}
				if d := diffOutcomes(got, fresh.run(context.Background(), trial)); d != "" {
					t.Errorf("trial %d on the reused world differs from a fresh one in %s", trial, d)
				}
				if got.events == 0 || got.nodeFailures == 0 {
					t.Errorf("trial %d simulated nothing: %d events, %d node failures", trial, got.events, got.nodeFailures)
				}
				cl := reused.cl
				flows = flows || cl.Flow.Active() > 0
				pending = pending || reused.sim.Pending() > 0
				lost = lost || got.lost > 0
				for r := 0; r < sc.Cluster.Racks; r++ {
					rackDown = rackDown || !cl.RackDomain(r).Up()
				}
				for _, n := range cl.Nodes() {
					nodeDown = nodeDown || !n.Up()
					throttled = throttled || n.AccessLinkCapacity() < 125*3600
				}
			}
		})
	}
	for name, seen := range map[string]bool{
		"flows in flight": flows, "a node down": nodeDown, "a rack down": rackDown,
		"events pending past the horizon": pending,
		"a service throttle applied":      throttled, "a lost object": lost,
	} {
		if !seen {
			t.Errorf("no reused world was ever left with %s: the scenarios no longer exercise that reset", name)
		}
	}

	// The same through Runner.simulate: with four workers, which world
	// runs which trials after which others changes from run to run, and
	// the aggregate must not.
	for _, v := range variants {
		sc := stormScenario()
		v.edit(&sc)
		// The runner builds its own (default) catalog.
		sc.Cluster.DiskSpec, sc.Cluster.NICSpec, sc.Cluster.SwitchSpec = "hdd-7200", "nic-1g", "switch-48p-1g"
		one, four := v.runner, v.runner
		one.Trials, one.Workers = 12, 1
		four.Trials, four.Workers = 12, 4
		want, err := one.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		got, err := four.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if d := diffValues("RunResult", reflect.ValueOf(*got), reflect.ValueOf(*want)); d != "" {
			t.Errorf("%s: four workers differ from one in %s", v.name, d)
		}
	}
}

// scan is the full-rescan reference for a trial's availability signals.
// Consulted between events, with the clock already on the next one, it
// re-derives from every object's locations how many objects are below
// their scheme's MinAvailable and MinRecoverable in the state the last
// event left, and banks the interval since the previous look at those
// counts.
type scan struct {
	last                      sim.Time
	unavail, anyDown, anyLost float64 // each signal's area over [0, last]
}

func (a *scan) advance(now sim.Time, st *storage.Store, down func(int) bool) {
	dt := now - a.last
	unavail := st.UnavailableCount(down)
	a.unavail += float64(unavail) * dt
	if unavail > 0 {
		a.anyDown += dt
	}
	if st.LostCount(down) > 0 {
		a.anyLost += dt
	}
	a.last = now
}

// TestTenantReportMatchesScan: what a trial reports of its tenants — the
// fraction of time any was unavailable, the time-averaged number
// unavailable, the fraction of time any had no live copy — is what a
// full rescan of every tenant between every two events of the same trial
// derives, for every variant the reuse contract runs, on a world that has
// run other trials before.
func TestTenantReportMatchesScan(t *testing.T) {
	cat := flakyCatalog(t)
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want)) }
	for _, v := range stormVariants() {
		t.Run(v.name, func(t *testing.T) {
			sc := stormScenario()
			v.edit(&sc)
			w := trialWorld{runner: v.runner, sc: sc, cat: cat}
			down := func(id int) bool { return !w.cl.Available(id) }
			unavailable := 0
			for _, trial := range []uint64{5, 0, 3} {
				var ref scan
				w.trace = func(at sim.Time, _ string) { ref.advance(at, w.store, down) }
				out := w.run(context.Background(), trial)
				if out.err != nil {
					t.Fatalf("trial %d: %v", trial, out.err)
				}
				now := w.sim.Now()
				ref.advance(now, w.store, down)
				for _, c := range []struct {
					name      string
					got, want float64
				}{
					{"availability", out.availability, 1 - ref.anyDown/now},
					{"mean unavailable objects", out.meanUnavail, ref.unavail / now},
					{"zero-copy fraction", out.zeroCopy, ref.anyLost / now},
				} {
					if !near(c.got, c.want) {
						t.Fatalf("trial %d: %s %.17g, the scan says %.17g", trial, c.name, c.got, c.want)
					}
				}
				if out.availability < 1 {
					unavailable++
				}
			}
			if unavailable == 0 {
				t.Fatal("no trial saw an outage: the variant no longer tests the tenants' outages")
			}
		})
	}
}

// quietScenario is the shape of one sweep_quiet design point (bench/):
// 3x40 nodes that each fail once in ~50000 hours, 1000 users on 3-way
// replication, one simulated week. Two trials in three see no failure.
func quietScenario() Scenario {
	sc := DefaultScenario()
	sc.Cluster.Racks, sc.Cluster.NodesPerRack = 3, 40
	sc.Cluster.NodeTTF = exp(50000)
	sc.HorizonHours = 168
	return sc
}

// TestQuietTrialAllocatesOnlyItsOutcome pins what reuse and deferral buy:
// on a world that has run before, a trial in which no node changes state
// places no object, reports availability 1 and allocates nothing.
func TestQuietTrialAllocatesOnlyItsOutcome(t *testing.T) {
	for _, placement := range []string{"random", "roundrobin", "rackaware"} {
		sc := quietScenario()
		sc.Placement = placement
		w := trialWorld{sc: sc, cat: hardware.DefaultCatalog()}
		quiet := ^uint64(0)
		for trial := uint64(0); trial < 16; trial++ { // also runs a few trials that do repair
			if out := w.run(context.Background(), trial); out.err != nil {
				t.Fatal(out.err)
			} else if out.nodeFailures == 0 {
				quiet = trial
			}
		}
		if quiet == ^uint64(0) {
			t.Fatal("none of 16 trials was free of failures; quietScenario is no longer quiet")
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			if out := w.run(context.Background(), quiet); out.nodeFailures != 0 || out.availability != 1 {
				t.Fatalf("trial %d: %d node failures, availability %v", quiet, out.nodeFailures, out.availability)
			}
		})
		runtime.ReadMemStats(&after)
		if allocs != 0 {
			t.Errorf("%s: a failure-free trial on a reused world allocates %.0f times, want none", placement, allocs)
		}
		// AllocsPerRun runs the function once more to warm up.
		if perTrial := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perTrial >= 1024 {
			t.Errorf("%s: a failure-free trial on a reused world allocates %d bytes at %d users, want < 1 KB", placement, perTrial, sc.Users)
		}
		if w.mgr.Tracked() != 0 {
			t.Errorf("%s: a failure-free trial had the repair manager look at %d objects", placement, w.mgr.Tracked())
		}
	}
}

// TestDeferredPopulationMatchesEager holds the deferred population against
// the eager one it replaced. The oracle is a world whose every trial is
// its first, so that run places each population at once with the very
// call that otherwise places only the first (storage.Store.Place): all
// 1000 placement draws taken before the simulation's first event, as
// every trial did before deferral. Every field of every outcome must agree
// bit for bit, across the runner's sampling schemes, the placement
// policies and three regimes — most trials untouched, sweep_quiet's shape,
// a repair storm.
func TestDeferredPopulationMatchesEager(t *testing.T) {
	cat := flakyCatalog(t)
	rare := func() Scenario {
		sc := quietScenario()
		sc.Cluster.NodesPerRack = 20
		return sc
	}
	// One utility outage per ~400 h, half of them outlasting the UPS with no
	// generator: nodes lose power, and become unreachable, without failing.
	mildPower := power.Config{
		Enabled: true, PDUs: 2,
		UtilityTTF: exp(400), UtilityRepair: exp(3),
		UPSMinutes: 10, GeneratorStartProb: 0.5, GeneratorStartHours: 0.5,
	}
	runners := []struct {
		name   string
		runner Runner
		power  bool
	}{
		{"plain", Runner{}, false},
		{"crn", Runner{CRN: true}, false},
		{"antithetic", Runner{Antithetic: true}, false},
		{"bias", Runner{FailureBias: 4}, false},
		{"power", Runner{}, true},
	}
	scenarios := []struct {
		name  string
		make  func() Scenario
		power power.Config
	}{
		{"rare", rare, mildPower},
		{"quiet", quietScenario, mildPower},
		{"storm", stormScenario, stormPower()},
	}
	untouched := map[string]int{} // by scenario
	var touched, outageOnly int
	for _, r := range runners {
		for _, placement := range []string{"random", "roundrobin", "rackaware"} {
			for _, s := range scenarios {
				sc := s.make()
				sc.Placement = placement
				if r.power {
					sc.Power = s.power
				}
				deferred := trialWorld{runner: r.runner, sc: sc, cat: cat}
				eager := trialWorld{runner: r.runner, sc: sc, cat: cat}
				for trial := uint64(0); trial < 64; trial++ {
					got := deferred.run(context.Background(), trial)
					eager.placed = false
					want := eager.run(context.Background(), trial)
					if got.err != nil || want.err != nil {
						t.Fatalf("%s/%s/%s trial %d: %v, eager %v", r.name, placement, s.name, trial, got.err, want.err)
					}
					if d := diffOutcomes(got, want); d != "" {
						t.Fatalf("%s/%s/%s trial %d: deferred population differs from eager in %s", r.name, placement, s.name, trial, d)
					}
					switch {
					case deferred.mgr.Tracked() == 0:
						untouched[s.name]++
					case got.nodeFailures == 0:
						outageOnly++ // populated by a reachability outage alone
						fallthrough
					default:
						touched++
					}
				}
			}
		}
	}
	perScenario := len(runners) * 3 * 64
	if untouched["rare"] <= perScenario/2 || untouched["quiet"] == 0 || untouched["storm"] != 0 {
		t.Errorf("untouched trials of %d: rare %d (want most), quiet %d (want some), storm %d (want none)",
			perScenario, untouched["rare"], untouched["quiet"], untouched["storm"])
	}
	for name, n := range map[string]int{"a trial populated by a power outage with no node failure": outageOnly, "a touched trial": touched} {
		if n == 0 {
			t.Errorf("the matrix never ran %s", name)
		}
	}
}

// TestUnplaceableScenarioFailsFirstTrial: a scheme wider than the cluster
// is refused before anything is deferred, with the error text it always
// had, by a world's first trial and by every later one.
func TestUnplaceableScenarioFailsFirstTrial(t *testing.T) {
	sc := quietScenario()
	sc.Cluster.Racks, sc.Cluster.NodesPerRack = 1, 5
	sc.Scheme = storage.RSScheme(6, 3)
	w := trialWorld{sc: sc, cat: hardware.DefaultCatalog()}
	const want = "storage: scheme rs-6-3 needs 9 nodes, view has 5"
	for _, trial := range []uint64{0, 1} {
		if out := w.run(context.Background(), trial); out.err == nil || out.err.Error() != want {
			t.Fatalf("trial %d: error %v, want %q", trial, out.err, want)
		}
	}
}

// BenchmarkRunnerQuiet runs one sweep_quiet design point the way a sweep
// does — 128 trials through Runner.Run, a new seed each time — and reports
// the cost of a trial. cold empties the world pool before each run, so
// every run builds its world as a process's first point does; warm leaves
// it, so every run after the first resets the world the previous one gave
// back.
func BenchmarkRunnerQuiet(b *testing.B) {
	for _, cold := range []bool{true, false} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			pool := useWorldPool(b, worldBudget)
			sc := quietScenario()
			const trials = 128
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cold {
					pool.drain()
				}
				sc.Seed = uint64(i + 1)
				if _, err := (Runner{Trials: trials, Workers: 1}).Run(sc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trials), "ns/trial")
		})
	}
}

// BenchmarkTrialScale runs reused-world trials of the quiet shape at 1k
// and 10k nodes (one object per node) and reports what ROADMAP item 2
// asks for: time per trial, events per second, and the bytes a built
// world holds per node.
func BenchmarkTrialScale(b *testing.B) {
	for _, nodes := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			sc := quietScenario()
			sc.Cluster.Racks = nodes / sc.Cluster.NodesPerRack
			sc.Users = nodes
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			w := trialWorld{sc: sc, cat: hardware.DefaultCatalog()}
			if out := w.run(context.Background(), 0); out.err != nil {
				b.Fatal(out.err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportAllocs()
			b.ResetTimer()
			events := uint64(0)
			for i := 0; i < b.N; i++ {
				events += w.run(context.Background(), uint64(i)).events
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/trial")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(nodes), "B/node")
		})
	}
}

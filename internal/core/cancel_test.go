package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/design"
	"repro/internal/dist"
	"repro/internal/power"
	"repro/internal/repair"
	"repro/internal/sla"
)

// smallScenario is a fast scenario for cancellation/cache tests.
func smallScenario() Scenario {
	sc := DefaultScenario()
	sc.Users = 50
	sc.HorizonHours = 500
	return sc
}

func TestRunnerContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Runner{Trials: 50}.RunContext(ctx, smallScenario())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCancelStopsTrialInFlight: a run whose trials would each take hours —
// a horizon of a billion hours — returns context.Canceled within two
// seconds of the cancel, on one worker and on two: a trial looks at the
// context while it runs, not only before it starts.
func TestCancelStopsTrialInFlight(t *testing.T) {
	sc := smallScenario()
	sc.HorizonHours = 1e9
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := Runner{Trials: 2, Workers: workers}.RunContext(ctx, sc)
			done <- err
		}()
		time.Sleep(50 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%d workers: want context.Canceled, got %v", workers, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d workers: the run was still going 2 s after its cancel", workers)
		}
	}
}

// TestStoppedRunReservesNothing: a run allowed 100 000 trials and
// cancelled at its second commit pays for the trials it ran, not for the
// ones it was allowed: nothing is reserved in proportion to Trials.
func TestStoppedRunReservesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	committed := 0
	r := Runner{Trials: 100_000, Workers: 1, Progress: func(done, total int) {
		if committed = done; done == 2 {
			cancel()
		}
	}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := r.RunContext(ctx, quickScenario())
	runtime.ReadMemStats(&after)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if committed != 2 {
		t.Fatalf("the run stopped after %d trials, want 2", committed)
	}
	if total := after.TotalAlloc - before.TotalAlloc; total >= 1<<20 {
		t.Fatalf("a run stopped at 2 trials allocated %d KB, want < 1 MB", total>>10)
	}
}

func TestExplorerContextCancelled(t *testing.T) {
	space, err := design.NewSpace(design.Dimension{
		Name:   "cluster.nodes_per_rack",
		Values: []design.Value{float64(5), float64(6), float64(7), float64(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	e := &Explorer{
		Space: space,
		Build: func(p design.Point) (Scenario, []sla.SLA, error) {
			sc := smallScenario()
			sc.Cluster.NodesPerRack = int(p.MustValue("cluster.nodes_per_rack").(float64))
			return sc, nil, nil
		},
		Runner:  Runner{Trials: 3},
		Workers: 1,
	}
	_, err = e.RunPoints(ctx, nil, nil, func(done, total int, out PointOutcome) {
		once.Do(cancel) // cancel as soon as the first point commits
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunnerProgressInOrder(t *testing.T) {
	var seen []int
	r := Runner{Trials: 6, Progress: func(done, total int) {
		if total != 6 {
			t.Errorf("total = %d, want 6", total)
		}
		seen = append(seen, done)
	}}
	if _, err := r.Run(smallScenario()); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("progress called %d times, want 6", len(seen))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress out of order: %v", seen)
		}
	}
}

// TestCacheKeyCoverage checks that every knob that changes a run's output
// changes the key, and that excluded knobs (Workers, Name, SLAs) do not.
func TestCacheKeyCoverage(t *testing.T) {
	// Structural guard: CacheKey hand-enumerates the fields of these
	// structs, so any field added to one of them MUST be triaged — into
	// the key if it can affect a run's output, into the documented
	// exclusion list if not — and this count bumped. Skipping that
	// triage means semantically different scenarios silently share
	// cached results.
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		want int
	}{
		{"core.Scenario", reflect.TypeOf(Scenario{}), 10},
		{"cluster.Config", reflect.TypeOf(cluster.Config{}), 14},
		{"repair.Config", reflect.TypeOf(repair.Config{}), 3},
		{"power.Config", reflect.TypeOf(power.Config{}), 16},
		{"core.Runner", reflect.TypeOf(Runner{}), 7},
	} {
		if got := tc.typ.NumField(); got != tc.want {
			t.Fatalf("%s grew from %d to %d fields: triage the new field(s) into CacheKey "+
				"(or its documented exclusions) and update this count", tc.name, tc.want, got)
		}
	}

	base := smallScenario()
	r := Runner{Trials: 4}
	k0 := CacheKey(base, r)

	if CacheKey(base, r) != k0 {
		t.Fatal("cache key not deterministic")
	}

	// Result-invariant knobs must not change the key.
	named := base
	named.Name = "other-name"
	if CacheKey(named, r) != k0 {
		t.Error("Scenario.Name should not affect the cache key")
	}
	workers := r
	workers.Workers = 7
	if CacheKey(base, workers) != k0 {
		t.Error("Runner.Workers should not affect the cache key")
	}
	withSLA := r
	withSLA.SLAs = []sla.SLA{mustAvailability(t, 0.9)}
	if CacheKey(base, withSLA) != k0 {
		t.Error("Runner.SLAs should not affect the cache key")
	}

	// Output-determining knobs must each change the key.
	muts := map[string]func(sc *Scenario, r *Runner){
		"seed":         func(sc *Scenario, r *Runner) { sc.Seed++ },
		"users":        func(sc *Scenario, r *Runner) { sc.Users++ },
		"horizon":      func(sc *Scenario, r *Runner) { sc.HorizonHours++ },
		"racks":        func(sc *Scenario, r *Runner) { sc.Cluster.Racks++ },
		"placement":    func(sc *Scenario, r *Runner) { sc.Placement = "roundrobin" },
		"trials":       func(sc *Scenario, r *Runner) { r.Trials++ },
		"crn":          func(sc *Scenario, r *Runner) { r.CRN = true },
		"antithetic":   func(sc *Scenario, r *Runner) { r.Antithetic = true },
		"failure_bias": func(sc *Scenario, r *Runner) { r.FailureBias = 3 },
	}
	seen := map[string]string{k0: "base"}
	for name, mut := range muts {
		sc, rr := base, r
		mut(&sc, &rr)
		k := CacheKey(sc, rr)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestCacheKeyDistSubRoundingPrecision guards the distKey encoding:
// distribution parameters that differ only below String()'s 6
// significant digits (e.g. MLE fits of slightly different traces) must
// still produce distinct keys, or the cache would serve one scenario's
// statistics for the other.
func TestCacheKeyDistSubRoundingPrecision(t *testing.T) {
	r := Runner{Trials: 4}
	a := smallScenario()
	b := smallScenario()
	var err error
	if a.Cluster.NodeTTF, err = dist.NewWeibull(0.7, 12000.0000001); err != nil {
		t.Fatal(err)
	}
	if b.Cluster.NodeTTF, err = dist.NewWeibull(0.7, 12000.0000002); err != nil {
		t.Fatal(err)
	}
	if a.Cluster.NodeTTF.String() != b.Cluster.NodeTTF.String() {
		t.Skip("String() no longer rounds; plain encoding suffices")
	}
	if CacheKey(a, r) == CacheKey(b, r) {
		t.Fatal("cache keys collide for distributions differing below String() precision")
	}
}

func mustAvailability(t *testing.T, min float64) sla.SLA {
	t.Helper()
	s, err := sla.NewAvailability(min)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mapCache is a minimal TrialCache for explorer tests.
type mapCache struct {
	mu sync.Mutex
	m  map[string]*RunResult
}

func (c *mapCache) Get(key string) (*RunResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	return r, ok
}

func (c *mapCache) Put(key string, r *RunResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]*RunResult{}
	}
	c.m[key] = r
}

// TestExplorerCacheHitsAreIdentical runs the same sweep cold and warm
// against one cache and requires identical outcomes with a 100% hit rate
// on the repeat.
func TestExplorerCacheHitsAreIdentical(t *testing.T) {
	space, err := design.NewSpace(design.Dimension{
		Name:   "cluster.nodes_per_rack",
		Values: []design.Value{float64(5), float64(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := &mapCache{}
	mk := func() *Explorer {
		return &Explorer{
			Space: space,
			Build: func(p design.Point) (Scenario, []sla.SLA, error) {
				sc := smallScenario()
				sc.Cluster.NodesPerRack = int(p.MustValue("cluster.nodes_per_rack").(float64))
				return sc, []sla.SLA{mustAvailability(t, 0.5)}, nil
			},
			Runner: Runner{Trials: 4},
			Cache:  cache,
		}
	}
	cold, err := mk().RunPoints(context.Background(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 {
		t.Fatalf("cold run reported %d cache hits", cold.CacheHits)
	}
	warm, err := mk().RunPoints(context.Background(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != len(warm.Outcomes) {
		t.Fatalf("warm run hit %d/%d points", warm.CacheHits, len(warm.Outcomes))
	}
	if warm.Executed != cold.Executed || warm.Events != cold.Events {
		t.Fatalf("warm totals differ: executed %d/%d events %d/%d",
			warm.Executed, cold.Executed, warm.Events, cold.Events)
	}
	for i := range cold.Outcomes {
		c, w := cold.Outcomes[i].Result, warm.Outcomes[i].Result
		if len(c.Metrics) != len(w.Metrics) {
			t.Fatalf("point %d: metric count differs", i)
		}
		for k, v := range c.Metrics {
			if w.Metrics[k] != v {
				t.Fatalf("point %d metric %s: cold %v warm %v", i, k, v, w.Metrics[k])
			}
		}
		if c.AllMet != w.AllMet || len(c.Verdicts) != len(w.Verdicts) {
			t.Fatalf("point %d: SLA verdicts differ between cold and warm run", i)
		}
	}
}

package hardware

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

func testSpec() Spec {
	return Spec{
		Name: "test-disk", Kind: KindDisk,
		CapacityGB: 100, ThroughputMBps: 100, IOPS: 100,
		CostUSD: 50, PowerWatts: 5,
		TTF:    dist.Must(dist.ExpMean(1000)),
		Repair: dist.Must(dist.NewDeterministic(10)),
	}
}

func TestSpecValidation(t *testing.T) {
	sp := testSpec()
	if err := sp.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := sp
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	bad = sp
	bad.TTF = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil TTF accepted")
	}
	bad = sp
	bad.CostUSD = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative cost accepted")
	}
}

func TestComponentLifecycleCycles(t *testing.T) {
	s := sim.New(42)
	c, err := NewComponent(1, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	fails, repairs := 0, 0
	c.OnFail(func(*Component) { fails++ })
	c.OnRepair(func(*Component) { repairs++ })
	c.StartLifecycle(s, s.Stream("disk-1"))
	s.RunUntil(100000) // ~100 MTTFs
	if fails < 50 {
		t.Errorf("only %d failures in 100 expected lifetimes", fails)
	}
	if math.Abs(float64(fails-repairs)) > 1 {
		t.Errorf("fails %d and repairs %d differ by more than the in-flight one", fails, repairs)
	}
	// Downtime fraction should approach 10/1010.
	frac := c.TotalDowntime(s.Now()) / s.Now()
	want := 10.0 / 1010
	if math.Abs(frac-want) > 0.01 {
		t.Errorf("downtime fraction %v, want ~%v", frac, want)
	}
}

func TestComponentStateTransitions(t *testing.T) {
	c, err := NewComponent(1, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != StateHealthy {
		t.Fatal("new component not healthy")
	}
	c.Fail(5)
	if c.State() != StateFailed {
		t.Fatal("failed component should report state failed")
	}
	c.Fail(6) // no-op
	if c.Failures() != 1 {
		t.Errorf("double fail counted: %d", c.Failures())
	}
	c.Restore(15)
	if c.State() != StateHealthy {
		t.Fatal("restore did not heal")
	}
	if got := c.TotalDowntime(20); math.Abs(got-10) > 1e-12 {
		t.Errorf("downtime = %v, want 10", got)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	if err := c.Add(testSpec()); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(testSpec()); err == nil {
		t.Error("duplicate spec accepted")
	}
	if _, err := c.Get("test-disk"); err != nil {
		t.Errorf("registered spec not found: %v", err)
	}
	if _, err := c.Get("nope"); err == nil {
		t.Error("unknown spec returned without error")
	}
}

func TestDefaultCatalogComplete(t *testing.T) {
	c := DefaultCatalog()
	wantKinds := map[Kind]int{
		KindDisk: 4, KindNIC: 3, KindCPU: 2, KindMemory: 3, KindSwitch: 2, KindPSU: 1,
	}
	for k, want := range wantKinds {
		if got := len(c.OfKind(k)); got != want {
			t.Errorf("%v specs: got %d, want %d", k, got, want)
		}
	}
	for _, name := range c.Names() {
		sp, err := c.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("catalog spec %q invalid: %v", name, err)
		}
	}
}

// TestSharedCatalog: the shared catalog is the default menu, one instance
// for the process, and refuses Add — which is what lets every goroutine
// read it without a lock.
func TestSharedCatalog(t *testing.T) {
	shared, own := SharedCatalog(), DefaultCatalog()
	if SharedCatalog() != shared {
		t.Fatal("SharedCatalog built a second catalog")
	}
	if got, want := shared.Names(), own.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("shared catalog lists %v, the default catalog %v", got, want)
	}
	for _, name := range own.Names() {
		a, _ := shared.Get(name)
		b, _ := own.Get(name)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("spec %q differs between the shared and a fresh default catalog", name)
		}
	}
	if err := shared.Add(testSpec()); err == nil {
		t.Fatal("the shared catalog accepted a spec")
	}
	if _, err := shared.Get("test-disk"); err == nil {
		t.Fatal("a refused Add still registered the spec")
	}
	if err := own.Add(testSpec()); err != nil {
		t.Fatalf("DefaultCatalog must stay a mutable constructor: %v", err)
	}
}

func TestWeibullAFRCalibration(t *testing.T) {
	// The hdd-7200 TTF must put 3% probability mass within one year.
	c := DefaultCatalog()
	sp, err := c.Get("hdd-7200")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.TTF.CDF(HoursPerYear); math.Abs(got-0.03) > 1e-9 {
		t.Errorf("P(TTF <= 1yr) = %v, want 0.03", got)
	}
	// And the shape must be sub-exponential (infant mortality), i.e. more
	// early failures than an exponential with the same 1-year mass.
	exp := dist.Must(dist.ExpMean(HoursPerYear / -math.Log(0.97)))
	quarterYear := HoursPerYear / 4
	if sp.TTF.CDF(quarterYear) <= exp.CDF(quarterYear) {
		t.Error("Weibull(0.7) should front-load failures relative to exponential")
	}
}

func TestNICSpeedOrdering(t *testing.T) {
	c := DefaultCatalog()
	g1, _ := c.Get("nic-1g")
	g10, _ := c.Get("nic-10g")
	g40, _ := c.Get("nic-40g")
	if !(g1.ThroughputMBps < g10.ThroughputMBps && g10.ThroughputMBps < g40.ThroughputMBps) {
		t.Error("NIC throughput not ordered 1g < 10g < 40g")
	}
	if !(g1.CostUSD < g10.CostUSD && g10.CostUSD < g40.CostUSD) {
		t.Error("NIC cost not ordered 1g < 10g < 40g")
	}
}

func TestKindString(t *testing.T) {
	if KindDisk.String() != "disk" || KindSwitch.String() != "switch" {
		t.Error("kind names wrong")
	}
	if StateHealthy.String() != "healthy" || StateFailed.String() != "failed" {
		t.Error("state names wrong")
	}
}

// TestResetMatchesNewComponent: a component that failed, counted
// downtime and has callbacks and a lifecycle running replays, after a
// Reset (and a reset of its simulator), the failure history a new
// component has — and formats its event names and builds its lifecycle
// callbacks only the first time.
func TestResetMatchesNewComponent(t *testing.T) {
	history := func(s *sim.Simulator, c *Component) (out []float64) {
		c.OnFail(func(*Component) { out = append(out, s.Now()) })
		c.OnRepair(func(*Component) { out = append(out, -s.Now()) })
		c.StartLifecycle(s, s.Stream("disk"))
		s.RunUntil(20000)
		return append(out, float64(c.Failures()), float64(c.Repairs()), c.TotalDowntime(s.Now()))
	}
	s := sim.New(1)
	reused, err := NewComponent(3, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	history(s, reused)
	reused.Fail(s.Now())
	for _, seed := range []uint64{8, 1} {
		s.Reset(seed)
		reused.Reset()
		if reused.State() != StateHealthy || reused.Failures() != 0 || reused.TotalDowntime(0) != 0 {
			t.Fatalf("after Reset: %v, %d failures, downtime %v", reused.State(), reused.Failures(), reused.TotalDowntime(0))
		}
		fresh, err := NewComponent(3, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		got, want := history(s, reused), history(sim.New(seed), fresh)
		if len(got) != len(want) || len(got) < 10 {
			t.Fatalf("seed %d: %d history entries, fresh %d", seed, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: history entry %d is %v, fresh %v", seed, i, got[i], want[i])
			}
		}
	}
	var block [2]Component
	if err := block[1].Init(7, testSpec()); err != nil {
		t.Fatal(err)
	}
	if block[1].ID != 7 || block[1].State() != StateHealthy {
		t.Errorf("Init left %+v", block[1])
	}
	bad := testSpec()
	bad.TTF = nil
	if block[0].Init(1, bad) == nil {
		t.Error("Init accepted an invalid spec")
	}
	// A lifecycle on a reused component costs two events per cycle and
	// no allocation: the names and callbacks are the first start's.
	if allocs := testing.AllocsPerRun(10, func() {
		s.Reset(5)
		reused.Reset()
		reused.StartLifecycle(s, s.Stream("disk"))
		s.RunUntil(20000)
	}); allocs != 0 {
		t.Errorf("a reused component's lifecycle allocates %.0f times per run, want 0", allocs)
	}
}

// builtState is everything of c that Reset puts back, the callbacks by
// count and the lifecycle wiring by whether it is set.
func builtState(c *Component) string {
	return fmt.Sprintf("%d %v %d %d %v %v callbacks %d/%d lifecycle %v/%v",
		c.ID, c.state, c.failures, c.repairs, c.downSince, c.totalDown,
		len(c.onFail), len(c.onRepair), c.lcSim != nil, c.lcStream != nil)
}

// TestBlockResetPutsBackEveryMutator: whichever method moved a member of a
// block away from its built state, Block.Reset puts it back, round after
// round, and leaves every member equal to a NewComponent. (Restore is left
// out: it changes only a component that an earlier Fail listed.)
func TestBlockResetPutsBackEveryMutator(t *testing.T) {
	s := sim.New(1)
	noop := func(*Component) {}
	mutators := map[string]func(c *Component){
		"StartLifecycle": func(c *Component) { c.StartLifecycle(s, s.Stream("x")) },
		"Fail":           func(c *Component) { c.Fail(3) },
		"OnFail":         func(c *Component) { c.OnFail(noop) },
		"OnRepair":       func(c *Component) { c.OnRepair(noop) },
	}
	for name, mutate := range mutators {
		b := NewBlock(3)
		members := make([]*Component, 3)
		for i := range members {
			c, err := b.Init(i, 10+i, testSpec())
			if err != nil {
				t.Fatal(err)
			}
			members[i] = c
		}
		for round := 0; round < 3; round++ {
			before := builtState(members[round%3])
			mutate(members[round%3])
			if builtState(members[round%3]) == before {
				t.Fatalf("%s changed nothing", name)
			}
			s.Reset(1)
			b.Reset()
			for i, c := range members {
				fresh, err := NewComponent(10+i, testSpec())
				if err != nil {
					t.Fatal(err)
				}
				if got, want := builtState(c), builtState(fresh); got != want {
					t.Fatalf("%s, round %d: member %d is %s after Block.Reset, a new component %s", name, round, i, got, want)
				}
			}
		}
	}
}

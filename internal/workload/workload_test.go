package workload

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

func node(t *testing.T, s *sim.Simulator, name string) *NodeModel {
	t.Helper()
	n, err := NewNodeModel(s, name, NodeSpec{Cores: 4, DiskIOPS: 1000, NICMBps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNodeModelValidation(t *testing.T) {
	s := sim.New(1)
	if _, err := NewNodeModel(s, "x", NodeSpec{Cores: 0, DiskIOPS: 1, NICMBps: 1}); err == nil {
		t.Error("0 cores accepted")
	}
	if _, err := NewNodeModel(s, "x", NodeSpec{Cores: 1, DiskIOPS: 0, NICMBps: 1}); err == nil {
		t.Error("0 IOPS accepted")
	}
	if _, err := NewNodeModel(s, "x", NodeSpec{Cores: 1, DiskIOPS: 1, NICMBps: 0}); err == nil {
		t.Error("0 NIC accepted")
	}
}

func TestProcessLatencyIsSumOfStages(t *testing.T) {
	s := sim.New(1)
	n := node(t, s, "n0")
	var lat float64 = -1
	// 0.1s CPU + 50 ops * 1ms + 100 MB * 1ms = 0.1 + 0.05 + 0.1 = 0.25.
	n.Process(Demand{CPUSeconds: 0.1, DiskOps: 50, NetMB: 100}, func(l float64) { lat = l })
	s.Run()
	if math.Abs(lat-0.25) > 1e-9 {
		t.Fatalf("latency = %v, want 0.25", lat)
	}
}

func TestProcessSkipsZeroStages(t *testing.T) {
	s := sim.New(1)
	n := node(t, s, "n0")
	var lat float64 = -1
	n.Process(Demand{CPUSeconds: 0.2}, func(l float64) { lat = l })
	s.Run()
	if math.Abs(lat-0.2) > 1e-9 {
		t.Fatalf("latency = %v, want 0.2 (CPU only)", lat)
	}
}

func TestLimpwareNICRaisesLatency(t *testing.T) {
	// §4.5: a NIC at 1% of spec multiplies the network stage by 100.
	run := func(factor float64) float64 {
		s := sim.New(1)
		n := node(t, s, "n0")
		if factor < 1 {
			if err := n.DegradeNIC(factor); err != nil {
				t.Fatal(err)
			}
		}
		var lat float64
		n.Process(Demand{NetMB: 10}, func(l float64) { lat = l })
		s.Run()
		return lat
	}
	healthy := run(1)
	limping := run(0.01)
	if math.Abs(limping/healthy-100) > 1e-6 {
		t.Fatalf("limpware slowdown = %v, want 100x", limping/healthy)
	}
}

func TestDegradeValidation(t *testing.T) {
	s := sim.New(1)
	n := node(t, s, "n0")
	if err := n.DegradeNIC(0); err == nil {
		t.Error("factor 0 accepted")
	}
	if err := n.DegradeNIC(2); err == nil {
		t.Error("factor 2 accepted")
	}
	if err := n.DegradeNIC(0.5); err != nil {
		t.Errorf("valid factor rejected: %v", err)
	}
}

func TestOpenLoopLatencyMatchesMM1(t *testing.T) {
	// Single-core CPU-only node: M/M/1 with lambda=0.5, mu=1 -> W = 2.
	s := sim.New(99)
	n, err := NewNodeModel(s, "n0", NodeSpec{Cores: 1, DiskIOPS: 1e12, NICMBps: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(s, "w", Profile{
		Name: "cpu-bound",
		CPU:  dist.Must(dist.ExpMean(1)),
	}, []*NodeModel{n})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StartOpen(dist.Must(dist.ExpMean(2)), 100000); err != nil {
		t.Fatal(err)
	}
	s.Run()
	mean := w.Latencies().Mean()
	if math.Abs(mean-2) > 0.15 {
		t.Fatalf("open-loop mean latency = %v, want ~2 (M/M/1)", mean)
	}
	if w.Latencies().N() != 100000 {
		t.Fatalf("completed %d of 100000", w.Latencies().N())
	}
}

func TestInterferenceRaisesLatency(t *testing.T) {
	// §3: adding workload B on the same node slows workload A.
	run := func(withB bool) float64 {
		s := sim.New(7)
		n, err := NewNodeModel(s, "n0", NodeSpec{Cores: 1, DiskIOPS: 1e12, NICMBps: 1e12})
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewWorkload(s, "A", Profile{CPU: dist.Must(dist.ExpMean(0.5))}, []*NodeModel{n})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.StartOpen(dist.Must(dist.ExpMean(2)), 20000); err != nil {
			t.Fatal(err)
		}
		if withB {
			b, err := NewWorkload(s, "B", Profile{CPU: dist.Must(dist.ExpMean(0.5))}, []*NodeModel{n})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.StartOpen(dist.Must(dist.ExpMean(2)), 20000); err != nil {
				t.Fatal(err)
			}
		}
		s.Run()
		return a.Latencies().Quantile(0.95)
	}
	alone := run(false)
	shared := run(true)
	if shared <= alone {
		t.Fatalf("co-located p95 %v should exceed isolated p95 %v", shared, alone)
	}
}

func TestRoundRobinRouting(t *testing.T) {
	s := sim.New(5)
	n1 := node(t, s, "n1")
	n2 := node(t, s, "n2")
	w, err := NewWorkload(s, "w", Profile{CPU: dist.Must(dist.NewDeterministic(0.01))}, []*NodeModel{n1, n2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StartOpen(dist.Must(dist.NewDeterministic(0.1)), 100); err != nil {
		t.Fatal(err)
	}
	// Each node's CPU completions are the events its station labels.
	completions := map[string]int{}
	s.SetTracer(func(_ sim.Time, name string) { completions[name]++ })
	s.Run()
	if completions["n1/cpu/complete"] != 50 || completions["n2/cpu/complete"] != 50 {
		t.Fatalf("routing split %d/%d, want 50/50",
			completions["n1/cpu/complete"], completions["n2/cpu/complete"])
	}
}

func TestBackgroundLoadInterferes(t *testing.T) {
	run := func(background bool) float64 {
		s := sim.New(11)
		n, err := NewNodeModel(s, "n0", NodeSpec{Cores: 1, DiskIOPS: 100, NICMBps: 100})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorkload(s, "w", Profile{Disk: dist.Must(dist.NewDeterministic(1))}, []*NodeModel{n})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.StartOpen(dist.Must(dist.ExpMean(0.1)), 5000); err != nil {
			t.Fatal(err)
		}
		if background {
			// Repair storm: 2 MB to NIC + 20 disk ops every 0.5s.
			stop, err := BackgroundLoad(s, n, 0.5, Demand{DiskOps: 20, NetMB: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
		}
		s.RunUntil(600)
		return w.Latencies().Quantile(0.99)
	}
	quiet := run(false)
	stormy := run(true)
	if stormy <= quiet {
		t.Fatalf("repair-storm p99 %v should exceed quiet p99 %v", stormy, quiet)
	}
}

func TestWorkloadValidation(t *testing.T) {
	s := sim.New(1)
	if _, err := NewWorkload(s, "w", Profile{}, nil); err == nil {
		t.Error("no targets accepted")
	}
	n := node(t, s, "n0")
	w, err := NewWorkload(s, "w", Profile{}, []*NodeModel{n})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StartOpen(nil, 1); err == nil {
		t.Error("nil interarrival accepted")
	}
	if _, err := BackgroundLoad(s, n, 0, Demand{}); err == nil {
		t.Error("zero period accepted")
	}
}

package repair

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/hardware"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// env builds a small cluster + store + repair manager for tests.
func env(t *testing.T, cfg Config, nodeTTF, nodeRepair dist.Dist) (*sim.Simulator, *cluster.Cluster, *storage.Store, *Manager) {
	t.Helper()
	s := sim.New(42)
	ccfg := cluster.Config{
		Racks: 2, NodesPerRack: 5,
		DiskSpec: "hdd-7200", DisksPerNode: 1,
		NICSpec: "nic-10g", CPUSpec: "cpu-8c", MemSpec: "mem-16g",
		SwitchSpec: "switch-48p-10g",
		NodeTTF:    nodeTTF, NodeRepair: nodeRepair,
	}
	cl, err := cluster.Build(s, hardware.DefaultCatalog(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	view := storage.View{Nodes: cl.Size()}
	st, err := storage.NewStore(view, storage.Random{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddObjects(50, 100, storage.ReplicationScheme(3), rng.New(7)); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(s, cl, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	return s, cl, st, m
}

func TestRepairRestoresRedundancy(t *testing.T) {
	s, cl, st, m := env(t, Config{Mode: Parallel, MaxConcurrent: 8}, nil, nil)
	// Kill node 0 permanently at t=1.
	s.Schedule(1, "kill", func() { cl.FailNode(0) })
	onNode0 := len(st.ObjectsOn(0))
	if onNode0 == 0 {
		t.Fatal("test setup: no objects on node 0")
	}
	s.RunUntil(10000)
	if m.Completed() != int64(onNode0) {
		t.Fatalf("completed %d repairs, want %d", m.Completed(), onNode0)
	}
	// All shards moved off node 0.
	if got := len(st.ObjectsOn(0)); got != 0 {
		t.Fatalf("%d objects still on dead node", got)
	}
	if m.LostObjects() != 0 {
		t.Fatalf("lost %d objects", m.LostObjects())
	}
	if m.BytesMovedMB() != float64(onNode0)*100 {
		t.Fatalf("bytes moved %v, want %v", m.BytesMovedMB(), float64(onNode0)*100)
	}
}

func TestSerialSlowerThanParallel(t *testing.T) {
	// §1: parallel repairs shrink the time to restore full redundancy
	// (makespan), not the per-transfer time.
	run := func(cfg Config) float64 {
		s, cl, _, m := env(t, cfg, nil, nil)
		s.Schedule(1, "kill", func() { cl.FailNode(0) })
		s.RunUntil(100000)
		if m.Completed() == 0 {
			t.Fatal("no repairs completed")
		}
		return m.RepairTimes().Max() // every transfer is queued at the one detection
	}
	serialMakespan := run(Config{Mode: Serial})
	parallelMakespan := run(Config{Mode: Parallel, MaxConcurrent: 16})
	if parallelMakespan >= serialMakespan {
		t.Fatalf("parallel makespan %v should beat serial %v", parallelMakespan, serialMakespan)
	}
}

func TestLostObjectCounted(t *testing.T) {
	s, cl, st, m := env(t, Config{Mode: Serial, Detection: dist.Must(dist.NewDeterministic(1000))}, nil, nil)
	// Find one object and kill all its replicas before detection fires.
	obj := st.Objects()[0]
	s.Schedule(1, "kill-all", func() {
		for _, loc := range obj.Locations {
			cl.FailNode(loc)
		}
	})
	s.RunUntil(5000)
	if m.LostObjects() == 0 {
		t.Fatal("object with all replicas dead not counted as lost")
	}
}

func TestUnavailabilityWindowMeasured(t *testing.T) {
	s, cl, st, m := env(t, Config{Mode: Parallel, MaxConcurrent: 8}, nil, nil)
	obj := st.Objects()[0]
	// Take down a majority of one object's replicas for a while, then
	// restore; the any-unavailable fraction must be positive but < 1.
	s.Schedule(10, "kill", func() {
		cl.FailNode(obj.Locations[0])
		cl.FailNode(obj.Locations[1])
	})
	s.Schedule(20, "restore", func() {
		cl.RestoreNode(obj.Locations[0])
		cl.RestoreNode(obj.Locations[1])
	})
	s.Schedule(100, "horizon", func() {})
	s.RunUntil(100)
	frac := m.AnyUnavailableFraction()
	if frac <= 0 || frac >= 0.5 {
		t.Fatalf("any-unavailable fraction = %v, want in (0, 0.5)", frac)
	}
	if m.MeanUnavailableObjects() <= 0 {
		t.Fatal("mean unavailable objects should be positive")
	}
}

func TestChurnWithLifecycleFailures(t *testing.T) {
	// Continuous failures + repairs: the system must keep redundancy and
	// not deadlock. Node MTTF 2000h, repair 24h.
	cfg := Config{Mode: Parallel, MaxConcurrent: 4}
	s, _, _, m := env(t, cfg,
		dist.Must(dist.ExpMean(2000)),
		dist.Must(dist.NewDeterministic(24)))
	// env wires lifecycle only when StartFailures is called.
	// Do it here: cluster is second return.
	_ = m
	s2, cl2, _, m2 := env(t, cfg,
		dist.Must(dist.ExpMean(2000)),
		dist.Must(dist.NewDeterministic(24)))
	cl2.StartFailures()
	s2.RunUntil(20000)
	if cl2.NodeFailures() == 0 {
		t.Fatal("no node failures in churn test")
	}
	if m2.Completed() == 0 {
		t.Fatal("no repairs completed under churn")
	}
	_ = s
}

func TestWideSchemeNoTargetDoesNotSpin(t *testing.T) {
	// Regression: RS(6,3) spans 9 of 10 nodes. With one node down and a
	// second failing, some repairs have zero eligible targets; the pump
	// must defer them (not spin) and finish them once a node returns.
	s := sim.New(42)
	ccfg := cluster.Config{
		Racks: 2, NodesPerRack: 5,
		DiskSpec: "hdd-7200", DisksPerNode: 1,
		NICSpec: "nic-10g", CPUSpec: "cpu-8c", MemSpec: "mem-16g",
		SwitchSpec: "switch-48p-10g",
	}
	cl, err := cluster.Build(s, hardware.DefaultCatalog(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.NewStore(storage.View{Nodes: cl.Size()}, storage.Random{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddObjects(20, 50, storage.RSScheme(6, 3), rng.New(7)); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(s, cl, st, Config{Mode: Parallel, MaxConcurrent: 8})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	// Two failures leave 8 available nodes: every object (width 9) has at
	// least one shard on a down node and at most zero spare targets.
	s.Schedule(1, "kill-0", func() { cl.FailNode(0) })
	s.Schedule(1.5, "kill-1", func() { cl.FailNode(1) })
	// Node 1 recovers later, unblocking deferred repairs of node 0's
	// shards.
	s.Schedule(50, "restore-1", func() { cl.RestoreNode(1) })
	s.RunUntil(10000) // would time out (never return) with a spinning pump
	if len(st.ObjectsOn(0)) != 0 {
		t.Fatalf("%d objects still on permanently dead node 0", len(st.ObjectsOn(0)))
	}
	if m.Completed() == 0 {
		t.Fatal("no repairs completed after recovery")
	}
	if m.QueueLength() != 0 {
		t.Fatalf("%d tasks still queued at drain", m.QueueLength())
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{Mode: Parallel, MaxConcurrent: 0}).Validate(); err == nil {
		t.Error("parallel with 0 slots accepted")
	}
	if err := (Config{Mode: Serial}).Validate(); err != nil {
		t.Errorf("serial config rejected: %v", err)
	}
	if Serial.String() != "serial" || Parallel.String() != "parallel" {
		t.Error("mode names wrong")
	}
}

func TestMismatchedViewRejected(t *testing.T) {
	s := sim.New(1)
	cl, err := cluster.Build(s, hardware.DefaultCatalog(), cluster.Config{
		Racks: 1, NodesPerRack: 3,
		DiskSpec: "hdd-7200", DisksPerNode: 1,
		NICSpec: "nic-10g", CPUSpec: "cpu-8c", MemSpec: "mem-16g",
		SwitchSpec: "switch-48p-10g",
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.NewStore(storage.View{Nodes: 99}, storage.Random{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(s, cl, st, Config{Mode: Serial}); err == nil {
		t.Error("mismatched store view accepted")
	}
}

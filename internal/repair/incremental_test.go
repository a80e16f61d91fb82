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

// bigCluster builds racks x perRack nodes and an empty store over them.
func bigCluster(t testing.TB, s *sim.Simulator, racks, perRack int, ttf, rep dist.Dist) (*cluster.Cluster, *storage.Store) {
	t.Helper()
	cl, err := cluster.Build(s, hardware.DefaultCatalog(), cluster.Config{
		Racks: racks, NodesPerRack: perRack,
		DiskSpec: "hdd-7200", DisksPerNode: 1,
		NICSpec: "nic-10g", CPUSpec: "cpu-8c", MemSpec: "mem-16g",
		SwitchSpec: "switch-48p-10g",
		NodeTTF:    ttf, NodeRepair: rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.NewStore(storage.View{Nodes: cl.Size()}, storage.Random{})
	if err != nil {
		t.Fatal(err)
	}
	return cl, st
}

// checkedRun runs the simulation to horizon and, between every two events
// and at the end, holds the manager's incremental state against a fresh
// full scan of the store: the unavailable and zero-copy counts and every
// object's live shard count.
func checkedRun(t *testing.T, s *sim.Simulator, cl *cluster.Cluster, st *storage.Store, m *Manager, horizon sim.Time) {
	t.Helper()
	down := func(id int) bool { return !cl.Available(id) }
	failed := false
	check := func(at sim.Time, next string) {
		if failed {
			return
		}
		fail := func(format string, args ...any) {
			t.Helper()
			failed = true
			t.Errorf("t=%v before %q: "+format, append([]any{at, next}, args...)...)
		}
		// A metric read also starts tracking new objects, unless every node
		// is available and nothing is tracked yet: the manager then leaves
		// the store alone.
		m.AnyUnavailableFraction()
		if got, want := m.unavailable, st.UnavailableCount(down); got != want {
			fail("unavailable count %d, scan says %d", got, want)
		}
		if got, want := m.zeroCopy, st.LostCount(down); got != want {
			fail("zero-copy count %d, scan says %d", got, want)
		}
		untracked := m.Tracked() == 0
		if untracked {
			for id := 0; id < cl.Size(); id++ {
				if down(id) {
					fail("tracking no object while node %d is unavailable", id)
					return
				}
			}
		} else if len(m.missing) != st.Len() {
			fail("tracking %d objects; store has %d", len(m.missing), st.Len())
			return
		}
		for i, obj := range st.Objects() {
			live := 0
			for _, loc := range obj.Locations {
				if !down(loc) {
					live++
				}
			}
			tracked := len(obj.Locations) // an untracked object stands for a whole one
			if !untracked {
				tracked = len(obj.Locations) - m.missing[i]
			}
			if tracked != live {
				fail("object %d (%v): live count %d, scan says %d", i, obj.Scheme, tracked, live)
			}
		}
	}
	// The tracer runs before each event's callback with the clock already
	// on the event: what it sees is the state the previous event left.
	s.SetTracer(check)
	s.RunUntil(horizon)
	s.SetTracer(nil)
	check(s.Now(), "end of run")
}

// TestCountersMatchScan is the counter-equals-scan property over a seeded
// run that mixes everything that moves availability: whole-node
// lifecycles, rack (ToR) outages, a power domain cutting across racks and
// nested with them, repairs relocating shards all along, replication and
// RS objects side by side, and populations added to the store after the
// manager was built — one while every node is available, one in the middle
// of a rack outage, which only a metric read's track can take in before
// the rack comes back.
func TestCountersMatchScan(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		s := sim.New(seed)
		cl, st := bigCluster(t, s, 3, 5,
			dist.Must(dist.NewWeibull(0.8, 60)), dist.Must(dist.LogNormalFromMoments(6, 1)))
		// 2e6 MB over a 4.5e6 MB/h access link: transfers last long enough
		// to overlap the next failure.
		place := rng.New(seed)
		if err := st.AddObjects(40, 2e6, storage.ReplicationScheme(3), place); err != nil {
			t.Fatal(err)
		}
		if err := st.AddObjects(30, 2e6, storage.RSScheme(4, 2), place); err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(s, cl, st, Config{Mode: Parallel, MaxConcurrent: 6,
			Detection: dist.Must(dist.NewDeterministic(0.05))})
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		pdu, err := cl.AddDomain("pdu-a", true, []int{0, 1, 5, 6, 10, 11}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cl.StartFailures()

		addObjects := func(count int) func() {
			return func() {
				if err := st.AddObjects(count, 2e6, storage.ReplicationScheme(2), place); err != nil {
					t.Error(err)
				}
			}
		}
		r := rng.New(seed + 100)
		addedDuringOutage, rackFailures := false, 0
		for at := 5.0; at < 400; at += 10 + 30*r.Float64() {
			rack := r.Intn(3)
			s.At(at, "test/rack-fail", func() {
				if cl.RackDomain(rack).Up() {
					rackFailures++
				}
				cl.FailRack(rack)
			})
			s.At(at+1+5*r.Float64(), "test/rack-restore", func() { cl.RestoreRack(rack) })
			if at > 100 && !addedDuringOutage {
				addedDuringOutage = true
				s.At(at+0.5, "test/add-objects-rack-down", func() {
					if cl.RackDomain(rack).Up() {
						t.Error("the rack came back before the objects were added")
					}
					addObjects(10)()
				})
			}
		}
		for at := 17.0; at < 400; at += 40 + 40*r.Float64() {
			s.At(at, "test/pdu-fail", func() { cl.FailDomain(pdu) })
			s.At(at+2+8*r.Float64(), "test/pdu-restore", func() { cl.RestoreDomain(pdu) })
		}
		s.At(50, "test/add-objects", addObjects(20))

		checkedRun(t, s, cl, st, m, 400)
		if m.Completed() < 50 || rackFailures < 5 || st.Len() != 100 {
			t.Fatalf("seed %d: run too quiet to mean anything: %d repairs, %d rack failures, %d objects",
				seed, m.Completed(), rackFailures, st.Len())
		}
	}
}

// TestRelocateFromUnreachableSource scripts the one relocation the random
// run cannot be relied on to hit: the failed node comes back while its
// rack is still down, so when its repairs commit, the shard leaves a node
// that is up but unreachable — it was not counted live, so the object
// must gain a live shard, not merely keep its count.
func TestRelocateFromUnreachableSource(t *testing.T) {
	s := sim.New(5)
	cl, st := bigCluster(t, s, 3, 4, nil, nil)
	if err := st.AddObjects(30, 2e6, storage.ReplicationScheme(3), rng.New(5)); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(s, cl, st, Config{Mode: Parallel, MaxConcurrent: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	const victim = 0 // rack 0
	var before, during int64
	s.At(1, "test/node-fail", func() { cl.FailNode(victim) })
	s.At(1.1, "test/rack-fail", func() { cl.FailRack(0) })
	s.At(1.2, "test/node-restore", func() {
		cl.RestoreNode(victim)
		before = m.Completed()
	})
	s.At(6, "test/rack-restore", func() {
		during = m.Completed() - before
		cl.RestoreRack(0)
	})
	checkedRun(t, s, cl, st, m, 20)
	if during == 0 {
		t.Fatal("no repair committed while the source node was up but unreachable; the case was not exercised")
	}
}

// BenchmarkUpdateUnavailability times the availability accounting of one
// node flap — down and back up — over 1000 replication-3 objects on 30
// nodes: the cost per cluster event that used to be two full scans of the
// store.
func BenchmarkUpdateUnavailability(b *testing.B) {
	s := sim.New(1)
	cl, st := bigCluster(b, s, 3, 10, nil, nil)
	if err := st.AddObjects(1000, 64, storage.ReplicationScheme(3), rng.New(1)); err != nil {
		b.Fatal(err)
	}
	m, err := NewManager(s, cl, st, Config{Mode: Parallel, MaxConcurrent: 16})
	if err != nil {
		b.Fatal(err)
	}
	// The hooks Start registers, minus repair scheduling: what is timed is
	// the accounting alone.
	cl.OnNodeDown(func(n *cluster.Node) { m.nodeChanged(n.ID) })
	cl.OnNodeUp(func(n *cluster.Node) { m.nodeChanged(n.ID) })
	m.publish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.FailNode(i % cl.Size())
		cl.RestoreNode(i % cl.Size())
	}
}

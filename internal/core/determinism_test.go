package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestRepairStormBitReproducible runs trials full of repair storms —
// replication 3, sixteen transfer slots, 300 objects on 3x10 nodes with
// the default Weibull failures — three times each in one process, built
// through the layers' constructors the way runTrial builds them, and
// requires the runs of a trial to agree to the last bit. Completion times
// are quotients of max–min rates, so any dependence of the allocation
// (or of the order flows are visited in) on map iteration order shows
// here from about the ninth digit of the repair times on; which trials
// it hits varies, hence eight of them.
//
// The runs are also held against what commit e104ada executed — events
// and the repair makespan's bits, per trial — so that a change to how the
// calendar stores or moves events, how the manager keeps its transfers or
// how the store keeps its index shows as a change to which event fired
// when, not only as two runs of the new code agreeing with each other.
func TestRepairStormBitReproducible(t *testing.T) {
	recorded := [8]struct {
		executed uint64
		makespan uint64 // math.Float64bits
	}{
		{620, 0x3f19b5a3c4000000},
		{421, 0x3f1a190f6b800000},
		{1396, 0x3f1f6bc8d1000000},
		{583, 0x3f2392cb90c00000},
		{431, 0x3f1a91d678000000},
		{1094, 0x3f20d5ae79000000},
		{915, 0x3f1dd37f56800000},
		{522, 0x3f183bd776000000},
	}
	type outcome struct {
		makespan, meanRepair, availability float64
		repairs                            int64
		executed                           uint64
	}
	run := func(trial uint64) outcome {
		sc := DefaultScenario()
		sc.Users = 300
		sc.ObjectSizeMB = 64
		sc.HorizonHours = 2000
		sc.Repair = repair.Config{Mode: repair.Parallel, MaxConcurrent: 16}
		s := sim.New(sc.Seed*1_000_003 + trial)
		cl, err := cluster.Build(s, hardware.DefaultCatalog(), sc.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		st, err := storage.NewStore(storage.View{Nodes: cl.Size(), RackOf: rackOf(cl)}, storage.Random{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AddObjects(sc.Users, sc.ObjectSizeMB, sc.Scheme, rng.New(sc.Seed*7_919+trial)); err != nil {
			t.Fatal(err)
		}
		mgr, err := repair.NewManager(s, cl, st, sc.Repair)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Start()
		cl.StartFailures()
		s.RunUntil(sc.HorizonHours)
		return outcome{
			makespan:     mgr.RepairTimes().Max(),
			meanRepair:   mgr.RepairTimes().Mean(),
			availability: 1 - mgr.AnyUnavailableFraction(),
			repairs:      mgr.Completed(),
			executed:     s.Executed(),
		}
	}
	storms := 0
	for trial := uint64(0); trial < 8; trial++ {
		a := run(trial)
		if a.repairs >= 100 {
			storms++
		}
		if want := recorded[trial]; a.executed != want.executed || math.Float64bits(a.makespan) != want.makespan {
			t.Errorf("trial %d: executed %d events, repair makespan %#x; recorded at e104ada: %d and %#x",
				trial, a.executed, math.Float64bits(a.makespan), want.executed, want.makespan)
		}
		for again := 0; again < 2; again++ {
			b := run(trial)
			same := func(name string, x, y float64) {
				t.Helper()
				if math.Float64bits(x) != math.Float64bits(y) {
					t.Errorf("trial %d: %s differs between two runs of one seed: %.17g vs %.17g", trial, name, x, y)
				}
			}
			same("repair makespan", a.makespan, b.makespan)
			same("mean repair time", a.meanRepair, b.meanRepair)
			same("availability", a.availability, b.availability)
			if a.executed != b.executed || a.repairs != b.repairs {
				t.Errorf("trial %d: runs executed %d and %d events, completed %d and %d repairs",
					trial, a.executed, b.executed, a.repairs, b.repairs)
			}
		}
	}
	if storms < 4 {
		t.Fatalf("only %d of 8 trials completed 100 repairs: the scenario no longer produces repair storms", storms)
	}
}

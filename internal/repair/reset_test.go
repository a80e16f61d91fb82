package repair

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/storage"
)

// TestResetMatchesNewManager: a manager left mid-storm — tasks queued,
// transfers in flight, objects lost, signals and tenant clocks running —
// reports, after the simulator, cluster, store and manager are reset and
// the store re-populated, exactly what a manager built for that run
// reports, whatever the new population's size.
func TestResetMatchesNewManager(t *testing.T) {
	cfg := Config{Mode: Parallel, MaxConcurrent: 2, Detection: dist.Must(dist.ExpMean(0.5))}
	ttf, rep := dist.Must(dist.ExpMean(60)), dist.Must(dist.ExpMean(40))
	report := func(m *Manager, horizon float64) []float64 {
		m.clst.StartFailures()
		m.sim.RunUntil(horizon)
		out := []float64{
			float64(m.Completed()), m.BytesMovedMB(), float64(m.LostObjects()), m.LastRepairAt(),
			m.MeanUnavailableObjects(), m.AnyUnavailableFraction(), m.ZeroCopyFraction(),
			float64(m.QueueLength()), float64(m.ActiveRepairs()), float64(m.RepairTimes().N()), m.RepairTimes().Mean(),
		}
		return append(out, m.TenantAvailabilities()...)
	}

	// 40 TB objects: nine hours a transfer at 10 Gb/s, so work piles up.
	populate := func(st *storage.Store, users int) {
		st.Reset()
		if err := st.AddObjects(users, 4e7, storage.ReplicationScheme(3), rng.New(7)); err != nil {
			t.Fatal(err)
		}
	}
	s, cl, st, reused := env(t, cfg, ttf, rep)
	populate(st, 50)
	report(reused, 300)
	if reused.QueueLength() == 0 || reused.ActiveRepairs() == 0 || reused.LostObjects() == 0 {
		t.Fatalf("the dirtying run left %d queued, %d active, %d lost: not a storm",
			reused.QueueLength(), reused.ActiveRepairs(), reused.LostObjects())
	}
	for _, users := range []int{20, 50, 90} {
		s.Reset(42)
		cl.Reset()
		populate(st, users)
		reused.Reset()
		reused.Start()
		if reused.QueueLength() != 0 || reused.ActiveRepairs() != 0 || reused.LostObjects() != 0 || reused.Completed() != 0 {
			t.Fatal("Reset left work or counts behind")
		}

		_, _, freshStore, fresh := env(t, cfg, ttf, rep)
		populate(freshStore, users)
		got, want := report(reused, 250), report(fresh, 250)
		if len(got) != len(want) {
			t.Fatalf("%d users: %d values, fresh %d", users, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d users: value %d is %v after Reset, %v on a fresh manager", users, i, got[i], want[i])
			}
		}
		if want[0] == 0 || want[2] == 0 {
			t.Fatalf("%d users: the compared run completed %v repairs and lost %v objects: not a storm", users, want[0], want[2])
		}
	}
}

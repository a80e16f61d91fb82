package repair

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/storage"
)

// TestResetMatchesNewManager: a manager left mid-storm — tasks queued,
// transfers in flight, objects lost, signals running —
// reports, after the simulator, cluster, store and manager are reset and
// the store re-populated, exactly what a manager built for that run
// reports, whatever the new population's size.
func TestResetMatchesNewManager(t *testing.T) {
	cfg := Config{Mode: Parallel, MaxConcurrent: 2, Detection: dist.Must(dist.ExpMean(0.5))}
	ttf, rep := dist.Must(dist.ExpMean(60)), dist.Must(dist.ExpMean(40))
	report := func(m *Manager, horizon float64) []float64 {
		m.clst.StartFailures()
		m.sim.RunUntil(horizon)
		return []float64{
			float64(m.Completed()), m.BytesMovedMB(), float64(m.LostObjects()), m.RepairTimes().Max(),
			m.MeanUnavailableObjects(), m.AnyUnavailableFraction(), m.ZeroCopyFraction(),
			float64(m.QueueLength()), float64(m.ActiveRepairs()), float64(m.RepairTimes().N()), m.RepairTimes().Mean(),
		}
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

// TestWarmRepairAllocatesNothing: on a world that has run a storm trial
// and been reset, the same trial again — well over a hundred repairs, every
// slot busy, tasks queued behind them — allocates next to nothing: the
// transfers, their callbacks, the detections and the queue come from what
// the first trial left in the manager, the calendar moves and removes
// events in place, OnLinkChange walks a snapshot the flow simulator keeps,
// and the store's node lists have room for most of what arrives. The
// budget is for the trial as a whole: the four allocations left are
// storage.Store.Relocate's appends. Before the records were pooled a
// trial made more than three allocations per repair.
func TestWarmRepairAllocatesNothing(t *testing.T) {
	const budget = 4
	cfg := Config{Mode: Parallel, MaxConcurrent: 4, Detection: dist.Must(dist.ExpMean(0.5))}
	s, cl, st, m := env(t, cfg, dist.Must(dist.ExpMean(400)), dist.Must(dist.ExpMean(20)))
	var place rng.Source
	trial := func() {
		s.Reset(42)
		cl.Reset()
		st.Reset()
		place.Reseed(7)
		if err := st.AddObjects(120, 4e5, storage.ReplicationScheme(3), &place); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		m.Start()
		cl.StartFailures()
		s.RunUntil(600)
	}
	trial()
	repairs := m.Completed()
	if repairs < 100 {
		t.Fatalf("the trial completed %d repairs: not a storm", repairs)
	}
	allocs := testing.AllocsPerRun(3, trial)
	if m.Completed() != repairs {
		t.Fatalf("the repeated trial completed %d repairs, the first %d", m.Completed(), repairs)
	}
	if allocs > budget {
		t.Errorf("a warm trial of %d repairs allocates %.0f times, budget %d", repairs, allocs, budget)
	}
	// The pools hold what was in flight at once, not what was repaired.
	m.Reset()
	if n := len(m.transfers.all); n != cfg.MaxConcurrent || len(m.transfers.idle) != n {
		t.Errorf("transfer pool after Reset: %d records, %d idle; want %d and %d (the slots)", n, len(m.transfers.idle), cfg.MaxConcurrent, cfg.MaxConcurrent)
	}
	if n := len(m.detections.all); n > cl.Size() || len(m.detections.idle) != n {
		t.Errorf("detection pool after Reset: %d records, %d idle; want at most one per node, all idle", n, len(m.detections.idle))
	}
	t.Logf("%d repairs, %.0f allocations a warm trial, %d transfer and %d detection records", repairs, allocs, len(m.transfers.all), len(m.detections.all))
}

// TestQueueReclaimsItsHead: the queue pops by advancing an index, so what
// is behind the index has to be handed back by enqueue — also when the
// queue never drains, as with tasks that find no target and are re-queued
// at every pump. FIFO order holds throughout and the slice stays at the
// size of what is waiting.
func TestQueueReclaimsItsHead(t *testing.T) {
	_, _, _, m := env(t, Config{Mode: Serial}, nil, nil)
	const waiting = 37
	next := 0
	push := func() {
		m.enqueue(task{from: next})
		next++
	}
	for i := 0; i < waiting; i++ {
		push()
	}
	for i := 0; i < 100_000; i++ {
		if got := m.queue[m.head].from; got != i {
			t.Fatalf("pop %d returned task %d", i, got)
		}
		m.head++
		push()
		if m.QueueLength() != waiting {
			t.Fatalf("after %d pops and pushes %d tasks wait, want %d", i+1, m.QueueLength(), waiting)
		}
	}
	if cap(m.queue) > 4*waiting {
		t.Fatalf("queue of %d tasks grew to capacity %d", waiting, cap(m.queue))
	}
	for m.QueueLength() > 0 {
		m.head++
	}
	push()
	if m.head != 0 || len(m.queue) != 1 {
		t.Fatalf("a push on a drained queue left head %d, len %d; want 0 and 1", m.head, len(m.queue))
	}
}

package sim

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestStationSingleJob(t *testing.T) {
	s := New(1)
	st, err := NewStation(s, "cpu", 1)
	if err != nil {
		t.Fatal(err)
	}
	var waited, total float64 = -1, -1
	st.Submit(5, func(w, tt float64) { waited, total = w, tt })
	s.Run()
	if waited != 0 {
		t.Errorf("waited = %v, want 0", waited)
	}
	if total != 5 {
		t.Errorf("total = %v, want 5", total)
	}
	if st.Completions() != 1 {
		t.Errorf("completions = %d, want 1", st.Completions())
	}
}

func TestStationFCFSQueueing(t *testing.T) {
	s := New(1)
	st, err := NewStation(s, "disk", 1)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		st.Submit(2, func(_, _ float64) { order = append(order, i) })
	}
	s.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order %v, want [0 1 2]", order)
	}
	if s.Now() != 6 {
		t.Fatalf("three sequential 2-unit jobs should end at 6, got %v", s.Now())
	}
}

func TestStationMultiServer(t *testing.T) {
	s := New(1)
	st, err := NewStation(s, "cpu", 2)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 2; i++ {
		st.Submit(3, func(_, _ float64) { done++ })
	}
	s.Run()
	if s.Now() != 3 {
		t.Fatalf("two jobs on two servers should finish at 3, got %v", s.Now())
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
}

func TestStationSpeedChangePreservesProgress(t *testing.T) {
	s := New(1)
	st, err := NewStation(s, "nic", 1)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	st.Submit(10, func(_, tt float64) { total = tt })
	// At t=5 the job is half done; halving the speed doubles the time for
	// the remaining half: 5 + 5/0.5 = 15.
	s.Schedule(5, "degrade", func() { st.SetSpeed(0.5) })
	s.Run()
	if math.Abs(total-15) > 1e-9 {
		t.Fatalf("sojourn = %v, want 15", total)
	}
}

// TestStationSpeedChangeAllocatesNothing: a speed change moves the
// completions of the jobs in service in the calendar; it builds no name
// and no callback (a freeze cancels them, the thaw schedules the job's one
// callback again), and the jobs still finish when they should.
func TestStationSpeedChangeAllocatesNothing(t *testing.T) {
	s := New(1)
	st, err := NewStation(s, "nic", 3)
	if err != nil {
		t.Fatal(err)
	}
	finished := 0
	for i := 0; i < 3; i++ {
		st.Submit(100, func(_, _ float64) { finished++ })
	}
	speeds := []float64{0.5, 1, 0, 2, 1}
	i := 0
	change := func() {
		st.SetSpeed(speeds[i%len(speeds)])
		i++
	}
	for range speeds {
		change() // back at speed 1, the arena and heap warm
	}
	if allocs := testing.AllocsPerRun(100, change); allocs != 0 {
		t.Fatalf("a speed change with %d jobs in service allocates %.1f times, want 0", st.InService(), allocs)
	}
	st.SetSpeed(1)
	if s.Pending() != 3 || s.allocated != 3 {
		t.Fatalf("%d events pending in %d slots, want the 3 completions in 3", s.Pending(), s.allocated)
	}
	s.Run()
	if finished != 3 || s.Now() != 100 { // no simulated time passed under the changes
		t.Fatalf("%d jobs finished by t=%v, want 3 by t=100", finished, s.Now())
	}
}

func TestStationFreezeAndThaw(t *testing.T) {
	s := New(1)
	st, err := NewStation(s, "nic", 1)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt Time = -1
	st.Submit(4, func(_, _ float64) { doneAt = s.Now() })
	s.Schedule(1, "freeze", func() { st.SetSpeed(0) })
	s.Schedule(11, "thaw", func() { st.SetSpeed(1) })
	s.Run()
	// 1 unit done before freeze, 3 remaining after thaw at t=11 => 14.
	if math.Abs(doneAt-14) > 1e-9 {
		t.Fatalf("completion at %v, want 14", doneAt)
	}
}

func TestStationMM1AgainstAnalytic(t *testing.T) {
	// M/M/1 with rho = 0.5: mean sojourn = 1/(mu-lambda) = 2.
	s := New(12345)
	st, err := NewStation(s, "q", 1)
	if err != nil {
		t.Fatal(err)
	}
	arr := s.Stream("arrivals")
	svc := s.Stream("service")
	const n = 200000
	var sum float64
	var count int
	var arrive func()
	i := 0
	arrive = func() {
		if i >= n {
			return
		}
		i++
		st.Submit(svc.ExpFloat64()/1.0, func(_, tt float64) {
			sum += tt
			count++
		})
		s.Schedule(arr.ExpFloat64()/0.5, "arrive", arrive)
	}
	s.Schedule(0, "arrive", arrive)
	s.Run()
	mean := sum / float64(count)
	if math.Abs(mean-2) > 0.1 {
		t.Fatalf("M/M/1 sim mean sojourn = %v, want 2.0 +- 0.1", mean)
	}
}

func TestStationMMcAgainstAnalytic(t *testing.T) {
	// M/M/3 with lambda=2, mu=1: Wq = 4/9, W = 4/9 + 1.
	s := New(777)
	st, err := NewStation(s, "q", 3)
	if err != nil {
		t.Fatal(err)
	}
	arr := s.Stream("arrivals")
	svc := s.Stream("service")
	const n = 200000
	var sumW float64
	var count int
	var arrive func()
	i := 0
	arrive = func() {
		if i >= n {
			return
		}
		i++
		st.Submit(svc.ExpFloat64(), func(_, tt float64) {
			sumW += tt
			count++
		})
		s.Schedule(arr.ExpFloat64()/2.0, "arrive", arrive)
	}
	s.Schedule(0, "arrive", arrive)
	s.Run()
	meanW := sumW / float64(count)
	want := 4.0/9 + 1
	if math.Abs(meanW-want) > 0.05 {
		t.Fatalf("M/M/3 sim W = %v, want %v +- 0.05", meanW, want)
	}
}

func TestStationRejectsBadInput(t *testing.T) {
	s := New(1)
	if _, err := NewStation(s, "x", 0); err == nil {
		t.Error("zero servers accepted")
	}
	st, err := NewStation(s, "x", 1)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-positive work accepted")
			}
		}()
		st.Submit(0, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative speed accepted")
			}
		}()
		st.SetSpeed(-1)
	}()
}

func TestStationThroughputConservation(t *testing.T) {
	// Arrivals = completions + in-service + waiting at every drain point.
	s := New(4)
	st, err := NewStation(s, "x", 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	for i := 0; i < 500; i++ {
		delay := Time(i) * 0.1
		s.Schedule(delay, "submit", func() {
			st.Submit(0.05+r.Float64(), nil)
		})
	}
	s.Run()
	if st.Arrivals() != st.Completions() {
		t.Fatalf("arrivals %d != completions %d after drain", st.Arrivals(), st.Completions())
	}
	if st.QueueLength() != 0 || st.InService() != 0 {
		t.Fatalf("residual jobs after drain: queue=%d active=%d", st.QueueLength(), st.InService())
	}
}

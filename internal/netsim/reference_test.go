package netsim

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// referenceMaxMin is the map-based progressive filling FlowSim.recompute
// used before its state became dense: per-call maps, every link's flows
// re-counted on every round, bottleneck ties left to map order. It is kept
// as the oracle the dense allocator is compared against, and only reads
// the flows.
func referenceMaxMin(flows []*Flow) map[*Flow]float64 {
	type linkState struct {
		residual float64
		flows    []*Flow
	}
	states := make(map[*Link]*linkState)
	rates := make(map[*Flow]float64)
	var unfrozen []*Flow
	for _, f := range flows {
		if !f.active {
			continue
		}
		unfrozen = append(unfrozen, f)
		rates[f] = math.Inf(1)
		for _, l := range f.route {
			st := states[l]
			if st == nil {
				st = &linkState{residual: l.Capacity}
				states[l] = st
			}
			st.flows = append(st.flows, f)
		}
	}
	frozen := make(map[int]bool)
	for len(unfrozen) > 0 {
		var bottleneck *Link
		share := math.Inf(1)
		for l, st := range states {
			n := 0
			for _, f := range st.flows {
				if !frozen[f.ID] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			if s := st.residual / float64(n); s < share {
				share = s
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		newUnfrozen := unfrozen[:0]
		for _, f := range unfrozen {
			crosses := false
			for _, l := range f.route {
				if l == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				newUnfrozen = append(newUnfrozen, f)
				continue
			}
			frozen[f.ID] = true
			rates[f] = share
			for _, l := range f.route {
				states[l].residual -= share
				if states[l].residual < 0 {
					states[l].residual = 0
				}
			}
		}
		unfrozen = newUnfrozen
	}
	return rates
}

// checkAgainstReference compares every active flow's allocated rate with
// the reference allocator's, to a relative 1e-12 (the two may break
// bottleneck ties differently, which moves a rate by a few ulps).
func checkAgainstReference(t *testing.T, fs *FlowSim, seed uint64, step int) bool {
	t.Helper()
	flows := fs.Flows()
	want := referenceMaxMin(flows)
	for _, f := range flows {
		if !f.active {
			continue
		}
		got, ref := f.Rate(), want[f]
		if got == ref { // also covers two infinities
			continue
		}
		if math.Abs(got-ref) > 1e-12*math.Max(math.Abs(got), math.Abs(ref)) {
			t.Logf("seed %d step %d: flow %d rate %v, reference %v", seed, step, f.ID, got, ref)
			return false
		}
	}
	return true
}

// steadyFlows starts n long-lived cross-rack flows on a 3x10 two-tier
// topology and runs their activation events.
func steadyFlows(tb testing.TB, n int) (*sim.Simulator, *FlowSim, []NodeID) {
	tb.Helper()
	topo, hosts, _, err := twoTier(TwoTierConfig{
		Racks: 3, HostsPerRack: 10, HostLinkCap: 1250, UplinkCap: 12500,
	})
	if err != nil {
		tb.Fatal(err)
	}
	s := sim.New(1)
	fs := NewFlowSim(s, topo)
	for i := 0; i < n; i++ {
		if _, err := fs.Start(hosts[i%len(hosts)], hosts[(i*7+11)%len(hosts)], 1e12, nil, nil); err != nil {
			tb.Fatal(err)
		}
	}
	s.RunUntil(0)
	return s, fs, hosts
}

// TestRecomputeSteadyStateAllocatesNothing pins the hot path's contract:
// once the scratch has grown to the topology and the flow set, a
// reallocation over 16 flows touches the heap not at all — no maps, no
// per-call slices, and no rescheduled completions, since no rate moved.
func TestRecomputeSteadyStateAllocatesNothing(t *testing.T) {
	s, fs, _ := steadyFlows(t, 16)
	if fs.Active() != 16 {
		t.Fatalf("%d flows in flight, want 16", fs.Active())
	}
	pending := s.Pending()
	if allocs := testing.AllocsPerRun(100, fs.recompute); allocs != 0 {
		t.Fatalf("recompute allocated %v times per call, want 0", allocs)
	}
	if s.Pending() != pending {
		t.Fatalf("recompute at unchanged rates rescheduled completions: %d pending events, was %d", s.Pending(), pending)
	}
}

// TestRecomputeStallsAndResumesFlow takes recompute through its three
// arms under OnLinkChange: a link throttled to nothing leaves its flow at
// rate 0 and takes its completion off the calendar (not aborted: the link
// is up), the bystander whose rate did not move keeps the very event it
// had, and when the capacity returns the stalled flow is scheduled again
// from the progress it had banked.
func TestRecomputeStallsAndResumesFlow(t *testing.T) {
	topo, hosts, err := SingleSwitch(4, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	fs := NewFlowSim(s, topo)
	doneAt := map[*Flow]sim.Time{}
	done := func(f *Flow) { doneAt[f] = s.Now() }
	stalled, err := fs.Start(hosts[0], hosts[1], 1000, done, func(*Flow, error) { t.Error("the stalled flow was aborted") })
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := fs.Start(hosts[2], hosts[3], 1000, done, nil)
	if err != nil {
		t.Fatal(err)
	}
	access := stalled.Route()[0]
	var kept *sim.Event
	s.Schedule(4, "throttle", func() {
		kept = bystander.event
		access.Capacity = 0
		fs.OnLinkChange()
		if stalled.Rate() != 0 || stalled.event != nil || stalled.Remaining() != 600 {
			t.Errorf("stalled flow: rate %v, event pending %v, remaining %v; want 0, false, 600",
				stalled.Rate(), stalled.event != nil, stalled.Remaining())
		}
		if bystander.event != kept || bystander.Rate() != 100 {
			t.Errorf("bystander at rate %v had its completion touched", bystander.Rate())
		}
		if s.Pending() != 2 { // the bystander's completion and the restore below
			t.Errorf("%d events pending during the stall, want 2", s.Pending())
		}
	})
	s.Schedule(9, "restore", func() {
		access.Capacity = 100
		fs.OnLinkChange()
		if stalled.Rate() != 100 || stalled.event == nil {
			t.Errorf("restored flow: rate %v, event pending %v", stalled.Rate(), stalled.event != nil)
		}
	})
	s.Run()
	if doneAt[bystander] != 10 || doneAt[stalled] != 15 {
		t.Fatalf("bystander done at %v, stalled flow at %v; want 10 and 15", doneAt[bystander], doneAt[stalled])
	}
	if fs.Aborted() != 0 || fs.Completed() != 2 {
		t.Fatalf("%d aborted, %d completed; want 0 and 2", fs.Aborted(), fs.Completed())
	}
}

// TestFailedCallbackStartsReplacementFlow drives the repair manager's
// requeue pattern through a link failure: the failed callback of each
// aborted flow starts a replacement while OnLinkChange is still walking
// the flow set. Every flow that was active must be visited exactly once,
// in start order, and the replacements must survive, activate and share
// the bandwidth.
func TestFailedCallbackStartsReplacementFlow(t *testing.T) {
	topo, hosts, err := SingleSwitch(4, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	fs := NewFlowSim(s, topo)
	var abortOrder []int
	var replacements []*Flow
	retry := func(f *Flow, _ error) {
		abortOrder = append(abortOrder, f.ID)
		// hosts[0] just lost its link; read from hosts[1] instead.
		r, err := fs.Start(hosts[1], f.Dst, 500, nil, func(*Flow, error) {
			t.Error("replacement flow aborted by the failure it replaces")
		})
		if err != nil {
			t.Fatal(err)
		}
		replacements = append(replacements, r)
	}
	for _, dst := range []NodeID{hosts[2], hosts[3], hosts[2]} {
		if _, err := fs.Start(hosts[0], dst, 500, nil, retry); err != nil {
			t.Fatal(err)
		}
	}
	bystander, err := fs.Start(hosts[1], hosts[3], 500, nil, func(*Flow, error) {
		t.Error("flow off the failed link aborted")
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(0)

	topo.SetLinkUp(topo.Links()[0], false) // hosts[0]'s only link
	fs.OnLinkChange()

	if len(abortOrder) != 3 || abortOrder[0] != 0 || abortOrder[1] != 1 || abortOrder[2] != 2 {
		t.Fatalf("failed callbacks ran for flows %v, want [0 1 2]", abortOrder)
	}
	if fs.Aborted() != 3 || fs.Active() != 4 {
		t.Fatalf("aborted=%d in-flight=%d, want 3 and 4 (bystander + 3 replacements)", fs.Aborted(), fs.Active())
	}
	if !bystander.IsActive() || bystander.Rate() != 100 {
		t.Fatalf("bystander active=%v rate=%v, want the whole 100 while replacements are in their latency phase",
			bystander.IsActive(), bystander.Rate())
	}
	s.RunUntil(s.Now())
	for _, r := range replacements {
		if !r.IsActive() || r.Rate() != 25 {
			t.Fatalf("replacement %d active=%v rate=%v, want 25 (hosts[1]'s link shared four ways)", r.ID, r.IsActive(), r.Rate())
		}
	}
	s.Run()
	if fs.Completed() != 4 || fs.Active() != 0 {
		t.Fatalf("completed=%d in-flight=%d, want 4 and 0", fs.Completed(), fs.Active())
	}
}

// BenchmarkFlowSimRepairStorm is the repair manager's traffic on the
// benchmark cluster: 16 transfer slots kept full over a 3x10 two-tier
// topology, every completion starting the next transfer. One iteration is
// one flow from Start to done, i.e. two flow events (activate, done), each
// a full reallocation over the other 15.
func BenchmarkFlowSimRepairStorm(b *testing.B) {
	topo, hosts, _, err := twoTier(TwoTierConfig{
		Racks: 3, HostsPerRack: 10, HostLinkCap: 1250, UplinkCap: 12500,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New(1)
	fs := NewFlowSim(s, topo)
	next := 0
	var start func()
	start = func() {
		src := hosts[next%len(hosts)]
		dst := hosts[(next*7+11)%len(hosts)]
		next++
		if _, err := fs.Start(src, dst, 64+float64(next%5), func(*Flow) { start() }, nil); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		start()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := fs.Completed(); fs.Completed() < done+int64(b.N); {
		if !s.Step() {
			b.Fatal("calendar drained")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/flow-event")
}

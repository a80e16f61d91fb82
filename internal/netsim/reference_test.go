package netsim

import (
	"fmt"
	"maps"
	"math"
	"slices"
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
				st = &linkState{residual: l.Capacity()}
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
	bystander, err := fs.Start(hosts[2], hosts[3], 1000, done, func(*Flow, error) { t.Error("the bystander was aborted") })
	if err != nil {
		t.Fatal(err)
	}
	access := stalled.Route()[0]
	var kept *sim.Event
	// The readings are taken at the end of each instant, after the solve
	// OnLinkChange registered for it.
	s.Schedule(4, "throttle", func() {
		kept = bystander.event
		fs.topo.SetCapacity(access, 0)
		fs.OnLinkChange()
		s.AtInstantEnd(func() {
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
	})
	s.Schedule(9, "restore", func() {
		fs.topo.SetCapacity(access, 100)
		fs.OnLinkChange()
		s.AtInstantEnd(func() {
			if stalled.Rate() != 100 || stalled.event == nil {
				t.Errorf("restored flow: rate %v, event pending %v", stalled.Rate(), stalled.event != nil)
			}
		})
	})
	s.Run()
	if doneAt[bystander] != 10 || doneAt[stalled] != 15 {
		t.Fatalf("bystander done at %v, stalled flow at %v; want 10 and 15", doneAt[bystander], doneAt[stalled])
	}
	if len(doneAt) != 2 {
		t.Fatalf("%d completed; want 2", len(doneAt))
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
	completed := 0
	done := func(*Flow) { completed++ }
	retry := func(f *Flow, _ error) {
		abortOrder = append(abortOrder, f.ID)
		// hosts[0] just lost its link; read from hosts[1] instead.
		r, err := fs.Start(hosts[1], f.Dst, 500, done, func(*Flow, error) {
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
	bystander, err := fs.Start(hosts[1], hosts[3], 500, done, func(*Flow, error) {
		t.Error("flow off the failed link aborted")
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(0)

	topo.SetLinkUp(topo.Links()[0], false) // hosts[0]'s only link
	fs.OnLinkChange()
	// The replacements' activations are pending at this instant; solve
	// ahead of them to read the bystander's rate in between.
	fs.solveNow()

	if len(abortOrder) != 3 || abortOrder[0] != 0 || abortOrder[1] != 1 || abortOrder[2] != 2 {
		t.Fatalf("failed callbacks ran for flows %v, want [0 1 2]", abortOrder)
	}
	if fs.Active() != 4 {
		t.Fatalf("in-flight=%d, want 4 (bystander + 3 replacements)", fs.Active())
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
	if completed != 4 || fs.Active() != 0 {
		t.Fatalf("completed=%d in-flight=%d, want 4 and 0", completed, fs.Active())
	}
}

// BenchmarkFlowSimRepairStorm is the repair manager's traffic on the
// benchmark cluster: 16 transfer slots kept full over a 3x10 two-tier
// topology, every completion starting the next transfer. One iteration is
// one flow from Start to done, i.e. two flow events (activate, done); the
// allocation over the other 15 is solved once per instant at which such
// events happen, not once per event.
func BenchmarkFlowSimRepairStorm(b *testing.B) {
	topo, hosts, _, err := twoTier(TwoTierConfig{
		Racks: 3, HostsPerRack: 10, HostLinkCap: 1250, UplinkCap: 12500,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New(1)
	fs := NewFlowSim(s, topo)
	next, completed := 0, 0
	var start func()
	start = func() {
		src := hosts[next%len(hosts)]
		dst := hosts[(next*7+11)%len(hosts)]
		next++
		if _, err := fs.Start(src, dst, 64+float64(next%5), func(*Flow) { completed++; start() }, nil); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		start()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for completed < b.N {
		if !s.Step() {
			b.Fatal("calendar drained")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/flow-event")
}

// TestLoneFinishSettlesEveryFlow: a flow that finishes alone on its links
// skips the solve but not the settling, so a flow elsewhere banks its
// progress at that instant as the solve would have, and its remaining
// bytes keep the bits of two settles, not of one longer one.
func TestLoneFinishSettlesEveryFlow(t *testing.T) {
	s := sim.New(1)
	topo, hosts, err := SingleSwitch(4, 3.7, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(s, topo)
	bystander, err := fs.Start(hosts[2], hosts[3], 1000, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var finished float64
	if _, err := fs.Start(hosts[0], hosts[1], 1.3, func(*Flow) { finished = s.Now() }, nil); err != nil {
		t.Fatal(err)
	}
	const later = 1.1
	s.RunUntil(later)
	fs.OnLinkChange() // settles every flow at later
	rate := bystander.Rate()
	want := (1000 - rate*(finished-0)) - rate*(later-finished)
	if once := 1000 - rate*(later-0); math.Float64bits(once) == math.Float64bits(want) {
		t.Fatalf("one settle and two give the same bits (%v): pick other sizes", want)
	}
	if finished == 0 || rate != 3.7 || math.Float64bits(bystander.Remaining()) != math.Float64bits(want) {
		t.Fatalf("lone flow finished at %v; bystander at rate %v has %v MB left, want %v",
			finished, rate, bystander.Remaining(), want)
	}
}

// fullRebuildRates is the allocation FlowSim.recompute computed before each
// link kept the list of its active flows: the link table rebuilt from every
// active flow's route on every call, and each round's bottleneck members
// found by scanning every unfrozen flow's route. It is kept as the oracle
// the lists are held to bit for bit, and only reads the flow simulator: it
// returns the rate of each flow in flight, index-aligned with fs.flows (0
// for one in its latency phase).
func fullRebuildRates(fs *FlowSim) []float64 {
	residual := make([]float64, len(fs.topo.links))
	crossing := make([]int, len(fs.topo.links))
	rates := make([]float64, len(fs.flows))
	var touched, unfrozen []int // link IDs; indices into fs.flows
	for i, f := range fs.flows {
		if !f.active {
			continue
		}
		unfrozen = append(unfrozen, i)
		rates[i] = math.Inf(1)
		for _, l := range f.route {
			if crossing[l.ID] == 0 {
				touched = append(touched, l.ID)
				residual[l.ID] = l.Capacity()
			}
			crossing[l.ID]++
		}
	}
	crosses := func(route []*Link, id int) bool {
		for _, l := range route {
			if l.ID == id {
				return true
			}
		}
		return false
	}
	for len(unfrozen) > 0 {
		bottleneck, share := -1, math.Inf(1)
		for _, id := range touched {
			n := crossing[id]
			if n == 0 {
				continue
			}
			if s := residual[id] / float64(n); s < share || (s == share && id < bottleneck) {
				bottleneck, share = id, s
			}
		}
		if bottleneck < 0 {
			break
		}
		keep := unfrozen[:0]
		for _, i := range unfrozen {
			f := fs.flows[i]
			if !crosses(f.route, bottleneck) {
				keep = append(keep, i)
				continue
			}
			rates[i] = share
			for _, l := range f.route {
				r := residual[l.ID] - share
				if r < 0 {
					r = 0
				}
				residual[l.ID] = r
				crossing[l.ID]--
			}
		}
		unfrozen = keep
	}
	return rates
}

// solveNow runs the solve registered for the end of the current instant
// at once, ahead of the events still pending at it, so a test can read the
// allocation between two of them. The registration stays with the
// simulator: when it runs it solves again only if a change since has
// marked the flow simulator dirty.
func (fs *FlowSim) solveNow() { fs.solve() }

// checkIncremental holds a flow simulator's incremental state to what it
// stands for at the end of an instant, once no solve is pending: every
// active flow's rate is fullRebuildRates' bit for bit, and its completion
// is pending at that rate exactly when the rate is positive and finite;
// and the lists are as checkLists holds them.
func checkIncremental(fs *FlowSim) error {
	if fs.dirty {
		return fmt.Errorf("a solve is pending: the rates are not the instant's yet")
	}
	return checkState(fs, true)
}

// checkLists holds what a flow simulator keeps current between two changes
// at one instant, its rates aside: each link's list holds exactly the
// active flows that cross it, as many times as they do; no flow in its
// latency phase is on any list; busy lists exactly the links whose list is
// not empty, each at the index its busyAt names; and no active flow
// crosses a link that is down.
func checkLists(fs *FlowSim) error { return checkState(fs, false) }

func checkState(fs *FlowSim, rates bool) error {
	want := map[int]map[*Flow]int{}
	for i, rate := range fullRebuildRates(fs) {
		f := fs.flows[i]
		if !f.active {
			continue
		}
		if rates {
			if math.Float64bits(f.rate) != math.Float64bits(rate) {
				return fmt.Errorf("flow %d: rate %v (%#x), the full rebuild gives %v (%#x)",
					f.ID, f.rate, math.Float64bits(f.rate), rate, math.Float64bits(rate))
			}
			if completes := rate > 0 && !math.IsInf(rate, 1); completes != (f.event != nil) ||
				(completes && math.Float64bits(f.eventRate) != math.Float64bits(rate)) {
				return fmt.Errorf("flow %d at rate %v: completion pending %v, scheduled at rate %v",
					f.ID, rate, f.event != nil, f.eventRate)
			}
		}
		if broken(f.route) {
			return fmt.Errorf("active flow %d crosses a link that is down", f.ID)
		}
		for _, l := range f.route {
			if want[l.ID] == nil {
				want[l.ID] = map[*Flow]int{}
			}
			want[l.ID][f]++
		}
	}
	for id := range fs.links {
		ls := &fs.links[id]
		got := map[*Flow]int{}
		for _, f := range ls.flows {
			if !f.active || !slices.Contains(fs.flows, f) {
				return fmt.Errorf("link %d lists flow %d, which is not active", id, f.ID)
			}
			got[f]++
		}
		if !maps.Equal(got, want[id]) {
			return fmt.Errorf("link %d lists %d flows, %d active flows cross it", id, len(ls.flows), len(want[id]))
		}
		if busy := len(ls.flows) > 0; busy != (ls.busyAt > 0) ||
			(busy && (ls.busyAt > len(fs.busy) || fs.busy[ls.busyAt-1] != id)) {
			return fmt.Errorf("link %d with %d flows has busyAt %d in %v", id, len(ls.flows), ls.busyAt, fs.busy)
		}
	}
	if len(want) != len(fs.busy) {
		return fmt.Errorf("%d links carry an active flow, busy holds %d", len(want), len(fs.busy))
	}
	return nil
}

// TestOnLinkChangeAllocatesNothing: taking a link's capacity down and back,
// and failing and restoring the link under flows that can reroute, costs
// OnLinkChange and the instant's solve no allocation once the flow
// simulator has done it before —
// the walk's snapshot is the flow simulator's, a reroute writes over the
// flow's own route, and the lists are put back in place.
func TestOnLinkChangeAllocatesNothing(t *testing.T) {
	s, fs, _ := steadyFlows(t, 16)
	uplink := fs.topo.links[0]
	throttle := func() {
		fs.topo.SetCapacity(uplink, uplink.Capacity()/4)
		fs.OnLinkChange()
		fs.topo.SetCapacity(uplink, uplink.Capacity()*4)
		fs.OnLinkChange()
		s.RunUntil(s.Now()) // the instant's solve
	}
	throttle()
	if allocs := testing.AllocsPerRun(100, throttle); allocs != 0 {
		t.Errorf("a throttle and its undoing allocated %v times, want 0", allocs)
	}
	if err := checkIncremental(fs); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 16 {
		t.Fatalf("%d events pending, want the 16 completions", s.Pending())
	}

	// Two parallel paths a-s1-b and a-s2-b, four flows over the first.
	topo := NewTopology()
	a, b := topo.AddNode(Host, "a"), topo.AddNode(Host, "b")
	s1, s2 := topo.AddNode(Switch, "s1"), topo.AddNode(Switch, "s2")
	for _, pair := range [][2]NodeID{{a, s1}, {s1, b}, {a, s2}, {s2, b}} {
		if _, err := topo.AddLink(pair[0], pair[1], 100, 0); err != nil {
			t.Fatal(err)
		}
	}
	s = sim.New(1)
	fs = NewFlowSim(s, topo)
	for i := 0; i < 4; i++ {
		if _, err := fs.Start(a, b, 1e12, nil, func(*Flow, error) { t.Error("a reroutable flow failed") }); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(0)
	first, second := topo.links[0], topo.links[2]
	flap := func() {
		topo.SetLinkUp(first, false)
		fs.OnLinkChange()
		topo.SetLinkUp(first, true)
		topo.SetLinkUp(second, false)
		fs.OnLinkChange()
		topo.SetLinkUp(second, true)
		s.RunUntil(s.Now()) // the instant's solve
	}
	flap()
	if allocs := testing.AllocsPerRun(100, flap); allocs != 0 {
		t.Errorf("rerouting four flows there and back allocated %v times, want 0", allocs)
	}
	if err := checkIncremental(fs); err != nil {
		t.Fatal(err)
	}
	if fs.Active() != 4 {
		t.Fatalf("%d in flight; want 4", fs.Active())
	}
}

// TestOnLinkChangeReentered: a failed callback that changes another link
// and calls OnLinkChange again, while the outer call is still walking its
// snapshot. The nested walk handles the flows broken by then, the outer one
// goes on over its own snapshot — every flow that was active when it began
// is looked at once, in start order — and the state afterwards is what a
// full rebuild gives.
func TestOnLinkChangeReentered(t *testing.T) {
	topo, hosts, err := SingleSwitch(6, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	fs := NewFlowSim(s, topo)
	var aborted []int
	cutSecond := true
	failed := func(f *Flow, _ error) {
		aborted = append(aborted, f.ID)
		if cutSecond {
			cutSecond = false
			topo.SetLinkUp(topo.Links()[4], false) // hosts[4]'s link
			fs.OnLinkChange()
		}
	}
	// Flows 0 and 3 lose hosts[0]'s link, 2 and 4 hosts[4]'s, 1 and 5 keep
	// theirs.
	for _, p := range [][2]int{{0, 1}, {2, 3}, {4, 5}, {0, 5}, {3, 4}, {1, 5}} {
		if _, err := fs.Start(hosts[p[0]], hosts[p[1]], 1e9, nil, failed); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(0)
	topo.SetLinkUp(topo.Links()[0], false) // hosts[0]'s link
	fs.OnLinkChange()
	s.RunUntil(s.Now()) // the instant's solve
	if !slices.Equal(aborted, []int{0, 2, 3, 4}) {
		t.Fatalf("failed callbacks ran for flows %v, want [0 2 3 4]: 0 in the outer walk, then 2, 3 and 4 in the nested one", aborted)
	}
	if fs.Active() != 2 || len(fs.walk) != 0 {
		t.Fatalf("%d in flight, %d snapshot entries left; want 2 and 0", fs.Active(), len(fs.walk))
	}
	if err := checkIncremental(fs); err != nil {
		t.Fatal(err)
	}
	for _, f := range fs.Flows() {
		if f.Rate() != 100 {
			t.Errorf("surviving flow %d at rate %v, want 100", f.ID, f.Rate())
		}
	}
}

// TestOneSolvePerInstant: the allocation is solved once per simulated
// instant, not once per change made at it. k flows that share a link
// activate at one instant: the first is alone and takes the solo path, the
// other k-1 each mark the flow simulator dirty, and one solve at the
// instant's end gives each its share. They finish together, at one
// instant, and that is one solve again (the last to finish is alone and
// only settles). k link changes from outside at one instant are one solve
// too, run before RunUntil returns.
func TestOneSolvePerInstant(t *testing.T) {
	const k = 8
	topo, hosts, err := SingleSwitch(k+1, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	fs := NewFlowSim(s, topo)
	var doneAt []sim.Time
	for i := 0; i < k; i++ {
		if _, err := fs.Start(hosts[i], hosts[k], 100, func(*Flow) { doneAt = append(doneAt, s.Now()) }, nil); err != nil {
			t.Fatal(err)
		}
	}
	if fs.solves != 0 {
		t.Fatalf("%d solves before any flow activated", fs.solves)
	}
	s.RunUntil(1) // the activations at 1, then the instant's end
	if fs.solves != 1 {
		t.Fatalf("%d same-instant activations took %d solves, want 1", k, fs.solves)
	}
	if err := checkIncremental(fs); err != nil {
		t.Fatal(err)
	}
	for _, f := range fs.Flows() {
		if f.Rate() != 100.0/k {
			t.Fatalf("flow %d at rate %v, want %v", f.ID, f.Rate(), 100.0/k)
		}
	}

	fs.solves = 0
	s.Run()
	if len(doneAt) != k || doneAt[0] != doneAt[k-1] {
		t.Fatalf("completions at %v, want %d at one instant", doneAt, k)
	}
	if fs.solves != 1 {
		t.Fatalf("%d same-instant finishes took %d solves, want 1", k, fs.solves)
	}

	s, fs, _ = steadyFlows(t, 16)
	fs.solves = 0
	uplink := fs.topo.links[0]
	for i := 0; i < k; i++ {
		fs.topo.SetCapacity(uplink, uplink.Capacity()/2)
		fs.OnLinkChange()
	}
	if fs.solves != 0 {
		t.Fatalf("%d solves before the instant ended", fs.solves)
	}
	s.RunUntil(s.Now())
	if fs.solves != 1 {
		t.Fatalf("%d link changes at one instant took %d solves, want 1", k, fs.solves)
	}
	if err := checkIncremental(fs); err != nil {
		t.Fatal(err)
	}
}

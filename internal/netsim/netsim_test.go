package netsim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

func TestRouteSingleSwitch(t *testing.T) {
	topo, hosts, err := SingleSwitch(4, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	route, err := topo.Route(hosts[0], hosts[3])
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 2 {
		t.Fatalf("route length %d, want 2 (host-sw, sw-host)", len(route))
	}
	// Self route is empty.
	route, err = topo.Route(hosts[1], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 0 {
		t.Fatalf("self route has %d links, want 0", len(route))
	}
}

// twoTier is TwoTier with the handles most tests want, unpacked.
func twoTier(cfg TwoTierConfig) (*Topology, []NodeID, []NodeID, error) {
	net, err := TwoTier(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return net.Topo, net.Hosts, net.ToRs, nil
}

func TestRouteTwoTier(t *testing.T) {
	topo, hosts, tors, err := twoTier(TwoTierConfig{
		Racks: 3, HostsPerRack: 4, HostLinkCap: 125, UplinkCap: 1250, LinkLatency: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 12 || len(tors) != 3 {
		t.Fatalf("got %d hosts, %d tors", len(hosts), len(tors))
	}
	// Same rack: 2 hops. Cross rack: 4 hops (host-tor-core-tor-host).
	sameRack, err := topo.Route(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(sameRack) != 2 {
		t.Errorf("same-rack route %d links, want 2", len(sameRack))
	}
	crossRack, err := topo.Route(hosts[0], hosts[4])
	if err != nil {
		t.Fatal(err)
	}
	if len(crossRack) != 4 {
		t.Errorf("cross-rack route %d links, want 4", len(crossRack))
	}
	if got, want := RouteLatency(crossRack), 0.004; math.Abs(got-want) > 1e-12 {
		t.Errorf("cross-rack latency %v, want %v", got, want)
	}
}

func TestRouteAvoidsDownLinks(t *testing.T) {
	topo := NewTopology()
	a := topo.AddNode(Host, "a")
	b := topo.AddNode(Host, "b")
	s1 := topo.AddNode(Switch, "s1")
	s2 := topo.AddNode(Switch, "s2")
	// Two parallel paths a-s1-b and a-s2-b.
	l1, err := topo.AddLink(a, s1, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.AddLink(s1, b, 100, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.AddLink(a, s2, 100, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.AddLink(s2, b, 100, 0); err != nil {
		t.Fatal(err)
	}
	topo.SetLinkUp(l1, false)
	route, err := topo.Route(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range route {
		if !l.Up() {
			t.Fatal("route uses a down link")
		}
		if l == l1 {
			t.Fatal("route uses the failed link")
		}
	}
}

func TestRouteUnreachable(t *testing.T) {
	topo := NewTopology()
	a := topo.AddNode(Host, "a")
	b := topo.AddNode(Host, "b")
	if _, err := topo.Route(a, b); err == nil {
		t.Fatal("disconnected nodes produced a route")
	}
}

// TestTreeRouteMatchesBFS: on a forest a route is found by climbing to
// the common ancestor, and every answer — over 400 random forests and
// TwoTier and SingleSwitch builds, under random link states — is the
// breadth-first search's, link for link and error text for error text.
// A graph with a cycle is recognised as one and keeps the search.
func TestTreeRouteMatchesBFS(t *testing.T) {
	r := rng.New(17)
	compare := func(name string, topo *Topology) {
		t.Helper()
		if _, err := topo.Route(0, 1); err != nil && err.Error() != topo.noRoute(0, 1).Error() {
			t.Fatal(err)
		}
		if !topo.forest {
			t.Fatalf("%s: not recognised as a forest", name)
		}
		n := topo.Nodes()
		for state := 0; state < 8; state++ {
			for _, l := range topo.Links() {
				topo.SetLinkUp(l, state == 0 || r.Float64() < 0.8)
			}
			for q := 0; q < 40; q++ {
				src, dst := NodeID(r.Intn(n)), NodeID(r.Intn(n))
				if src == dst {
					continue
				}
				got, gotErr := topo.Route(src, dst)
				want, wantErr := topo.search(nil, src, dst)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
					t.Fatalf("%s, %s -> %s: climbed %v (%v), the search found %v (%v)",
						name, topo.Name(src), topo.Name(dst), got, gotErr, want, wantErr)
				}
			}
		}
	}
	for f := 0; f < 400; f++ {
		// Nodes join in a random order, each hung off a random earlier one
		// or starting a tree of its own; links are added in a shuffled order.
		n := 2 + r.Intn(30)
		topo := NewTopology()
		for i := 0; i < n; i++ {
			topo.AddNode(Host, fmt.Sprintf("n%d", i))
		}
		order := r.Perm(n)
		var edges [][2]NodeID
		for i := 1; i < n; i++ {
			if r.Float64() < 0.85 {
				edges = append(edges, [2]NodeID{NodeID(order[i]), NodeID(order[r.Intn(i)])})
			}
		}
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, e := range edges {
			if _, err := topo.AddLink(e[0], e[1], 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		compare(fmt.Sprintf("forest %d", f), topo)
	}
	for racks := 1; racks <= 5; racks++ {
		for hosts := 1; hosts <= 6; hosts++ {
			net, err := TwoTier(TwoTierConfig{Racks: racks, HostsPerRack: hosts, HostLinkCap: 1, UplinkCap: 10})
			if err != nil {
				t.Fatal(err)
			}
			compare(fmt.Sprintf("two-tier %dx%d", racks, hosts), net.Topo)
		}
	}
	star, _, err := SingleSwitch(9, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	compare("single switch", star)

	// Two cores under every ToR close cycles: the search answers. A link
	// added after a route was found makes the topology work its shape out
	// again.
	net, err := TwoTier(TwoTierConfig{Racks: 3, HostsPerRack: 2, HostLinkCap: 1, UplinkCap: 10})
	if err != nil {
		t.Fatal(err)
	}
	compare("two-tier before its second core", net.Topo)
	net.Topo.Reset()
	second := net.Topo.AddNode(Switch, "core-2")
	for _, tor := range net.ToRs {
		if _, err := net.Topo.AddLink(tor, second, 10, 0); err != nil {
			t.Fatal(err)
		}
	}
	net.Topo.SetLinkUp(net.Uplinks[0], false)
	route, err := net.Topo.Route(net.Hosts[0], net.Hosts[5])
	if err != nil || net.Topo.forest || len(route) != 4 {
		t.Fatalf("two cores: forest=%v, route %v (%v), want the 4 links through core-2", net.Topo.forest, route, err)
	}
}

func TestLinkValidation(t *testing.T) {
	topo := NewTopology()
	a := topo.AddNode(Host, "a")
	if _, err := topo.AddLink(a, a, 100, 0); err == nil {
		t.Error("self link accepted")
	}
	if _, err := topo.AddLink(a, NodeID(99), 100, 0); err == nil {
		t.Error("link to missing node accepted")
	}
	b := topo.AddNode(Host, "b")
	if _, err := topo.AddLink(a, b, 0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := topo.AddLink(a, b, 10, -1); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestSingleFlowFullBandwidth(t *testing.T) {
	s := sim.New(1)
	topo, hosts, err := SingleSwitch(2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(s, topo)
	var doneAt sim.Time = -1
	delivered, completed := 0.0, 0
	if _, err := fs.Start(hosts[0], hosts[1], 500, func(*Flow) { doneAt, delivered = s.Now(), 500; completed++ }, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// 500 MB at 100 MB/unit = 5 units.
	if math.Abs(doneAt-5) > 1e-9 {
		t.Fatalf("flow finished at %v, want 5", doneAt)
	}
	if completed != 1 || delivered != 500 {
		t.Fatalf("completed=%d bytes=%v", completed, delivered)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	s := sim.New(1)
	topo, hosts, err := SingleSwitch(3, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(s, topo)
	var t1, t2 sim.Time = -1, -1
	// Both flows target host 2: its access link is the shared bottleneck.
	if _, err := fs.Start(hosts[0], hosts[2], 100, func(*Flow) { t1 = s.Now() }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Start(hosts[1], hosts[2], 100, func(*Flow) { t2 = s.Now() }, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// Each gets 50 MB/unit while both active: both finish at t=2.
	if math.Abs(t1-2) > 1e-9 || math.Abs(t2-2) > 1e-9 {
		t.Fatalf("flows finished at %v, %v; want 2, 2", t1, t2)
	}
}

func TestFlowSpeedsUpWhenCompetitorFinishes(t *testing.T) {
	s := sim.New(1)
	topo, hosts, err := SingleSwitch(3, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(s, topo)
	var tBig sim.Time = -1
	if _, err := fs.Start(hosts[0], hosts[2], 300, func(*Flow) { tBig = s.Now() }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Start(hosts[1], hosts[2], 100, func(*Flow) {}, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// Shared 50/50 until small flow finishes at t=2 (100MB at 50), big has
	// 200 left, then full 100 MB/unit: 2 more units. Total 4.
	if math.Abs(tBig-4) > 1e-9 {
		t.Fatalf("big flow finished at %v, want 4", tBig)
	}
}

func TestMaxMinUnevenPaths(t *testing.T) {
	// Flow A crosses a narrow uplink; flow B shares only the wide access
	// link with A and should get the leftovers (max-min, not equal split).
	s := sim.New(1)
	topo, hosts, _, err := twoTier(TwoTierConfig{
		Racks: 2, HostsPerRack: 2, HostLinkCap: 100, UplinkCap: 30, LinkLatency: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(s, topo)
	var tA, tB sim.Time = -1, -1
	// A: cross-rack (bottleneck 30). B: same-rack to A's source host peer.
	if _, err := fs.Start(hosts[0], hosts[2], 30, func(*Flow) { tA = s.Now() }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Start(hosts[1], hosts[0], 70, func(*Flow) { tB = s.Now() }, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// A is limited to 30 by the uplink. B shares host-0's access link
	// (100) with A: max-min gives B 70, A 30. Both finish at t=1.
	if math.Abs(tA-1) > 1e-9 {
		t.Errorf("flow A finished at %v, want 1", tA)
	}
	if math.Abs(tB-1) > 1e-9 {
		t.Errorf("flow B finished at %v, want 1", tB)
	}
}

func TestFlowLatencyDelaysStart(t *testing.T) {
	s := sim.New(1)
	topo, hosts, err := SingleSwitch(2, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(s, topo)
	var doneAt sim.Time = -1
	if _, err := fs.Start(hosts[0], hosts[1], 100, func(*Flow) { doneAt = s.Now() }, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// Latency 2*0.5 = 1, then 1 unit of transfer.
	if math.Abs(doneAt-2) > 1e-9 {
		t.Fatalf("flow finished at %v, want 2", doneAt)
	}
}

func TestLinkFailureAbortsUnreroutableFlow(t *testing.T) {
	s := sim.New(1)
	topo, hosts, err := SingleSwitch(2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(s, topo)
	var failErr error
	aborted := 0
	if _, err := fs.Start(hosts[0], hosts[1], 1000, nil, func(_ *Flow, err error) { failErr = err; aborted++ }); err != nil {
		t.Fatal(err)
	}
	s.Schedule(1, "cut", func() {
		topo.SetLinkUp(topo.Links()[0], false)
		fs.OnLinkChange()
	})
	s.Run()
	if failErr == nil {
		t.Fatal("flow was not aborted by link failure")
	}
	if aborted != 1 {
		t.Fatalf("aborted = %d, want 1", aborted)
	}
}

func TestLinkFailureReroutesWhenPossible(t *testing.T) {
	s := sim.New(1)
	topo := NewTopology()
	a := topo.AddNode(Host, "a")
	b := topo.AddNode(Host, "b")
	s1 := topo.AddNode(Switch, "s1")
	s2 := topo.AddNode(Switch, "s2")
	l1, err := topo.AddLink(a, s1, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]NodeID{{s1, b}, {a, s2}, {s2, b}} {
		if _, err := topo.AddLink(pair[0], pair[1], 100, 0); err != nil {
			t.Fatal(err)
		}
	}
	fs := NewFlowSim(s, topo)
	var doneAt sim.Time = -1
	if _, err := fs.Start(a, b, 200, func(*Flow) { doneAt = s.Now() }, func(*Flow, error) { t.Error("a reroutable flow failed") }); err != nil {
		t.Fatal(err)
	}
	s.Schedule(1, "cut", func() {
		topo.SetLinkUp(l1, false)
		fs.OnLinkChange()
	})
	s.Run()
	// 100 MB delivered in unit 1, link cut, rerouted via s2, remaining
	// 100 MB takes 1 more unit. Finish at 2.
	if math.Abs(doneAt-2) > 1e-9 {
		t.Fatalf("rerouted flow finished at %v, want 2", doneAt)
	}
}

func TestLocalFlowCompletesImmediately(t *testing.T) {
	s := sim.New(1)
	topo, hosts, err := SingleSwitch(2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(s, topo)
	done := false
	if _, err := fs.Start(hosts[0], hosts[0], 500, func(*Flow) { done = true }, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !done {
		t.Fatal("local flow did not complete")
	}
	if s.Now() != 0 {
		t.Fatalf("local flow took %v time units, want 0", s.Now())
	}
}

func TestFlowCancel(t *testing.T) {
	s := sim.New(1)
	topo, hosts, err := SingleSwitch(2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(s, topo)
	called := false
	f, err := fs.Start(hosts[0], hosts[1], 500, func(*Flow) { called = true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Schedule(1, "cancel", func() { fs.Cancel(f) })
	s.Run()
	if called {
		t.Fatal("cancelled flow invoked done callback")
	}
	if fs.Active() != 0 {
		t.Fatalf("active = %d after cancel", fs.Active())
	}
}

func TestFlowValidation(t *testing.T) {
	s := sim.New(1)
	topo, hosts, err := SingleSwitch(2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(s, topo)
	if _, err := fs.Start(hosts[0], hosts[1], 0, nil, nil); err == nil {
		t.Error("zero-size flow accepted")
	}
	if _, err := fs.Start(hosts[0], hosts[1], -5, nil, nil); err == nil {
		t.Error("negative-size flow accepted")
	}
}

func TestManyFlowsConservation(t *testing.T) {
	// All started flows eventually complete, and delivered bytes match.
	s := sim.New(9)
	topo, hosts, _, err := twoTier(TwoTierConfig{
		Racks: 3, HostsPerRack: 3, HostLinkCap: 125, UplinkCap: 500, LinkLatency: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(s, topo)
	r := s.Stream("traffic")
	total, delivered := 0.0, 0.0
	completed := 0
	const n = 200
	for i := 0; i < n; i++ {
		src := hosts[r.Intn(len(hosts))]
		dst := hosts[r.Intn(len(hosts))]
		for dst == src {
			dst = hosts[r.Intn(len(hosts))]
		}
		size := 1 + 99*r.Float64()
		total += size
		delay := 10 * r.Float64()
		s.Schedule(delay, "start-flow", func() {
			if _, err := fs.Start(src, dst, size, func(*Flow) { delivered += size; completed++ }, nil); err != nil {
				t.Errorf("flow start failed: %v", err)
			}
		})
	}
	s.Run()
	if completed != n {
		t.Fatalf("completed %d of %d flows", completed, n)
	}
	if math.Abs(delivered-total) > 1e-6*total {
		t.Fatalf("delivered %v MB, want %v", delivered, total)
	}
}

// TestTwoTierHandsBackItsLinks: Access and Uplinks are index-aligned
// with Hosts and ToRs and are the topology's own links.
func TestTwoTierHandsBackItsLinks(t *testing.T) {
	net, err := TwoTier(TwoTierConfig{Racks: 3, HostsPerRack: 4, HostLinkCap: 10, UplinkCap: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Access) != len(net.Hosts) || len(net.Uplinks) != len(net.ToRs) ||
		len(net.Access)+len(net.Uplinks) != len(net.Topo.Links()) {
		t.Fatalf("%d access links for %d hosts, %d uplinks for %d ToRs, %d links in all",
			len(net.Access), len(net.Hosts), len(net.Uplinks), len(net.ToRs), len(net.Topo.Links()))
	}
	joins := func(l *Link, a, b NodeID) bool { return (l.A == a && l.B == b) || (l.A == b && l.B == a) }
	for i, l := range net.Access {
		if !joins(l, net.Hosts[i], net.ToRs[i/4]) || l.Capacity() != 10 || net.Topo.Links()[l.ID] != l {
			t.Errorf("Access[%d] = %+v does not join host %d to ToR %d", i, *l, net.Hosts[i], net.ToRs[i/4])
		}
	}
	for r, l := range net.Uplinks {
		if !joins(l, net.ToRs[r], 0) || l.Capacity() != 40 || net.Topo.Links()[l.ID] != l {
			t.Errorf("Uplinks[%d] = %+v does not join ToR %d to the core", r, *l, net.ToRs[r])
		}
	}
}

// TestResetMatchesFreshNetwork: a topology with links down and throttled
// and a flow simulator with transfers in flight behave, after their
// Resets (and the simulator's), as freshly built ones do — no flow
// left, no callback fired, same completion times bit for bit.
func TestResetMatchesFreshNetwork(t *testing.T) {
	cfg := TwoTierConfig{Racks: 2, HostsPerRack: 3, HostLinkCap: 100, UplinkCap: 150, LinkLatency: 0.01}
	storm := func(s *sim.Simulator, net *TwoTierNet, fs *FlowSim) (done []float64) {
		for i := range net.Hosts {
			src, dst := net.Hosts[i], net.Hosts[(i+4)%len(net.Hosts)]
			if _, err := fs.Start(src, dst, float64(50*(i+1)), func(*Flow) { done = append(done, s.Now()) }, nil); err != nil {
				panic(err)
			}
		}
		s.RunUntil(1.5)
		return done
	}
	s := sim.New(1)
	net, err := TwoTier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(s, net.Topo)
	storm(s, net, fs)
	fired := false
	if _, err := fs.Start(net.Hosts[0], net.Hosts[5], 1e9, func(*Flow) { fired = true }, func(*Flow, error) { fired = true }); err != nil {
		t.Fatal(err)
	}
	net.Topo.SetCapacity(net.Access[1], 7)
	net.Topo.SetLinkUp(net.Uplinks[0], false)
	fs.OnLinkChange()
	if fs.Active() == 0 {
		t.Fatal("the dirtying run left no flow in flight")
	}

	s.Reset(1)
	net.Topo.Reset()
	fs.Reset()
	if fs.Active() != 0 {
		t.Fatalf("after Reset: %d active", fs.Active())
	}
	if !net.Uplinks[0].Up() || net.Access[1].Capacity() != 100 {
		t.Fatalf("after Reset: uplink up=%v, access capacity %v", net.Uplinks[0].Up(), net.Access[1].Capacity())
	}
	freshSim := sim.New(1)
	freshNet, err := TwoTier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, want := storm(s, net, fs), storm(freshSim, freshNet, NewFlowSim(freshSim, freshNet.Topo))
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("%d completions after Reset, %d on a fresh network", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("completion %d at %v after Reset, %v on a fresh network", i, got[i], want[i])
		}
	}
	if fired {
		t.Error("a flow dropped by Reset ran a callback")
	}
	if id := fs.Flows(); len(id) > 0 && id[0].ID >= len(net.Hosts) {
		t.Errorf("flow IDs did not start over: %d", id[0].ID)
	}
}

// TestWarmFlowAllocatesNothing pins what FlowSim.Reset recycles: once a
// flow simulator has carried a run, the same run after a Reset allocates
// nothing — not the Flows, not their callbacks' closures, not their routes
// — and still no Flow is handed out twice between two Resets, where the
// caller of a finished flow's done may be holding it: each completion
// here starts the next transfer.
func TestWarmFlowAllocatesNothing(t *testing.T) {
	net, err := TwoTier(TwoTierConfig{Racks: 2, HostsPerRack: 3, HostLinkCap: 100, UplinkCap: 150, LinkLatency: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	fs := NewFlowSim(s, net.Topo)
	const flows = 40
	handed := make([]*Flow, 0, flows)
	completed := 0
	var start func(*Flow)
	start = func(f *Flow) {
		if f != nil {
			completed++
		}
		if len(handed) == flows {
			return
		}
		i := len(handed)
		src, dst := net.Hosts[i%len(net.Hosts)], net.Hosts[(i*5+i/7)%len(net.Hosts)] // some local, some cross-rack
		f, err := fs.Start(src, dst, float64(1+i%4), start, nil)
		if err != nil {
			t.Fatal(err)
		}
		handed = append(handed, f)
	}
	run := func() {
		s.Reset(1)
		net.Topo.Reset()
		fs.Reset()
		handed, completed = handed[:0], 0
		for i := 0; i < 4; i++ {
			start(nil)
		}
		s.RunUntil(10)
	}
	run()
	if completed != flows {
		t.Fatalf("%d of %d flows completed", completed, flows)
	}
	first := slices.Clone(handed)
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("a run on a warm flow simulator allocates %.0f times, want 0", allocs)
	}
	seen := map[*Flow]bool{}
	for _, f := range handed {
		if seen[f] {
			t.Fatalf("flow %d was handed out twice within one run", f.ID)
		}
		seen[f] = true
		if !slices.Contains(first, f) {
			t.Errorf("flow %d is not one of the first run's: Reset recycled nothing", f.ID)
		}
	}
}

// TestLatencyPhaseFlowSeesLinkFailure: OnLinkChange looks only at active
// flows, so a link that goes down while a flow is still in its latency
// phase is for the activation to see. With no other way to the destination
// the flow fails through its failed callback, as an active flow would; with
// one, it is rerouted and completes over links that are up. (Before the
// activation checked, the first flow completed at t = 1.04 at rate 100
// through the dead link.)
func TestLatencyPhaseFlowSeesLinkFailure(t *testing.T) {
	net, err := TwoTier(TwoTierConfig{Racks: 2, HostsPerRack: 2, HostLinkCap: 100, UplinkCap: 100, LinkLatency: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	fs := NewFlowSim(s, net.Topo)
	var failErr error
	completed, aborted := false, 0
	if _, err := fs.Start(net.Hosts[0], net.Hosts[3], 100,
		func(*Flow) { completed = true }, func(_ *Flow, err error) { failErr = err; aborted++ }); err != nil {
		t.Fatal(err)
	}
	s.Schedule(0.005, "cut", func() {
		net.Topo.SetLinkUp(net.Access[0], false) // hosts[0]'s only link
		fs.OnLinkChange()
	})
	s.Run()
	if completed || failErr == nil || aborted != 1 || fs.Active() != 0 {
		t.Fatalf("flow over a link cut in its latency phase: completed=%v at %v, failed with %v; %d aborted, %d in flight",
			completed, s.Now(), failErr, aborted, fs.Active())
	}

	// Two parallel paths a-s1-b and a-s2-b: the first one's cut reroutes.
	topo := NewTopology()
	a, b := topo.AddNode(Host, "a"), topo.AddNode(Host, "b")
	s1, s2 := topo.AddNode(Switch, "s1"), topo.AddNode(Switch, "s2")
	var cut *Link
	for _, pair := range [][2]NodeID{{a, s1}, {s1, b}, {a, s2}, {s2, b}} {
		l, err := topo.AddLink(pair[0], pair[1], 100, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if cut == nil {
			cut = l
		}
	}
	s = sim.New(1)
	fs = NewFlowSim(s, topo)
	var doneAt sim.Time = -1
	f, err := fs.Start(a, b, 200, func(*Flow) { doneAt = s.Now() }, func(*Flow, error) { t.Error("a reroutable flow failed") })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(f.Route(), cut) {
		t.Fatal("the flow does not start over the link the test cuts")
	}
	s.Schedule(0.005, "cut", func() {
		topo.SetLinkUp(cut, false)
		fs.OnLinkChange()
	})
	s.RunUntil(0.03)
	if !f.IsActive() || broken(f.Route()) || f.Rate() != 100 {
		t.Fatalf("after activation: active=%v, route over a down link %v, rate %v", f.IsActive(), broken(f.Route()), f.Rate())
	}
	s.Run()
	if doneAt != 2.02 {
		t.Fatalf("rerouted flow done at %v; want 2.02 (latency 0.02, then 200 MB at 100)", doneAt)
	}
}

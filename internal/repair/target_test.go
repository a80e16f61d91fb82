package repair

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// scanTarget is pickTarget as it was before the cluster kept its
// availability set: a scan of every node for the available ones that hold
// no shard of obj, and one draw among them from r. It is kept as the
// oracle pickTarget's draw is held to.
func scanTarget(cl *cluster.Cluster, obj *storage.Object, r *rng.Source) int {
	holds := map[int]bool{}
	for _, loc := range obj.Locations {
		holds[loc] = true
	}
	var candidates []int
	for id := 0; id < cl.Size(); id++ {
		if cl.Available(id) && !holds[id] {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[r.Intn(len(candidates))]
}

// TestAvailabilityIndexMatchesAvailable drives random node, rack and
// power-domain failures and restores over nested, overlapping domains, with
// cross-rack flows in flight so that a rack's failure aborts some. At every
// point a callback can look — node and domain callbacks, and a failed
// callback run by FailDomain's OnLinkChange, before the domain's nodes are
// vetoed and so while they are still available — the cluster's
// availability set is Available for every node, and pickTarget draws, for
// every object, the node the old scan of every node drew.
func TestAvailabilityIndexMatchesAvailable(t *testing.T) {
	s := sim.New(9)
	cl, st := bigCluster(t, s, 4, 5, nil, nil)
	if err := st.AddObjects(40, 64, storage.ReplicationScheme(3), rng.New(9)); err != nil {
		t.Fatal(err)
	}
	if err := st.AddObjects(10, 64, storage.RSScheme(12, 4), rng.New(9)); err != nil {
		t.Fatal(err)
	}
	// Not started: its repairs would move shards and take the draws.
	m, err := NewManager(s, cl, st, Config{Mode: Parallel, MaxConcurrent: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Two PDUs that overlap each other and cut across racks, a third
	// nested inside the first, and the whole facility.
	all := make([]int, cl.Size())
	for id := range all {
		all[id] = id
	}
	var power []*cluster.Domain
	for _, d := range []struct {
		name  string
		nodes []int
	}{
		{"pdu-a", []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"pdu-b", []int{7, 8, 9, 10, 11, 12, 13}},
		{"pdu-a1", []int{2, 3, 4}},
		{"utility", all},
	} {
		dom, err := cl.AddDomain(d.name, true, d.nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		power = append(power, dom)
	}

	checks := 0
	check := func(where string) {
		t.Helper()
		checks++
		set, count := cl.AvailableSet(), 0
		for id := 0; id < cl.Size(); id++ {
			if bit := set[id/64]>>(id%64)&1 == 1; bit != cl.Available(id) {
				t.Fatalf("%s: node %d's bit is %v, Available says %v", where, id, bit, cl.Available(id))
			}
			if cl.Available(id) {
				count++
			}
		}
		if cl.AvailableCount() != count {
			t.Fatalf("%s: AvailableCount %d, %d nodes available", where, cl.AvailableCount(), count)
		}
		r := s.Stream("repair-target")
		for _, obj := range st.Objects() {
			before := *r
			got := m.pickTarget(obj)
			after := *r
			*r = before
			if want := scanTarget(cl, obj, r); got != want || *r != after {
				t.Fatalf("%s: object %d (%v on %v): pickTarget drew %d, the scan %d", where, obj.ID, obj.Scheme, obj.Locations, got, want)
			}
		}
	}
	cl.OnNodeDown(func(n *cluster.Node) { check("node-down callback") })
	cl.OnNodeUp(func(n *cluster.Node) { check("node-up callback") })
	cl.OnDomainDown(func(*cluster.Domain) { check("domain-down callback") })
	cl.OnDomainUp(func(*cluster.Domain) { check("domain-up callback") })

	// The domain FailDomain is failing, if it is, and which nodes were
	// available when it was called.
	var failing *cluster.Domain
	wasAvailable := make([]bool, cl.Size())
	failDomain := func(d *cluster.Domain, fail func()) {
		failing = d
		for id := range wasAvailable {
			wasAvailable[id] = cl.Available(id)
		}
		fail()
		failing = nil
	}
	insideFailDomain, aborted := 0, 0
	failed := func(*netsim.Flow, error) {
		aborted++
		check("failed callback")
		if failing == nil {
			return
		}
		insideFailDomain++
		for _, id := range failing.NodeIDs() {
			if wasAvailable[id] && !cl.Available(id) {
				t.Fatalf("failed callback inside FailDomain(%s): node %d is already unavailable", failing.Name, id)
			}
		}
	}
	r := rng.New(3)
	refill := func() {
		for tries := 0; cl.Flow.Active() < 8 && tries < 40; tries++ {
			a, b := r.Intn(cl.Size()), r.Intn(cl.Size())
			if a/5 == b/5 {
				continue // same rack: no uplink on the route
			}
			// Unroutable while an endpoint is down: Start refuses, which is fine.
			cl.Flow.Start(cl.Nodes()[a].Host, cl.Nodes()[b].Host, 1e12, nil, failed)
		}
		s.RunUntil(s.Now())
	}
	for step := 0; step < 400; step++ {
		refill()
		switch id := r.Intn(cl.Size()); r.Intn(6) {
		case 0:
			cl.FailNode(id)
		case 1:
			cl.RestoreNode(id)
		case 2:
			rack := r.Intn(4)
			failDomain(cl.RackDomain(rack), func() { cl.FailRack(rack) })
		case 3:
			cl.RestoreRack(r.Intn(4))
		case 4:
			d := power[r.Intn(len(power))]
			failDomain(d, func() { cl.FailDomain(d) })
		default:
			cl.RestoreDomain(power[r.Intn(len(power))])
		}
		check("after an operation")
	}
	if insideFailDomain == 0 || aborted == 0 {
		t.Fatalf("no failed callback ran inside FailDomain (%d flows aborted): the case was not exercised", aborted)
	}
	t.Logf("%d checks, %d of them in a failed callback inside FailDomain, %d flows aborted", checks, insideFailDomain, aborted)
}

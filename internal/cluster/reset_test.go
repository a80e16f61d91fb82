package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/hardware"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// transcript runs every failure process of a cluster to the horizon and
// records what the callbacks saw, then what the cluster reports.
func transcript(s *sim.Simulator, c *Cluster, horizon float64) string {
	log := ""
	c.OnNodeDown(func(n *Node) { log += fmt.Sprintf("down %d@%v ", n.ID, s.Now()) })
	c.OnNodeUp(func(n *Node) { log += fmt.Sprintf("up %d@%v ", n.ID, s.Now()) })
	c.OnDiskFail(func(n *Node, d int) { log += fmt.Sprintf("disk %d/%d@%v ", n.ID, d, s.Now()) })
	c.OnDiskRepair(func(n *Node, d int) { log += fmt.Sprintf("diskok %d/%d@%v ", n.ID, d, s.Now()) })
	c.OnDomainDown(func(d *Domain) { log += fmt.Sprintf("dom %s@%v ", d.Name, s.Now()) })
	c.OnDomainUp(func(d *Domain) { log += fmt.Sprintf("domok %s@%v ", d.Name, s.Now()) })
	share := uptime(s, c)
	c.StartFailures()
	s.RunUntil(horizon)
	log += fmt.Sprintf("| failures %d available %d domains %d |",
		c.NodeFailures(), c.AvailableCount(), len(c.Domains()))
	for id := range c.Nodes() {
		log += fmt.Sprintf(" %v", share(id))
	}
	return log
}

// TestResetMatchesFreshBuild: a cluster left with nodes, a rack and an
// added domain down, a service throttle applied, a flow in flight and
// callbacks registered is, after Reset, the cluster Build returns — its
// failure processes replay a fresh cluster's transcript to the last
// digit, in plain and in keyed mode.
func TestResetMatchesFreshBuild(t *testing.T) {
	cat := hardware.DefaultCatalog()
	flaky := hardware.Spec{Name: "flaky", Kind: hardware.KindSwitch, ThroughputMBps: 1250,
		TTF: dist.Must(dist.ExpMean(300)), Repair: dist.Must(dist.ExpMean(30))}
	if err := cat.Add(flaky); err != nil {
		t.Fatal(err)
	}
	flaky.Name, flaky.Kind = "flaky-disk", hardware.KindDisk
	if err := cat.Add(flaky); err != nil {
		t.Fatal(err)
	}
	flaky.Name, flaky.Kind = "flaky-nic", hardware.KindNIC
	if err := cat.Add(flaky); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.DiskSpec, cfg.NICSpec, cfg.SwitchSpec = "flaky-disk", "flaky-nic", "flaky"
	cfg.NodeTTF, cfg.NodeRepair = dist.Must(dist.ExpMean(200)), dist.Must(dist.ExpMean(20))
	cfg.ComponentFailures, cfg.SwitchFailures = true, true

	s := sim.New(1)
	reused, err := Build(s, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	transcript(s, reused, 500)
	for _, a := range reused.Nodes() { // between whichever nodes are still connected
		for _, b := range reused.Nodes()[a.ID+1:] {
			if reused.Flow.Active() == 0 {
				_, _ = reused.Flow.Start(a.Host, b.Host, 1e12, nil, nil) // an error means no route: try the next pair
			}
		}
	}
	if reused.Flow.Active() == 0 {
		t.Fatal("no flow could be left in flight")
	}
	extra, err := reused.AddDomain("pdu", true, []int{0, 1, 5}, []*netsim.Link{reused.uplinks[1]})
	if err != nil {
		t.Fatal(err)
	}
	reused.FailDomain(extra)
	reused.FailRack(2)
	reused.FailNode(3)
	if err := reused.SetServiceThrottle(0.5); err != nil {
		t.Fatal(err)
	}

	for round, keyed := range []bool{false, true, true, false} {
		seed := uint64(5 + round)
		fresh := sim.New(seed)
		if keyed {
			s.ResetKeyed(seed, 3, round == 2)
			fresh = sim.NewKeyed(seed, 3, round == 2)
		} else {
			s.Reset(seed)
		}
		reused.Reset()
		if reused.AvailableCount() != reused.Size() || len(reused.Domains()) != cfg.Racks || reused.Flow.Active() != 0 ||
			reused.Nodes()[0].AccessLinkCapacity() != 1250*SecondsPerHour || !reused.RackDomain(2).Up() {
			t.Fatalf("round %d: after Reset %d/%d available, %d domains, %d flows, access capacity %v", round,
				reused.AvailableCount(), reused.Size(), len(reused.Domains()), reused.Flow.Active(), reused.Nodes()[0].AccessLinkCapacity())
		}
		built, err := Build(fresh, cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := transcript(s, reused, 400), transcript(fresh, built, 400); got != want {
			t.Fatalf("round %d (keyed=%v): reset cluster ran\n%s\nfresh cluster ran\n%s", round, keyed, got, want)
		}
	}
}

// TestBuildWiresLinksWithoutSearching: every node's access link and
// every rack's uplink are the ones TwoTier created for it. (Build used
// to find each by scanning all links — quadratic in the node count.)
func TestBuildWiresLinksWithoutSearching(t *testing.T) {
	cfg := testConfig()
	cfg.Racks, cfg.NodesPerRack = 50, 40
	_, c := build(t, cfg)
	for _, n := range c.Nodes() {
		l := n.accessLk
		if l == nil || (l.A != n.Host && l.B != n.Host) || c.Topo.Kind(l.A+l.B-n.Host) != netsim.Switch {
			t.Fatalf("node %d: access link %+v does not join host %d to a switch", n.ID, l, n.Host)
		}
	}
	for r, l := range c.uplinks {
		if l != c.RackDomain(r).Links()[0] || (l.A != 0 && l.B != 0) {
			t.Fatalf("rack %d: uplink %+v is not its domain's link to the core", r, l)
		}
	}
}

// components describes every node's disks and NIC as their getters see
// them.
func components(c *Cluster) string {
	var b strings.Builder
	for _, n := range c.Nodes() {
		for _, comp := range append(slices.Clone(n.Disks), n.NIC) {
			fmt.Fprintf(&b, "%d:%v ", comp.ID, comp.State())
		}
	}
	return b.String()
}

// TestResetRestoresHandFailedComponent: a disk and a NIC failed by hand,
// with no failure process ever started, are put back by Reset: every
// component then reads as a fresh build's, and a callback registered
// before the Reset never runs. Reset lists only the components that left
// their built state, and a component it put back is listed again by its
// next change.
func TestResetRestoresHandFailedComponent(t *testing.T) {
	s, c := build(t, testConfig())
	disk, nic := c.Nodes()[4].Disks[1], c.Nodes()[7].NIC
	fired := 0
	disk.OnRepair(func(*hardware.Component) { fired++ })
	s.RunUntil(5)
	disk.Fail()
	nic.Fail()
	if components(c) == components(mustBuild(t)) {
		t.Fatal("failing a disk and a NIC by hand changed nothing a getter sees")
	}
	for round := 0; round < 3; round++ {
		s.Reset(42)
		c.Reset()
		if got, want := components(c), components(mustBuild(t)); got != want {
			t.Fatalf("round %d: after Reset the components read\n%s\na fresh build's read\n%s", round, got, want)
		}
		disk.Fail()
		disk.Restore()
		if fired != 0 {
			t.Fatalf("round %d: a repair callback registered before Reset ran %d times", round, fired)
		}
		nic.Fail()
	}
}

// mustBuild is a fresh cluster of testConfig's shape.
func mustBuild(t *testing.T) *Cluster {
	_, c := build(t, testConfig())
	return c
}

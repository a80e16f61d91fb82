package cluster

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/hardware"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func testConfig() Config {
	return Config{
		Racks: 3, NodesPerRack: 4,
		DiskSpec: "hdd-7200", DisksPerNode: 2,
		NICSpec: "nic-10g", CPUSpec: "cpu-8c", MemSpec: "mem-16g",
		SwitchSpec: "switch-48p-10g",
	}
}

func build(t *testing.T, cfg Config) (*sim.Simulator, *Cluster) {
	t.Helper()
	s := sim.New(42)
	c, err := Build(s, hardware.DefaultCatalog(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

func TestBuildShape(t *testing.T) {
	_, c := build(t, testConfig())
	if c.Size() != 12 {
		t.Fatalf("size = %d, want 12", c.Size())
	}
	for i, n := range c.Nodes() {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
		if n.Rack != i/4 {
			t.Errorf("node %d in rack %d, want %d", i, n.Rack, i/4)
		}
		if len(n.Disks) != 2 {
			t.Errorf("node %d has %d disks, want 2", i, len(n.Disks))
		}
		if !c.Available(i) {
			t.Errorf("fresh node %d not available", i)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	s := sim.New(1)
	cat := hardware.DefaultCatalog()
	bad := testConfig()
	bad.Racks = 0
	if _, err := Build(s, cat, bad); err == nil {
		t.Error("zero racks accepted")
	}
	bad = testConfig()
	bad.DiskSpec = "nonexistent"
	if _, err := Build(s, cat, bad); err == nil {
		t.Error("unknown disk spec accepted")
	}
	bad = testConfig()
	bad.NodeTTF = dist.Must(dist.ExpMean(100))
	if _, err := Build(s, cat, bad); err == nil {
		t.Error("NodeTTF without NodeRepair accepted")
	}
}

func TestManualFailRestore(t *testing.T) {
	s, c := build(t, testConfig())
	downs, ups := 0, 0
	c.OnNodeDown(func(*Node) { downs++ })
	c.OnNodeUp(func(*Node) { ups++ })
	c.FailNode(3)
	if c.Available(3) {
		t.Fatal("failed node still available")
	}
	if c.AvailableCount() != 11 {
		t.Fatalf("available = %d, want 11", c.AvailableCount())
	}
	c.FailNode(3) // idempotent
	if downs != 1 {
		t.Fatalf("down callbacks = %d, want 1", downs)
	}
	c.RestoreNode(3)
	if !c.Available(3) || ups != 1 {
		t.Fatal("restore failed")
	}
	if c.NodeFailures() != 1 {
		t.Fatalf("failures = %d, want 1", c.NodeFailures())
	}
	_ = s
}

func TestRackFailureCorrelated(t *testing.T) {
	_, c := build(t, testConfig())
	downs := 0
	c.OnNodeDown(func(*Node) { downs++ })
	c.FailRack(1)
	// All 4 nodes of rack 1 become unavailable even though they are up.
	for i := 4; i < 8; i++ {
		if c.Available(i) {
			t.Errorf("node %d available during rack failure", i)
		}
		if !c.Nodes()[i].Up() {
			t.Errorf("node %d should still be 'up' (switch failed, not node)", i)
		}
	}
	if downs != 4 {
		t.Errorf("down callbacks = %d, want 4", downs)
	}
	if c.AvailableCount() != 8 {
		t.Errorf("available = %d, want 8", c.AvailableCount())
	}
	c.RestoreRack(1)
	if c.AvailableCount() != 12 {
		t.Errorf("available after restore = %d, want 12", c.AvailableCount())
	}
}

func TestNodeLifecycleUptime(t *testing.T) {
	cfg := testConfig()
	cfg.NodeTTF = dist.Must(dist.ExpMean(1000))
	cfg.NodeRepair = dist.Must(dist.NewDeterministic(10)) // ~1% downtime
	s, c := build(t, cfg)
	c.StartFailures()
	s.RunUntil(200000)
	// Mean uptime across nodes should be near 1000/1010.
	sum := 0.0
	for i := 0; i < c.Size(); i++ {
		sum += c.NodeUptime(i)
	}
	avg := sum / float64(c.Size())
	want := 1000.0 / 1010
	if math.Abs(avg-want) > 0.01 {
		t.Errorf("mean uptime %v, want ~%v", avg, want)
	}
	if c.NodeFailures() < 1000 {
		t.Errorf("only %d failures over 200k hours x 12 nodes", c.NodeFailures())
	}
}

func TestDiskFailureCallbacks(t *testing.T) {
	cfg := testConfig()
	cfg.ComponentFailures = true
	s, c := build(t, cfg)
	fails, repairs := 0, 0
	c.OnDiskFail(func(n *Node, d int) {
		if d < 0 || d >= len(n.Disks) {
			t.Errorf("bad disk index %d", d)
		}
		fails++
	})
	c.OnDiskRepair(func(*Node, int) { repairs++ })
	c.StartFailures()
	s.RunUntil(hardware.HoursPerYear * 20)
	if fails == 0 {
		t.Fatal("no disk failures in 20 simulated years of 24 disks")
	}
	if repairs == 0 || repairs > fails {
		t.Fatalf("repairs = %d, fails = %d", repairs, fails)
	}
}

func TestSwitchFailuresMakeRacksUnreachable(t *testing.T) {
	cfg := testConfig()
	cfg.SwitchFailures = true
	s, c := build(t, cfg)
	c.StartFailures()
	s.RunUntil(hardware.HoursPerYear * 50)
	if c.RackFailures() == 0 {
		t.Fatal("no rack failures in 50 years x 3 switches at 2% AFR")
	}
}

func TestFailedNodeAbortsFlows(t *testing.T) {
	s, c := build(t, testConfig())
	var failErr error
	// Start a transfer into node 5, then kill node 5 mid-flight.
	srcHost := c.Nodes()[0].Host
	dstHost := c.Nodes()[5].Host
	if _, err := c.Flow.Start(srcHost, dstHost, 1e9, nil,
		func(_ *netsim.Flow, e error) { failErr = e }); err != nil {
		t.Fatal(err)
	}
	s.Schedule(0.001, "kill", func() { c.FailNode(5) })
	s.RunUntil(1)
	if c.Flow.Aborted() != 1 {
		t.Fatalf("aborted flows = %d, want 1", c.Flow.Aborted())
	}
	if failErr == nil {
		t.Fatal("failed callback did not receive an error")
	}
}

func TestNodeUptimeFullWindow(t *testing.T) {
	s, c := build(t, testConfig())
	s.Schedule(10, "fail", func() { c.FailNode(0) })
	s.Schedule(20, "fix", func() { c.RestoreNode(0) })
	s.Schedule(40, "end", func() {})
	s.Run()
	if got := c.NodeUptime(0); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("uptime = %v, want 0.75", got)
	}
}

// TestDomainRestoreRechecksNodeState pins the fix for the blind ToR
// restore: a node that failed (or whose other covering domain failed)
// while a domain was down must NOT be reported back up when that domain
// recovers.
func TestDomainRestoreRechecksNodeState(t *testing.T) {
	_, c := build(t, testConfig())
	ups := 0
	var upNodes []int
	c.OnNodeUp(func(n *Node) { ups++; upNodes = append(upNodes, n.ID) })

	c.FailRack(1)    // nodes 4..7 unreachable
	c.FailNode(5)    // node 5 dies while its rack is dark
	c.RestoreRack(1) // ToR back: 4, 6, 7 recover — 5 must not
	if ups != 3 {
		t.Fatalf("up callbacks = %d (%v), want 3 (node 5 is still down)", ups, upNodes)
	}
	if c.Available(5) {
		t.Fatal("dead node reported available after rack restore")
	}
	if !c.Available(4) || !c.Available(6) || !c.Available(7) {
		t.Fatal("healthy rack-1 nodes not restored")
	}
	c.RestoreNode(5)
	if !c.Available(5) {
		t.Fatal("node 5 unavailable after its own repair")
	}
}

// TestDomainFailSkipsAlreadyDownNodes is the symmetric half: a domain
// failure reports only the nodes that actually transition.
func TestDomainFailSkipsAlreadyDownNodes(t *testing.T) {
	_, c := build(t, testConfig())
	downs := 0
	c.OnNodeDown(func(*Node) { downs++ })
	c.FailNode(4)
	c.FailRack(1)
	if downs != 4 { // node 4's own failure + 3 transitions from the rack blast
		t.Fatalf("down callbacks = %d, want 4", downs)
	}
}

// TestNestedDomains layers a PDU-style power domain over two racks and
// checks that availability is the conjunction of every covering domain:
// restoring the outer (PDU) domain while an inner (ToR) domain is down
// keeps the rack dark, and vice versa.
func TestNestedDomains(t *testing.T) {
	_, c := build(t, testConfig())
	// A "PDU" feeding racks 0 and 1 (nodes 0..7) through their uplinks.
	var links []*netsim.Link
	links = append(links, c.RackDomain(0).links...)
	links = append(links, c.RackDomain(1).links...)
	pdu, err := c.AddDomain("pdu-0", true, []int{0, 1, 2, 3, 4, 5, 6, 7}, links)
	if err != nil {
		t.Fatal(err)
	}
	if !pdu.Power || pdu.Name != "pdu-0" {
		t.Fatal("domain metadata lost")
	}

	c.FailDomain(pdu)
	if got := c.AvailableCount(); got != 4 {
		t.Fatalf("available during PDU outage = %d, want 4 (rack 2 only)", got)
	}
	// Exactly its racks: rack 2 untouched.
	for i := 8; i < 12; i++ {
		if !c.Available(i) {
			t.Fatalf("node %d outside the PDU domain went down", i)
		}
	}

	// ToR of rack 0 dies during the power outage. PDU restore must bring
	// back rack 1 but leave rack 0 dark (nested ToR state preserved).
	c.FailRack(0)
	c.RestoreDomain(pdu)
	for i := 0; i < 4; i++ {
		if c.Available(i) {
			t.Fatalf("node %d available while its ToR is down", i)
		}
	}
	for i := 4; i < 8; i++ {
		if !c.Available(i) {
			t.Fatalf("node %d not restored with the PDU", i)
		}
	}
	// The shared uplink of rack 0 must still be vetoed down.
	for _, l := range c.RackDomain(0).links {
		if l.Up() {
			t.Fatal("rack-0 uplink up while its ToR domain is down")
		}
	}
	c.RestoreRack(0)
	if c.AvailableCount() != 12 {
		t.Fatalf("available = %d, want 12", c.AvailableCount())
	}
	for _, l := range c.RackDomain(0).links {
		if !l.Up() {
			t.Fatal("rack-0 uplink still down after both domains recovered")
		}
	}
}

// TestDomainValidation checks AddDomain's input checking and the
// idempotence of fail/restore.
func TestDomainValidation(t *testing.T) {
	_, c := build(t, testConfig())
	if _, err := c.AddDomain("bad", false, []int{99}, nil); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := c.AddDomain("dup", false, []int{1, 1}, nil); err == nil {
		t.Error("duplicate node accepted")
	}
	d, err := c.AddDomain("ok", false, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	downs := 0
	c.OnNodeDown(func(*Node) { downs++ })
	c.FailDomain(d)
	c.FailDomain(d) // idempotent
	if downs != 2 {
		t.Fatalf("down callbacks = %d, want 2", downs)
	}
	c.RestoreDomain(d)
	c.RestoreDomain(d)
	if !c.Available(0) || !c.Available(1) {
		t.Fatal("nodes not restored")
	}
}

package power

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/hardware"
	"repro/internal/sim"
)

func testCluster(t *testing.T, seed uint64, racks, perRack int) (*sim.Simulator, *cluster.Cluster) {
	t.Helper()
	s := sim.New(seed)
	c, err := cluster.Build(s, hardware.DefaultCatalog(), cluster.Config{
		Racks: racks, NodesPerRack: perRack,
		DiskSpec: "hdd-7200", DisksPerNode: 2,
		NICSpec: "nic-10g", CPUSpec: "cpu-8c", MemSpec: "mem-16g",
		SwitchSpec: "switch-48p-10g",
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero (disabled) config invalid: %v", err)
	}
	good := Config{Enabled: true, PDUs: 2, UPSMinutes: 5, GeneratorStartProb: 0.9}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Enabled: true, PDUs: -1},
		{Enabled: true, UtilityTTF: dist.Must(dist.ExpMean(100))}, // missing repair
		{Enabled: true, UPSMinutes: -1},
		{Enabled: true, GeneratorStartProb: 1.5},
		{Enabled: true, IdleFraction: 2},
		{Enabled: true, Utilization: -0.1},
		{Enabled: true, PUE: 0.5},
		{Enabled: true, CarbonKgPerKWh: -1},
		{Enabled: true, CapFraction: 1},
		{Enabled: true, CapFraction: 0.2, CapStartHours: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	if _, err := Attach(sim.New(1), nil, nil, Config{}, 100); err == nil {
		t.Error("Attach accepted a disabled config")
	}
}

// TestNodeActiveWatts pins the per-node draw roll-up against the
// catalog: 2x hdd-7200 (8 W) + nic-10g (8 W) + cpu-8c (85 W) +
// mem-16g (5 W) = 114 W.
func TestNodeActiveWatts(t *testing.T) {
	_, c := testCluster(t, 1, 1, 1)
	w, err := NodeActiveWatts(hardware.DefaultCatalog(), c.Config())
	if err != nil {
		t.Fatal(err)
	}
	if w != 2*8+8+85+5 {
		t.Fatalf("node active watts = %v, want 114", w)
	}
}

// pduDomains returns the PDU failure domains Attach registered on c,
// found by the "pdu-<i>" names buildPDUs gives them, in PDU order.
func pduDomains(c *cluster.Cluster) []*cluster.Domain {
	var out []*cluster.Domain
	for _, d := range c.Domains() {
		if strings.HasPrefix(d.Name, "pdu-") {
			out = append(out, d)
		}
	}
	return out
}

// TestPDUDomainsCoverExactlyTheirRacks builds 2 PDUs over 4 racks and
// fails one: exactly its two racks must go dark (and still draw no
// power), while the other PDU's racks stay up.
func TestPDUDomainsCoverExactlyTheirRacks(t *testing.T) {
	s, c := testCluster(t, 1, 4, 3)
	p, err := Attach(s, c, hardware.DefaultCatalog(), Config{
		Enabled: true, PDUs: 2,
	}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	pdus := pduDomains(c)
	if len(pdus) != 2 {
		t.Fatalf("pdu domains = %d, want 2", len(pdus))
	}
	c.FailDomain(pdus[0])
	// Racks 0 and 1 (nodes 0..5) down, racks 2 and 3 (nodes 6..11) up.
	for i := 0; i < 6; i++ {
		if c.Available(i) {
			t.Fatalf("node %d available during its PDU outage", i)
		}
	}
	for i := 6; i < 12; i++ {
		if !c.Available(i) {
			t.Fatalf("node %d lost power from the wrong PDU", i)
		}
	}
	st := p.Stats(s.Now())
	if st.PeakKW <= 0 {
		t.Fatal("no peak power recorded")
	}
	c.RestoreDomain(pdus[0])
	if c.AvailableCount() != 12 {
		t.Fatalf("available after PDU restore = %d, want 12", c.AvailableCount())
	}
}

// TestPDUFailureCutsEnergy: a six-hour PDU outage over half the fleet
// must cut the integrated energy by a quarter relative to the uptime
// baseline.
func TestPDUFailureCutsEnergy(t *testing.T) {
	run := func(fail bool) Stats {
		s, c := testCluster(t, 1, 2, 2)
		p, err := Attach(s, c, hardware.DefaultCatalog(), Config{
			Enabled: true, PDUs: 2, PUE: 1, Utilization: 1, IdleFraction: 1,
		}, 24)
		if err != nil {
			t.Fatal(err)
		}
		if fail {
			pdu := pduDomains(c)[0]
			s.Schedule(6, "blast", func() { c.FailDomain(pdu) })
			s.Schedule(12, "fix", func() { c.RestoreDomain(pdu) })
		}
		s.RunUntil(24)
		return p.Stats(24)
	}
	base := run(false)
	out := run(true)
	// Half the nodes off for a quarter of the horizon: 1/8 less energy.
	want := base.EnergyKWh * (1 - 0.125)
	almost(t, "outage energy", out.EnergyKWh, want)
	almost(t, "baseline peak", base.PeakKW, out.PeakKW)
}

// TestUtilityOutageOutcomes drives the three deterministic outage
// resolutions — battery ride-through, generator pickup, facility
// blackout — with deterministic distributions.
func TestUtilityOutageOutcomes(t *testing.T) {
	run := func(cfg Config) (Stats, *cluster.Cluster, *sim.Simulator) {
		s, c := testCluster(t, 7, 2, 2)
		cfg.Enabled = true
		cfg.UtilityTTF = dist.Must(dist.NewDeterministic(100))
		cfg.UtilityRepair = dist.Must(dist.NewDeterministic(2)) // 2 h outages
		p, err := Attach(s, c, hardware.DefaultCatalog(), cfg, 150)
		if err != nil {
			t.Fatal(err)
		}
		s.RunUntil(150)
		return p.Stats(150), c, s
	}

	// Battery covers the whole outage.
	st, c, _ := run(Config{UPSMinutes: 180})
	if st.UtilityOutages != 1 || st.RideThroughOK != 1 || st.PowerLossEvents != 0 {
		t.Fatalf("ride-through outcome: %+v", st)
	}
	if c.AvailableCount() != 4 {
		t.Fatal("nodes lost after a covered outage")
	}

	// Generator starts inside the battery window.
	st, _, _ = run(Config{UPSMinutes: 30, GeneratorStartProb: 1, GeneratorStartHours: 0.25})
	if st.GeneratorStarts != 1 || st.PowerLossEvents != 0 {
		t.Fatalf("generator outcome: %+v", st)
	}

	// No generator, battery too small: blackout from battery exhaustion
	// (t=100.5) to utility restoration (t=102).
	st, c, s := run(Config{UPSMinutes: 30})
	if st.PowerLossEvents != 1 || st.RideThroughOK != 0 || st.GeneratorStarts != 0 {
		t.Fatalf("blackout outcome: %+v", st)
	}
	if c.AvailableCount() != 4 {
		t.Fatalf("facility not restored after blackout: %d nodes", c.AvailableCount())
	}
	_ = s
}

// TestUtilityBlackoutEnergyWindow pins the blackout's energy footprint:
// all nodes draw zero between battery exhaustion and restoration.
func TestUtilityBlackoutEnergyWindow(t *testing.T) {
	s, c := testCluster(t, 7, 2, 2)
	p, err := Attach(s, c, hardware.DefaultCatalog(), Config{
		Enabled:       true,
		UtilityTTF:    dist.Must(dist.NewDeterministic(10)),
		UtilityRepair: dist.Must(dist.NewDeterministic(4)),
		UPSMinutes:    60, // blackout over [11, 14)
		PUE:           1, Utilization: 1, IdleFraction: 1,
	}, 20)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(20)
	st := p.Stats(20)
	watts := 4 * 114.0 // 4 nodes x 114 W
	almost(t, "blackout energy", st.EnergyKWh, watts*(20-3)/1000)
}

// TestPowerCapThrottlesDrawAndLinks checks the cap window: active draw
// and access-link capacity drop during the cap and recover after it.
func TestPowerCapThrottlesDrawAndLinks(t *testing.T) {
	s, c := testCluster(t, 3, 1, 2)
	p, err := Attach(s, c, hardware.DefaultCatalog(), Config{
		Enabled:     true,
		PUE:         1,
		Utilization: 1, IdleFraction: 0.5,
		CapFraction: 0.5, CapStartHours: 10, CapDurationHours: 10,
	}, 40)
	if err != nil {
		t.Fatal(err)
	}
	var during, after float64
	s.Schedule(15, "probe-during", func() {
		during = c.Nodes()[0].AccessLinkCapacity()
	})
	s.Schedule(25, "probe-after", func() {
		after = c.Nodes()[0].AccessLinkCapacity()
	})
	s.RunUntil(40)
	if during != after/2 {
		t.Fatalf("capped access capacity %v, want half of %v", during, after)
	}
	st := p.Stats(40)
	// Draw: full 114 W for 30 h, capped 57+57*0.5=85.5 W for 10 h, x2 nodes.
	almost(t, "capped energy", st.EnergyKWh, 2*(114*30+85.5*10)/1000)
	almost(t, "peak under cap", st.PeakKW, 2*114.0/1000)
}

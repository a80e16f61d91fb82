package cost

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/power"
)

func cfg() cluster.Config {
	return cluster.Config{
		Racks: 2, NodesPerRack: 5,
		DiskSpec: "hdd-7200", DisksPerNode: 4,
		NICSpec: "nic-10g", CPUSpec: "cpu-8c", MemSpec: "mem-16g",
		SwitchSpec: "switch-48p-10g",
	}
}

func TestEstimateBreakdown(t *testing.T) {
	cat := hardware.DefaultCatalog()
	b, err := Estimate(cat, cfg(), DefaultPriceBook(), 3*hardware.HoursPerYear)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-computed capex: 10 nodes x (4x$100 + $250 + $400 + $160)
	// + 3 switches x $5000 = 10x1210 + 15000 = 27100.
	if b.CapexUSD != 27100 {
		t.Errorf("capex = %v, want 27100", b.CapexUSD)
	}
	if b.EnergyUSD <= 0 {
		t.Error("energy cost must be positive")
	}
	if b.ReplacementUSD <= 0 {
		t.Error("replacement cost must be positive over 3 years")
	}
	if b.TotalUSD() != b.CapexUSD+b.EnergyUSD+b.ReplacementUSD {
		t.Error("total != sum of parts")
	}
	if b.String() == "" {
		t.Error("empty breakdown string")
	}
}

// TestEstimateSumsInComponentOrder: rendered tables show cost.total to
// six digits and goldens hold its last bit, so Estimate must add one term
// per component in the order it always has — each disk, NIC, CPU, memory,
// then the switches — and needs no memory to do it.
func TestEstimateSumsInComponentOrder(t *testing.T) {
	cat, book, horizon := hardware.DefaultCatalog(), DefaultPriceBook(), 1234.5
	c := cfg()
	c.DisksPerNode = 7
	got, err := Estimate(cat, c, book, horizon)
	if err != nil {
		t.Fatal(err)
	}
	want := Breakdown{HorizonHours: horizon}
	add := func(name string, count float64) {
		sp, err := cat.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		want.CapexUSD += sp.CostUSD * count
		kwh := sp.PowerWatts / 1000 * horizon * book.PUE
		want.EnergyKWh += kwh * count
		want.EnergyUSD += kwh * book.USDPerKWh * count
		want.ReplacementUSD += horizon / sp.TTF.Mean() * count * (sp.CostUSD + book.ReplacementLaborUSD)
	}
	nodes := float64(c.Racks * c.NodesPerRack)
	for i := 0; i < c.DisksPerNode; i++ {
		add(c.DiskSpec, nodes)
	}
	add(c.NICSpec, nodes)
	add(c.CPUSpec, nodes)
	add(c.MemSpec, nodes)
	add(c.SwitchSpec, float64(c.Racks)+1)
	if got != want {
		t.Fatalf("Estimate = %+v\nwant      %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { Estimate(cat, c, book, horizon) }); allocs != 0 {
		t.Errorf("Estimate allocates %.0f times per call, want 0", allocs)
	}
	// An unknown spec is reported before anything is priced, whichever it is.
	for _, breakIt := range []func(*cluster.Config){
		func(c *cluster.Config) { c.DiskSpec = "nope" }, func(c *cluster.Config) { c.NICSpec = "nope" },
		func(c *cluster.Config) { c.CPUSpec = "nope" }, func(c *cluster.Config) { c.MemSpec = "nope" },
		func(c *cluster.Config) { c.SwitchSpec = "nope" },
	} {
		bad := cfg()
		breakIt(&bad)
		if b, err := Estimate(cat, bad, book, horizon); err == nil || b != (Breakdown{}) {
			t.Errorf("Estimate(%+v) = %+v, %v; want an error and nothing priced", bad, b, err)
		}
	}
}

func TestSSDCostsMoreThanHDD(t *testing.T) {
	cat := hardware.DefaultCatalog()
	hdd := cfg()
	ssd := cfg()
	ssd.DiskSpec = "ssd-nvme"
	bh, err := Estimate(cat, hdd, DefaultPriceBook(), hardware.HoursPerYear)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Estimate(cat, ssd, DefaultPriceBook(), hardware.HoursPerYear)
	if err != nil {
		t.Fatal(err)
	}
	if bs.TotalUSD() <= bh.TotalUSD() {
		t.Errorf("NVMe config $%v should cost more than HDD config $%v",
			bs.TotalUSD(), bh.TotalUSD())
	}
}

func TestLongerHorizonCostsMore(t *testing.T) {
	cat := hardware.DefaultCatalog()
	b1, err := Estimate(cat, cfg(), DefaultPriceBook(), hardware.HoursPerYear)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := Estimate(cat, cfg(), DefaultPriceBook(), 3*hardware.HoursPerYear)
	if err != nil {
		t.Fatal(err)
	}
	if b3.TotalUSD() <= b1.TotalUSD() {
		t.Error("3-year cost should exceed 1-year cost")
	}
	if b3.CapexUSD != b1.CapexUSD {
		t.Error("capex should not depend on horizon")
	}
}

func TestEstimateValidation(t *testing.T) {
	cat := hardware.DefaultCatalog()
	if _, err := Estimate(cat, cfg(), DefaultPriceBook(), 0); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := cfg()
	bad.DiskSpec = "bogus"
	if _, err := Estimate(cat, bad, DefaultPriceBook(), 100); err == nil {
		t.Error("unknown spec accepted")
	}
	badBook := PriceBook{USDPerKWh: -1, PUE: 1.5}
	if _, err := Estimate(cat, cfg(), badBook, 100); err == nil {
		t.Error("negative electricity price accepted")
	}
}

func TestPerUserMonthly(t *testing.T) {
	b := Breakdown{CapexUSD: 12000, HorizonHours: hardware.HoursPerYear}
	got, err := PerUserMonthlyUSD(b, 100)
	if err != nil {
		t.Fatal(err)
	}
	// $12000 over 12 months over 100 users = $10/user/month.
	if got < 9.9 || got > 10.1 {
		t.Errorf("per-user monthly = %v, want ~10", got)
	}
	if _, err := PerUserMonthlyUSD(b, 0); err == nil {
		t.Error("0 users accepted")
	}
}

func testClusterConfig() cluster.Config { return cfg() }

func TestEstimateWithPowerAddsHierarchy(t *testing.T) {
	cat := hardware.DefaultCatalog()
	cfg := testClusterConfig()
	book := DefaultPriceBook()
	base, err := Estimate(cat, cfg, book, 8766)
	if err != nil {
		t.Fatal(err)
	}
	if base.EnergyKWh <= 0 {
		t.Fatal("nameplate energy kWh not recorded")
	}
	pcfg := power.Config{Enabled: true, PDUs: 2, PDUSpec: "pdu-basic", UPSSpec: "ups-240kva"}
	b, err := EstimateWithPower(cat, cfg, pcfg, book, 8766)
	if err != nil {
		t.Fatal(err)
	}
	pdu, _ := cat.Get("pdu-basic")
	ups, _ := cat.Get("ups-240kva")
	wantCapex := base.CapexUSD + 2*pdu.CostUSD + ups.CostUSD
	if math.Abs(b.CapexUSD-wantCapex) > 1e-9 {
		t.Errorf("capex = %v, want %v", b.CapexUSD, wantCapex)
	}
	if b.ReplacementUSD <= base.ReplacementUSD {
		t.Error("hierarchy replacement spend missing")
	}
	if b.CarbonKg <= 0 {
		t.Error("flat carbon estimate missing")
	}
	// Disabled power config must be a no-op.
	off, err := EstimateWithPower(cat, cfg, power.Config{}, book, 8766)
	if err != nil {
		t.Fatal(err)
	}
	if off != base {
		t.Error("disabled power config changed the breakdown")
	}
	// PDU count clamps to the rack count.
	many := pcfg
	many.PDUs = 100
	clamped, err := EstimateWithPower(cat, cfg, many, book, 8766)
	if err != nil {
		t.Fatal(err)
	}
	wantClamped := base.CapexUSD + float64(cfg.Racks)*pdu.CostUSD + ups.CostUSD
	if math.Abs(clamped.CapexUSD-wantClamped) > 1e-9 {
		t.Errorf("clamped capex = %v, want %v", clamped.CapexUSD, wantClamped)
	}
	// Wrong-kind specs are rejected.
	wrong := pcfg
	wrong.PDUSpec = "ssd-sata"
	if _, err := EstimateWithPower(cat, cfg, wrong, book, 8766); err == nil {
		t.Error("disk spec accepted as a PDU")
	}
}

func TestWithMeasuredEnergy(t *testing.T) {
	cat := hardware.DefaultCatalog()
	book := DefaultPriceBook()
	b, err := Estimate(cat, testClusterConfig(), book, 8766)
	if err != nil {
		t.Fatal(err)
	}
	m := WithMeasuredEnergy(b, 1000, 0.5, book)
	if !m.EnergyMeasured || m.EnergyKWh != 1000 {
		t.Fatalf("measured energy not applied: %+v", m)
	}
	if m.EnergyUSD != 1000*book.USDPerKWh {
		t.Errorf("energy USD = %v, want %v", m.EnergyUSD, 1000*book.USDPerKWh)
	}
	if m.CarbonKg != 500 {
		t.Errorf("carbon = %v, want 500", m.CarbonKg)
	}
	if m.CapexUSD != b.CapexUSD || m.ReplacementUSD != b.ReplacementUSD {
		t.Error("measured energy changed non-energy items")
	}
}

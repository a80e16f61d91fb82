package sla

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/stats"
)

func result(av, loss float64, lats []float64) MapResult {
	s := &stats.Sample{}
	for _, l := range lats {
		s.Add(l)
	}
	return MapResult{
		Metrics:   map[string]float64{"availability": av, "loss_prob": loss},
		Latencies: map[string]*stats.Sample{"": s, "A": s},
	}
}

func TestAvailabilitySLA(t *testing.T) {
	a, err := NewAvailability(0.999)
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.Check(result(0.9995, 0, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Met || v.Margin <= 0 {
		t.Errorf("verdict %v, want met with positive margin", v)
	}
	v, err = a.Check(result(0.99, 0, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if v.Met || v.Margin >= 0 {
		t.Errorf("verdict %v, want violated with negative margin", v)
	}
}

func TestAvailabilityValidation(t *testing.T) {
	if _, err := NewAvailability(0); err == nil {
		t.Error("0 accepted")
	}
	if _, err := NewAvailability(1.5); err == nil {
		t.Error("1.5 accepted")
	}
}

func TestDurabilitySLA(t *testing.T) {
	d, err := NewDurability(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Check(result(1, 1e-9, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Met {
		t.Errorf("verdict %v, want met", v)
	}
	v, err = d.Check(result(1, 1e-3, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if v.Met {
		t.Errorf("verdict %v, want violated", v)
	}
	if _, err := NewDurability(-1); err == nil {
		t.Error("negative bound accepted")
	}
}

func TestLatencySLA(t *testing.T) {
	l, err := NewLatency("A", 0.95, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lats := make([]float64, 100)
	for i := range lats {
		lats[i] = 0.01 * float64(i+1) // p95 = 0.95s
	}
	v, err := l.Check(result(1, 0, lats))
	if err != nil {
		t.Fatal(err)
	}
	if v.Met {
		t.Errorf("p95=%v vs bound 0.5: want violated", v.Observed)
	}
	loose, err := NewLatency("A", 0.95, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	v, err = loose.Check(result(1, 0, lats))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Met {
		t.Errorf("p95=%v vs bound 1.0: want met", v.Observed)
	}
}

func TestLatencySLAMissingSample(t *testing.T) {
	l, err := NewLatency("missing", 0.95, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Check(result(1, 0, []float64{1})); err == nil {
		t.Error("missing workload sample did not error")
	}
}

func TestLatencyValidation(t *testing.T) {
	if _, err := NewLatency("", 0, 1); err == nil {
		t.Error("percentile 0 accepted")
	}
	if _, err := NewLatency("", 0.5, 0); err == nil {
		t.Error("bound 0 accepted")
	}
}

func TestTenantDistributionSLA(t *testing.T) {
	// 95% of tenants must have availability >= 0.99.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 0.999
	}
	vals[0], vals[1], vals[2] = 0.5, 0.5, 0.5 // 3 bad tenants -> 97% good
	td := TenantDistribution{
		Description: "95% of tenants >= 0.99 availability",
		Pool:        func(Result) (TenantPool, error) { return SplitTenants(vals), nil },
		AtLeast:     true,
		Threshold:   0.99,
		Fraction:    0.95,
	}
	v, err := td.Check(MapResult{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Met || v.Observed != 0.97 {
		t.Errorf("verdict %v, want met at 0.97", v)
	}
	td.Fraction = 0.98
	v, err = td.Check(MapResult{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Met {
		t.Errorf("verdict %v, want violated at required 0.98", v)
	}
}

func TestTenantDistributionValidation(t *testing.T) {
	td := TenantDistribution{Fraction: 0.5}
	if _, err := td.Check(MapResult{}); err == nil {
		t.Error("nil Pool accepted")
	}
	td = TenantDistribution{
		Fraction: 2,
		Pool:     func(Result) (TenantPool, error) { return TenantPool{Ones: 1}, nil },
	}
	if _, err := td.Check(MapResult{}); err == nil {
		t.Error("fraction 2 accepted")
	}
	td.Fraction = 0.5
	td.Pool = func(Result) (TenantPool, error) { return TenantPool{}, nil }
	if _, err := td.Check(MapResult{}); err == nil {
		t.Error("empty pool accepted")
	}
}

// denseVerdict is TenantDistribution.Check as it was when the pool was
// one float per tenant: a walk over every value. It is the reference the
// pool's counting is held to.
func denseVerdict(t TenantDistribution, vals []float64) Verdict {
	ok := 0
	for _, v := range vals {
		if (t.AtLeast && v >= t.Threshold) || (!t.AtLeast && v <= t.Threshold) {
			ok++
		}
	}
	frac := float64(ok) / float64(len(vals))
	return Verdict{
		SLA: t.Name(), Met: frac >= t.Fraction,
		Observed: frac, Target: t.Fraction, Margin: frac - t.Fraction,
	}
}

// TestTenantVerdictMatchesDense: the pool gives the dense walk's verdict,
// bit for bit, over seeded pools with exact ones, zeros, the float just
// below 1 and duplicates, at every threshold that sits on a stored value
// or on an edge of [0, 1], in both directions.
func TestTenantVerdictMatchesDense(t *testing.T) {
	justBelow := math.Nextafter(1, 0)
	r := rand.New(rand.NewPCG(26, 1))
	for round := 0; round < 200; round++ {
		vals := make([]float64, 1+r.IntN(300))
		for i := range vals {
			switch r.IntN(6) {
			case 0, 1:
				vals[i] = 1
			case 2:
				vals[i] = 0
			case 3:
				vals[i] = justBelow
			case 4:
				vals[i] = vals[r.IntN(i+1)] // a duplicate, or a zero
			default:
				vals[i] = r.Float64()
			}
		}
		pool := SplitTenants(vals)
		if err := pool.Validate(); err != nil {
			t.Fatal(err)
		}
		if pool.Len() != int64(len(vals)) {
			t.Fatalf("pool of %d values holds %d", len(vals), pool.Len())
		}
		thresholds := append([]float64{0, 1, justBelow, -1, 2, math.NaN(), math.Inf(-1)}, vals...)
		for _, th := range thresholds {
			for _, atLeast := range []bool{true, false} {
				td := TenantDistribution{
					Description: "tenants",
					Pool:        func(Result) (TenantPool, error) { return pool, nil },
					AtLeast:     atLeast,
					Threshold:   th,
					Fraction:    []float64{1, 0.5, 0.95, r.Float64() + 1e-9}[r.IntN(4)],
				}
				got, err := td.Check(MapResult{})
				if err != nil {
					t.Fatal(err)
				}
				want := denseVerdict(td, vals)
				if got.Met != want.Met || math.Float64bits(got.Observed) != math.Float64bits(want.Observed) ||
					math.Float64bits(got.Margin) != math.Float64bits(want.Margin) {
					t.Fatalf("round %d, threshold %v, atLeast %v: pool says %+v, dense walk %+v", round, th, atLeast, got, want)
				}
			}
		}
	}
}

func TestTenantPoolValidate(t *testing.T) {
	for _, p := range []TenantPool{
		{Ones: -1},
		{Ones: math.MaxInt64, Below: []float64{0.5}},
		{Below: []float64{0.5, 0.25}},
		{Below: []float64{1}},
		{Below: []float64{-0.25}},
		{Below: []float64{math.NaN()}},
	} {
		if p.Validate() == nil {
			t.Errorf("pool %+v accepted", p)
		}
	}
	if err := (TenantPool{Ones: 3, Below: []float64{0, 0, 0.5, math.Nextafter(1, 0)}}).Validate(); err != nil {
		t.Errorf("valid pool refused: %v", err)
	}
}

func TestCheckAll(t *testing.T) {
	a, err := NewAvailability(0.99)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurability(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	r := result(0.999, 1e-6, []float64{1})
	verdicts, all, err := CheckAll(r, []SLA{a, d})
	if err != nil {
		t.Fatal(err)
	}
	if !all || len(verdicts) != 2 {
		t.Errorf("all=%v verdicts=%d, want true/2", all, len(verdicts))
	}
	r2 := result(0.9, 1e-6, []float64{1})
	_, all, err = CheckAll(r2, []SLA{a, d})
	if err != nil {
		t.Fatal(err)
	}
	if all {
		t.Error("violated availability not detected")
	}
	// Missing metric errors out.
	bad := MapResult{Metrics: map[string]float64{}}
	if _, _, err := CheckAll(bad, []SLA{a}); err == nil {
		t.Error("missing metric did not error")
	}
}

func TestVerdictString(t *testing.T) {
	v := Verdict{SLA: "x", Met: true, Observed: 1, Target: 0.9, Margin: 0.1}
	if s := v.String(); s == "" {
		t.Error("empty verdict string")
	}
	v.Met = false
	if s := v.String(); s == "" {
		t.Error("empty verdict string")
	}
}

func TestPowerBudget(t *testing.T) {
	if _, err := NewPowerBudget(0); err == nil {
		t.Error("zero budget accepted")
	}
	s, err := NewPowerBudget(50)
	if err != nil {
		t.Fatal(err)
	}
	res := MapResult{Metrics: map[string]float64{"peak_kw": 42}}
	v, err := s.Check(res)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Met || v.Observed != 42 || v.Margin != 8 {
		t.Errorf("verdict %+v", v)
	}
	res.Metrics["peak_kw"] = 60
	if v, _ := s.Check(res); v.Met {
		t.Error("over-budget peak passed")
	}
	if _, err := s.Check(MapResult{Metrics: map[string]float64{}}); err == nil {
		t.Error("missing peak_kw metric not an error")
	}
}

func TestEnergyCost(t *testing.T) {
	if _, err := NewEnergyCost(0, 0.1); err == nil {
		t.Error("zero ceiling accepted")
	}
	if _, err := NewEnergyCost(100, 0); err == nil {
		t.Error("zero price accepted")
	}
	s, err := NewEnergyCost(100, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	// 900 kWh x $0.10 = $90 <= $100.
	v, err := s.Check(MapResult{Metrics: map[string]float64{"energy_kwh": 900}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Met || v.Observed != 90 {
		t.Errorf("verdict %+v", v)
	}
	// 1100 kWh x $0.10 = $110 > $100.
	if v, _ := s.Check(MapResult{Metrics: map[string]float64{"energy_kwh": 1100}}); v.Met {
		t.Error("over-ceiling energy cost passed")
	}
}

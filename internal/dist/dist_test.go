package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// momentCase pairs a distribution with a deterministic sampling seed.
// Tolerances are relative and sized for n = 200k draws: the standard
// error of the sample mean is sqrt(var/n), and the variance estimator is
// noisier for heavy-tailed families, so those get a wider band.
type momentCase struct {
	name    string
	d       Dist
	seed    uint64
	meanTol float64
	varTol  float64
}

const momentDraws = 200_000

func momentCases(t *testing.T) []momentCase {
	t.Helper()
	emp, err := NewEmpirical([]float64{1, 1, 2, 3, 5, 8, 13})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := NewMixture([]Component{
		{Weight: 0.8, Dist: Must(ExpMean(2))},
		{Weight: 0.2, Dist: Must(NewLogNormal(3, 0.5))},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []momentCase{
		{"weibull-infant", Must(NewWeibull(0.7, 1500)), 1, 0.02, 0.05},
		{"weibull-wearout", Must(NewWeibull(2.5, 100)), 2, 0.01, 0.03},
		{"lognormal", Must(NewLogNormal(2.0, 0.8)), 3, 0.01, 0.06},
		{"lognormal-moments", Must(LogNormalFromMoments(12, 1.2)), 4, 0.01, 0.08},
		{"exponential", Must(ExpMean(500)), 5, 0.01, 0.03},
		{"deterministic", Must(NewDeterministic(12)), 6, 1e-12, 1e-12},
		{"gamma-sub1", Must(NewGamma(0.5, 10)), 7, 0.01, 0.04},
		{"gamma-super1", Must(NewGamma(4, 2.5)), 8, 0.01, 0.03},
		{"pareto", Must(NewPareto(2, 4)), 9, 0.01, 0.25},
		{"empirical", emp, 10, 0.01, 0.03},
		{"mixture", mix, 11, 0.01, 0.05},
	}
}

// TestMomentMatching draws momentDraws variates per family with a fixed
// seed and checks the sample mean and variance against the analytic
// Mean()/Variance().
func TestMomentMatching(t *testing.T) {
	for _, c := range momentCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r := rng.New(c.seed)
			var sum, sumSq float64
			for i := 0; i < momentDraws; i++ {
				v := c.d.Sample(r)
				if math.IsNaN(v) || v < 0 {
					t.Fatalf("draw %d = %v", i, v)
				}
				sum += v
				sumSq += v * v
			}
			n := float64(momentDraws)
			gotMean := sum / n
			gotVar := sumSq/n - gotMean*gotMean
			wantMean, wantVar := c.d.Mean(), c.d.Variance()
			if relErr(gotMean, wantMean) > c.meanTol {
				t.Errorf("sample mean = %v, analytic = %v (rel err %.4f > %v)",
					gotMean, wantMean, relErr(gotMean, wantMean), c.meanTol)
			}
			if relErr(gotVar, wantVar) > c.varTol {
				t.Errorf("sample variance = %v, analytic = %v (rel err %.4f > %v)",
					gotVar, wantVar, relErr(gotVar, wantVar), c.varTol)
			}
		})
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestSamplingIsDeterministic: the same seed must reproduce the exact
// draw sequence — the wind tunnel's reproducibility contract.
func TestSamplingIsDeterministic(t *testing.T) {
	for _, c := range momentCases(t) {
		a, b := rng.New(c.seed), rng.New(c.seed)
		for i := 0; i < 1000; i++ {
			if va, vb := c.d.Sample(a), c.d.Sample(b); va != vb {
				t.Fatalf("%s: draw %d differs under identical seeds: %v vs %v", c.name, i, va, vb)
			}
		}
	}
}

// TestQuantileInvertsCDF checks Quantile(CDF(x)) ~ x on the continuous
// families and CDF(Quantile(p)) >= p everywhere.
func TestQuantileInvertsCDF(t *testing.T) {
	continuous := []Dist{
		Must(NewWeibull(0.7, 1500)),
		Must(NewLogNormal(2.0, 0.8)),
		Must(ExpMean(500)),
		Must(NewGamma(0.5, 10)),
		Must(NewGamma(4, 2.5)),
		Must(NewPareto(2, 4)),
	}
	ps := []float64{0.001, 0.03, 0.25, 0.5, 0.75, 0.95, 0.999}
	for _, d := range continuous {
		for _, p := range ps {
			x := d.Quantile(p)
			back := d.CDF(x)
			if math.Abs(back-p) > 1e-6 {
				t.Errorf("%s: CDF(Quantile(%v)) = %v", d, p, back)
			}
		}
	}
	// Discrete/degenerate families: only the inequality holds.
	others := []Dist{Must(NewDeterministic(12)), mustEmp(t)}
	for _, d := range others {
		for _, p := range ps {
			if got := d.CDF(d.Quantile(p)); got < p {
				t.Errorf("%s: CDF(Quantile(%v)) = %v < p", d, p, got)
			}
		}
	}
}

func mustEmp(t *testing.T) Empirical {
	t.Helper()
	e, err := NewEmpirical([]float64{1, 1, 2, 3, 5, 8, 13})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCDFIsMonotoneFrom0To1 sweeps each CDF across its support.
func TestCDFIsMonotoneFrom0To1(t *testing.T) {
	for _, c := range momentCases(t) {
		prev := -1.0
		hi := c.d.Mean() * 10
		if math.IsInf(hi, 0) {
			hi = 1e6
		}
		for i := 0; i <= 400; i++ {
			x := hi * float64(i) / 400
			f := c.d.CDF(x)
			if f < prev-1e-12 || f < 0 || f > 1 {
				t.Fatalf("%s: CDF not monotone in [0,1] at x=%v: %v after %v", c.name, x, f, prev)
			}
			prev = f
		}
		if c.d.CDF(-1) != 0 {
			t.Errorf("%s: CDF(-1) = %v, want 0", c.name, c.d.CDF(-1))
		}
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	w := Must(NewWeibull(1, 500))
	e := Must(ExpMean(500))
	for _, x := range []float64{1, 10, 100, 500, 2000} {
		if math.Abs(w.CDF(x)-e.CDF(x)) > 1e-12 {
			t.Errorf("Weibull(1, 500) and Exp(500) CDFs differ at %v", x)
		}
	}
	if math.Abs(w.Mean()-500) > 1e-9 {
		t.Errorf("Weibull(1, 500) mean = %v", w.Mean())
	}
}

func TestLogNormalFromMomentsMatchesRequested(t *testing.T) {
	l := Must(LogNormalFromMoments(12, 1.2))
	if math.Abs(l.Mean()-12)/12 > 1e-12 {
		t.Errorf("mean = %v, want 12", l.Mean())
	}
	cv := math.Sqrt(l.Variance()) / l.Mean()
	if math.Abs(cv-1.2) > 1e-9 {
		t.Errorf("cv = %v, want 1.2", cv)
	}
}

func TestParetoInfiniteMoments(t *testing.T) {
	if m := Must(NewPareto(1, 0.9)).Mean(); !math.IsInf(m, 1) {
		t.Errorf("Pareto(alpha=0.9) mean = %v, want +Inf", m)
	}
	if v := Must(NewPareto(1, 1.5)).Variance(); !math.IsInf(v, 1) {
		t.Errorf("Pareto(alpha=1.5) variance = %v, want +Inf", v)
	}
}

func TestConstructorValidation(t *testing.T) {
	bad := []func() error{
		func() error { _, err := NewWeibull(0, 1); return err },
		func() error { _, err := NewWeibull(1, -1); return err },
		func() error { _, err := NewWeibull(math.NaN(), 1); return err },
		func() error { _, err := NewLogNormal(math.Inf(1), 1); return err },
		func() error { _, err := NewLogNormal(0, 0); return err },
		func() error { _, err := LogNormalFromMoments(-1, 1); return err },
		func() error { _, err := LogNormalFromMoments(1, 0); return err },
		func() error { _, err := ExpMean(0); return err },
		func() error { _, err := NewDeterministic(-1); return err },
		func() error { _, err := NewDeterministic(math.Inf(1)); return err },
		func() error { _, err := NewGamma(0, 1); return err },
		func() error { _, err := NewGamma(1, 0); return err },
		func() error { _, err := NewPareto(0, 1); return err },
		func() error { _, err := NewPareto(1, 0); return err },
		func() error { _, err := NewEmpirical(nil); return err },
		func() error { _, err := NewEmpirical([]float64{1, -2}); return err },
		func() error { _, err := NewMixture(nil); return err },
		func() error { _, err := NewMixture([]Component{{Weight: 0, Dist: Must(ExpMean(1))}}); return err },
		func() error { _, err := NewMixture([]Component{{Weight: 1, Dist: nil}}); return err },
	}
	for i, f := range bad {
		if f() == nil {
			t.Errorf("invalid construction %d accepted", i)
		}
	}
}

func TestMustPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Must did not panic on constructor error")
		}
	}()
	Must(NewWeibull(-1, 1))
}

func TestDeterministicIsExact(t *testing.T) {
	d := Must(NewDeterministic(12))
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if d.Sample(r) != 12 {
			t.Fatal("deterministic draw differs from value")
		}
	}
	if d.CDF(11.999) != 0 || d.CDF(12) != 1 {
		t.Error("deterministic CDF is not a step at the value")
	}
}

func TestEmpiricalReplaysOnlyObservedValues(t *testing.T) {
	e := mustEmp(t)
	observed := map[float64]bool{1: true, 2: true, 3: true, 5: true, 8: true, 13: true}
	r := rng.New(3)
	for i := 0; i < 10_000; i++ {
		if v := e.Sample(r); !observed[v] {
			t.Fatalf("empirical produced unobserved value %v", v)
		}
	}
}

func TestMixtureWeightsNormalized(t *testing.T) {
	m, err := NewMixture([]Component{
		{Weight: 3, Dist: Must(NewDeterministic(1))},
		{Weight: 1, Dist: Must(NewDeterministic(5))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mean()-2) > 1e-12 {
		t.Errorf("mixture mean = %v, want 2", m.Mean())
	}
	// 3:1 mixture of point masses: variance = E[X^2]-4 = (0.75+0.25*25)-4 = 3.
	if math.Abs(m.Variance()-3) > 1e-12 {
		t.Errorf("mixture variance = %v, want 3", m.Variance())
	}
	r := rng.New(9)
	count1 := 0
	const draws = 100_000
	for i := 0; i < draws; i++ {
		if m.Sample(r) == 1 {
			count1++
		}
	}
	if frac := float64(count1) / draws; math.Abs(frac-0.75) > 0.01 {
		t.Errorf("component 1 drawn %.3f of the time, want ~0.75", frac)
	}
}

func TestNormQuantileAgainstErf(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-4} {
		x := normQuantile(p)
		back := 0.5 * math.Erfc(-x/math.Sqrt2)
		if math.Abs(back-p) > 1e-12*math.Max(1, 1/p) {
			t.Errorf("normQuantile(%v) = %v, CDF back = %v", p, x, back)
		}
	}
}

func TestRegIncGammaP(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 1, 3, 10} {
		want := -math.Expm1(-x)
		if got := regIncGammaP(1, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(1, %v) = %v, want %v", x, got, want)
		}
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := regIncGammaP(0.5, x); math.Abs(got-want) > 1e-10 {
			t.Errorf("P(0.5, %v) = %v, want %v", x, got, want)
		}
	}
}

func TestEmpiricalQuantileBoundary(t *testing.T) {
	// Quantile must return inf{x : CDF(x) >= p}: at p = k/n the k-th
	// order statistic already reaches p.
	e := Must(NewEmpirical([]float64{10, 20}))
	if got := e.Quantile(0.5); got != 10 {
		t.Errorf("Quantile(0.5) = %v, want 10 (CDF(10) = 0.5)", got)
	}
	if got := e.Quantile(0.51); got != 20 {
		t.Errorf("Quantile(0.51) = %v, want 20", got)
	}
	if got := e.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %v, want 10", got)
	}
}

func TestMixtureVarianceWithHeavyTail(t *testing.T) {
	m, err := NewMixture([]Component{
		{Weight: 0.5, Dist: Must(NewPareto(1, 1))}, // infinite mean
		{Weight: 0.5, Dist: Must(NewDeterministic(1))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Variance(); !math.IsInf(v, 1) {
		t.Errorf("heavy-tail mixture variance = %v, want +Inf", v)
	}
	if mu := m.Mean(); !math.IsInf(mu, 1) {
		t.Errorf("heavy-tail mixture mean = %v, want +Inf", mu)
	}
	// Infinite variance but finite mean (alpha in (1, 2]).
	m2, err := NewMixture([]Component{
		{Weight: 0.5, Dist: Must(NewPareto(1, 1.5))},
		{Weight: 0.5, Dist: Must(NewDeterministic(1))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := m2.Variance(); !math.IsInf(v, 1) {
		t.Errorf("infinite-variance mixture variance = %v, want +Inf", v)
	}
}

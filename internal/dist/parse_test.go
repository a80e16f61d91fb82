package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestParseFamilies(t *testing.T) {
	cases := []struct {
		spec string
		want Dist
	}{
		{"weibull(shape=0.7, scale=8760)", Must(NewWeibull(0.7, 8760))},
		{"weibull(0.7, 8760)", Must(NewWeibull(0.7, 8760))},
		{"WEIBULL( k = 0.7 , lambda = 8760 )", Must(NewWeibull(0.7, 8760))},
		{"lognormal(mu=2, sigma=0.8)", Must(NewLogNormal(2, 0.8))},
		{"lognormal(2, 0.8)", Must(NewLogNormal(2, 0.8))},
		{"lognormal(mean=12, cv=1.2)", Must(LogNormalFromMoments(12, 1.2))},
		{"exp(mean=500)", Must(ExpMean(500))},
		{"exponential(500)", Must(ExpMean(500))},
		{"exp(rate=0.002)", Exponential{Rate: 0.002}},
		{"det(12)", Must(NewDeterministic(12))},
		{"deterministic(value=12)", Must(NewDeterministic(12))},
		{"const(0)", Must(NewDeterministic(0))},
		{"gamma(shape=2, scale=5)", Must(NewGamma(2, 5))},
		{"pareto(xm=1, alpha=2.5)", Must(NewPareto(1, 2.5))},
		{"pareto(min=1, alpha=2.5)", Must(NewPareto(1, 2.5))},
		{"empirical(1, 2, 3.5)", Must(NewEmpirical([]float64{1, 2, 3.5}))},
	}
	for _, c := range cases {
		got, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if got.String() != c.want.String() {
			t.Errorf("Parse(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestParseMixture(t *testing.T) {
	d, err := Parse("mix(0.8*exp(mean=2), 0.2*lognormal(mu=3, sigma=0.5))")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := d.(Mixture)
	if !ok {
		t.Fatalf("parsed %T, want Mixture", d)
	}
	comps := m.Components()
	if len(comps) != 2 {
		t.Fatalf("%d components, want 2", len(comps))
	}
	if math.Abs(comps[0].Weight-0.8) > 1e-12 {
		t.Errorf("first weight = %v, want 0.8", comps[0].Weight)
	}
	if _, ok := comps[1].Dist.(LogNormal); !ok {
		t.Errorf("second component is %T, want LogNormal", comps[1].Dist)
	}
	// Nested mixtures work too.
	if _, err := Parse("mix(1*mix(2*det(1), 1*det(4)), 3*exp(mean=9))"); err != nil {
		t.Errorf("nested mixture rejected: %v", err)
	}
}

// TestStringRoundTrips: every family's String() must parse back to an
// equivalent distribution.
func TestStringRoundTrips(t *testing.T) {
	mix := Must(NewMixture([]Component{
		{Weight: 0.8, Dist: Must(ExpMean(2))},
		{Weight: 0.2, Dist: Must(NewWeibull(0.7, 100))},
	}))
	dists := []Dist{
		Must(NewWeibull(0.7, 8760)),
		Must(NewLogNormal(2, 0.8)),
		Must(LogNormalFromMoments(12, 1.2)),
		Must(ExpMean(500)),
		Must(NewDeterministic(12)),
		Must(NewGamma(0.5, 10)),
		Must(NewPareto(2, 4)),
		Must(NewEmpirical([]float64{1, 2, 3.5})),
		mix,
	}
	for _, d := range dists {
		back, err := Parse(d.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", d.String(), err)
			continue
		}
		if back.String() != d.String() {
			t.Errorf("round trip drifted: %q -> %q", d.String(), back.String())
		}
		// String() rounds to 6 significant digits, so the round trip is
		// near-exact, not bit-exact.
		if math.Abs(back.Mean()-d.Mean()) > 1e-4*(1+math.Abs(d.Mean())) {
			t.Errorf("round trip changed mean: %v -> %v", d.Mean(), back.Mean())
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"weibull",
		"weibull(",
		"weibull)",
		"weibull()",
		"weibull(shape=0.7)",
		"weibull(shape=0.7, scale=0)",
		"weibull(shape=0.7, scale=1) trailing",
		"frechet(1, 2)",
		"exp(mean=abc)",
		"exp(mean=)",
		"mix()",
		"mix(exp(mean=1))",
		"mix(0.5*exp(mean=1), 0.5)",
		"empirical()",
		"empirical(a=1)",
		"det(0.5*exp(mean=1))",
		"lognormal(mean=12)",
	}
	for _, s := range bad {
		if d, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted: %v", s, d)
		}
	}
}

// TestStringIsSprintf: the parametric families render through spec, one
// allocation each, and cache keys hold their output — so it must be, bit
// for bit, what the fmt.Sprintf("%.6g") forms it replaced print, for any
// parameter a struct literal can hold.
func TestStringIsSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	values := []float64{0, 1, -1, 0.7, 12000.0000001, 1e-7, 123456.5, 1234567, 1e21, 5e-324,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	for i := 0; i < 200; i++ {
		values = append(values, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for _, a := range values {
		b := values[rng.Intn(len(values))]
		for _, c := range []struct {
			got  Dist
			want string
		}{
			{Weibull{Shape: a, Scale: b}, fmt.Sprintf("weibull(shape=%.6g, scale=%.6g)", a, b)},
			{LogNormal{Mu: a, Sigma: b}, fmt.Sprintf("lognormal(mu=%.6g, sigma=%.6g)", a, b)},
			{Exponential{Rate: a}, fmt.Sprintf("exp(mean=%.6g)", 1/a)},
			{Deterministic{Value: a}, fmt.Sprintf("det(%.6g)", a)},
			{Gamma{Shape: a, Scale: b}, fmt.Sprintf("gamma(shape=%.6g, scale=%.6g)", a, b)},
			{Pareto{Xm: a, Alpha: b}, fmt.Sprintf("pareto(xm=%.6g, alpha=%.6g)", a, b)},
		} {
			if got := c.got.String(); got != c.want {
				t.Fatalf("%T String() = %q, Sprintf gives %q", c.got, got, c.want)
			}
		}
	}
	w := Must(NewWeibull(0.7, 12000))
	if allocs := testing.AllocsPerRun(100, func() { _ = w.String() }); allocs > 1 {
		t.Errorf("Weibull.String allocates %.0f times, want 1", allocs)
	}
}

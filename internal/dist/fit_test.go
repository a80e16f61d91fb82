package dist

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

func draw(t *testing.T, d Dist, n int, seed uint64) []float64 {
	t.Helper()
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	return xs
}

// TestFitBestRecoversWeibull: synthetic Weibull samples must rank the
// weibull family first and recover shape/scale within a few percent —
// the internal/opslog calibration contract.
func TestFitBestRecoversWeibull(t *testing.T) {
	truth := Must(NewWeibull(0.7, 1500))
	fits := FitBest(draw(t, truth, 5000, 42))
	if len(fits) < 4 {
		t.Fatalf("only %d families fitted", len(fits))
	}
	if fits[0].Name != "weibull" {
		t.Fatalf("best fit = %s (KS %.4f), want weibull; table:\n%s",
			fits[0].Name, fits[0].KS, FitSummary(fits))
	}
	w, ok := fits[0].Dist.(Weibull)
	if !ok {
		t.Fatalf("fitted dist is %T, want Weibull value", fits[0].Dist)
	}
	if relErr(w.Shape, 0.7) > 0.05 {
		t.Errorf("recovered shape %v, want ~0.7", w.Shape)
	}
	if relErr(w.Scale, 1500) > 0.08 {
		t.Errorf("recovered scale %v, want ~1500", w.Scale)
	}
}

// TestFitBestRecoversLogNormal mirrors the Weibull round-trip for
// LogNormal repair durations.
func TestFitBestRecoversLogNormal(t *testing.T) {
	truth := Must(NewLogNormal(2.0, 0.8))
	fits := FitBest(draw(t, truth, 5000, 43))
	if fits[0].Name != "lognormal" {
		t.Fatalf("best fit = %s, want lognormal; table:\n%s", fits[0].Name, FitSummary(fits))
	}
	l, ok := fits[0].Dist.(LogNormal)
	if !ok {
		t.Fatalf("fitted dist is %T, want LogNormal value", fits[0].Dist)
	}
	if math.Abs(l.Mu-2.0) > 0.05 || math.Abs(l.Sigma-0.8) > 0.05 {
		t.Errorf("recovered (%v, %v), want (2.0, 0.8)", l.Mu, l.Sigma)
	}
}

func TestFitBestRecoversExponential(t *testing.T) {
	truth := Must(ExpMean(500))
	fits := FitBest(draw(t, truth, 5000, 44))
	// Weibull and gamma nest the exponential, so any of the three is a
	// legitimate winner — but the fitted mean must match and the
	// exponential must be statistically acceptable.
	var expFit *FitResult
	for i := range fits {
		if fits[i].Name == "exponential" {
			expFit = &fits[i]
		}
	}
	if expFit == nil {
		t.Fatal("exponential family missing from fits")
	}
	if relErr(expFit.Dist.Mean(), 500) > 0.05 {
		t.Errorf("fitted mean = %v, want ~500", expFit.Dist.Mean())
	}
	if expFit.PValue < 0.01 {
		t.Errorf("exponential rejected on its own data: p = %v", expFit.PValue)
	}
}

func TestFitBestRecoversGamma(t *testing.T) {
	truth := Must(NewGamma(3, 7))
	fits := FitBest(draw(t, truth, 5000, 45))
	var g *FitResult
	for i := range fits {
		if fits[i].Name == "gamma" {
			g = &fits[i]
		}
	}
	if g == nil {
		t.Fatal("gamma family missing from fits")
	}
	gd := g.Dist.(Gamma)
	if relErr(gd.Shape, 3) > 0.1 || relErr(gd.Scale, 7) > 0.1 {
		t.Errorf("recovered gamma(%v, %v), want (3, 7)", gd.Shape, gd.Scale)
	}
	if fits[0].Name != "gamma" && fits[0].Name != "weibull" {
		t.Errorf("best fit = %s, want gamma (or its close cousin weibull); table:\n%s",
			fits[0].Name, FitSummary(fits))
	}
}

func TestFitBestRecoversPareto(t *testing.T) {
	truth := Must(NewPareto(2, 2.5))
	fits := FitBest(draw(t, truth, 5000, 46))
	if fits[0].Name != "pareto" {
		t.Fatalf("best fit = %s, want pareto; table:\n%s", fits[0].Name, FitSummary(fits))
	}
	p := fits[0].Dist.(Pareto)
	if relErr(p.Alpha, 2.5) > 0.1 || relErr(p.Xm, 2) > 0.02 {
		t.Errorf("recovered pareto(xm=%v, alpha=%v), want (2, 2.5)", p.Xm, p.Alpha)
	}
}

func TestFitBestRankingIsByKS(t *testing.T) {
	fits := FitBest(draw(t, Must(NewWeibull(0.7, 100)), 2000, 47))
	for i := 1; i < len(fits); i++ {
		if fits[i].KS < fits[i-1].KS {
			t.Fatalf("fits not sorted by KS: %v after %v", fits[i].KS, fits[i-1].KS)
		}
	}
	for _, f := range fits {
		if f.PValue < 0 || f.PValue > 1 {
			t.Errorf("%s: p-value %v out of range", f.Name, f.PValue)
		}
		if math.IsNaN(f.LogLik) || math.IsNaN(f.AIC) {
			t.Errorf("%s: NaN scores", f.Name)
		}
	}
}

func TestFitBestDegenerateAndHostileInput(t *testing.T) {
	if fits := FitBest(nil); fits != nil {
		t.Errorf("empty input produced fits: %v", fits)
	}
	if fits := FitBest([]float64{-1, 0, math.NaN()}); fits != nil {
		t.Errorf("all-invalid input produced fits: %v", fits)
	}
	// Constant sample: deterministic only.
	fits := FitBest([]float64{5, 5, 5, 5, 5})
	if len(fits) != 1 || fits[0].Name != "deterministic" {
		t.Fatalf("constant sample fits = %v", fits)
	}
	if d := fits[0].Dist.(Deterministic); d.Value != 5 {
		t.Errorf("deterministic value = %v, want 5", d.Value)
	}
	// Negative values are dropped, positives still fitted.
	mixed := append([]float64{-3, 0}, draw(t, Must(ExpMean(10)), 100, 48)...)
	if fits := FitBest(mixed); len(fits) == 0 {
		t.Error("positive subsample produced no fits")
	}
}

// TestFitLogLikConsistency: on its own data the true family's
// log-likelihood must not be beaten by more than sampling noise allows.
func TestFitLogLikConsistency(t *testing.T) {
	fits := FitBest(draw(t, Must(NewLogNormal(1.5, 0.6)), 5000, 49))
	var ln, exp FitResult
	for _, f := range fits {
		switch f.Name {
		case "lognormal":
			ln = f
		case "exponential":
			exp = f
		}
	}
	if ln.LogLik <= exp.LogLik {
		t.Errorf("lognormal loglik %v not above exponential %v on lognormal data",
			ln.LogLik, exp.LogLik)
	}
	if ln.AIC >= exp.AIC {
		t.Errorf("lognormal AIC %v not below exponential %v", ln.AIC, exp.AIC)
	}
}

func TestKSPValueCalibration(t *testing.T) {
	// On-true-model KS distances should be small and non-rejecting.
	truth := Must(NewWeibull(0.9, 50))
	fits := FitBest(draw(t, truth, 3000, 50))
	if fits[0].KS > 0.05 {
		t.Errorf("best KS = %v, implausibly large for n=3000", fits[0].KS)
	}
	if fits[0].PValue < 0.001 {
		t.Errorf("true family rejected: p = %v", fits[0].PValue)
	}
	// A grossly wrong CDF must be rejected.
	xs := draw(t, Must(ExpMean(1)), 3000, 51)
	bad := Must(NewDeterministic(1000))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	d := ksStatistic(bad, sorted)
	if p := ksPValue(d, len(xs)); p > 1e-6 {
		t.Errorf("gross misfit got p = %v", p)
	}
}

func TestDigamma(t *testing.T) {
	// digamma(1) = -gamma (Euler-Mascheroni).
	const euler = 0.5772156649015329
	if got := digamma(1); math.Abs(got+euler) > 1e-12 {
		t.Errorf("digamma(1) = %v, want %v", got, -euler)
	}
	// Recurrence digamma(x+1) = digamma(x) + 1/x.
	for _, x := range []float64{0.3, 1.7, 4.2, 9.9} {
		if diff := digamma(x+1) - digamma(x) - 1/x; math.Abs(diff) > 1e-12 {
			t.Errorf("digamma recurrence violated at %v by %v", x, diff)
		}
	}
}

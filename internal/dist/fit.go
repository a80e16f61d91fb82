package dist

import (
	"fmt"
	"math"
	"sort"
)

// FitResult is one candidate family fitted to a duration sample. A
// family whose estimator could not converge on the sample is kept in
// the ranking with Err set (and sorts last).
type FitResult struct {
	Name   string  // family name ("weibull", "lognormal", ...)
	Dist   Dist    // fitted distribution (value type, assertable); nil if Err != nil
	Err    error   // non-nil when the family could not be fitted
	LogLik float64 // maximized log-likelihood
	AIC    float64 // Akaike information criterion (2k - 2 LogLik)
	KS     float64 // Kolmogorov-Smirnov statistic vs. the sample
	PValue float64 // asymptotic KS p-value (0 = certainly not this family)
}

// failed marks a family as unfittable on this sample.
func failed(name string, err error) FitResult {
	return FitResult{Name: name, Err: err, KS: math.Inf(1), AIC: math.Inf(1), LogLik: math.Inf(-1)}
}

// FitBest fits every candidate family to samples by maximum likelihood
// (moment matching where the MLE needs a fallback) and returns the
// results ranked best-first by Kolmogorov-Smirnov distance. This is the
// §4.4/§4.5 "transformation algorithm": operational-log durations in,
// calibrated simulator models out.
//
// Samples must be positive; non-positive values are dropped with the
// families that cannot support them. An empty or degenerate (constant)
// sample yields a deterministic fit only.
func FitBest(samples []float64) []FitResult {
	xs := make([]float64, 0, len(samples))
	for _, v := range samples {
		if !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0 {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return nil
	}
	sort.Float64s(xs)
	n := float64(len(xs))

	var sum, sumLog float64
	for _, x := range xs {
		sum += x
		sumLog += math.Log(x)
	}
	mean := sum / n
	meanLog := sumLog / n
	var ss, ssLog float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
		dl := math.Log(x) - meanLog
		ssLog += dl * dl
	}
	variance := ss / n

	// Degenerate sample: every family below needs spread.
	if variance <= 1e-12*mean*mean {
		det := Deterministic{Value: mean}
		return []FitResult{finish("deterministic", det, 1, 0, xs)}
	}

	var fits []FitResult

	// Exponential: MLE rate = 1/mean.
	{
		e := Exponential{Rate: 1 / mean}
		ll := -n*math.Log(mean) - n
		fits = append(fits, finish("exponential", e, 1, ll, xs))
	}

	// LogNormal: MLE mu = mean(log x), sigma^2 = var(log x).
	if sigma := math.Sqrt(ssLog / n); sigma > 0 {
		l := LogNormal{Mu: meanLog, Sigma: sigma}
		ll := -sumLog - n*math.Log(sigma*math.Sqrt(2*math.Pi)) - n/2
		fits = append(fits, finish("lognormal", l, 2, ll, xs))
	} else {
		fits = append(fits, failed("lognormal", fmt.Errorf("dist: zero log-space variance")))
	}

	// Weibull: profile MLE for the shape, closed form for the scale.
	if w, err := weibullMLE(xs, meanLog); err == nil {
		k, lam := w.Shape, w.Scale
		var sumPow float64
		for _, x := range xs {
			sumPow += math.Pow(x/lam, k)
		}
		ll := n*math.Log(k) - n*k*math.Log(lam) + (k-1)*sumLog - sumPow
		fits = append(fits, finish("weibull", w, 2, ll, xs))
	} else {
		fits = append(fits, failed("weibull", err))
	}

	// Gamma: MLE shape via ln k - digamma(k) = ln(mean) - mean(ln x).
	if g, err := gammaMLE(mean, meanLog); err == nil {
		k, th := g.Shape, g.Scale
		lg, _ := math.Lgamma(k)
		ll := (k-1)*sumLog - sum/th - n*k*math.Log(th) - n*lg
		fits = append(fits, finish("gamma", g, 2, ll, xs))
	} else {
		fits = append(fits, failed("gamma", err))
	}

	// Pareto: MLE xm = min(x), alpha = n / sum log(x/xm).
	if xm := xs[0]; sumLog-n*math.Log(xm) > 0 {
		alpha := n / (sumLog - n*math.Log(xm))
		p := Pareto{Xm: xm, Alpha: alpha}
		ll := n*math.Log(alpha) + n*alpha*math.Log(xm) - (alpha+1)*sumLog
		fits = append(fits, finish("pareto", p, 2, ll, xs))
	} else {
		fits = append(fits, failed("pareto", fmt.Errorf("dist: degenerate tail estimate")))
	}

	sort.SliceStable(fits, func(i, j int) bool { return fits[i].KS < fits[j].KS })
	return fits
}

// finish computes the goodness-of-fit scores for a fitted candidate.
// xs must be sorted ascending.
func finish(name string, d Dist, params int, logLik float64, xs []float64) FitResult {
	ks := ksStatistic(d, xs)
	return FitResult{
		Name:   name,
		Dist:   d,
		LogLik: logLik,
		AIC:    2*float64(params) - 2*logLik,
		KS:     ks,
		PValue: ksPValue(ks, len(xs)),
	}
}

// ksStatistic is the one-sample Kolmogorov-Smirnov distance between the
// fitted CDF and the empirical CDF of the sorted sample.
func ksStatistic(d Dist, xs []float64) float64 {
	n := float64(len(xs))
	var worst float64
	for i, x := range xs {
		f := d.CDF(x)
		if up := float64(i+1)/n - f; up > worst {
			worst = up
		}
		if down := f - float64(i)/n; down > worst {
			worst = down
		}
	}
	return worst
}

// ksPValue is the asymptotic Kolmogorov distribution tail probability
// with the Stephens small-sample correction.
func ksPValue(d float64, n int) float64 {
	if d <= 0 {
		return 1
	}
	sn := math.Sqrt(float64(n))
	t := (sn + 0.12 + 0.11/sn) * d
	var p float64
	for j := 1; j <= 100; j++ {
		term := 2 * math.Pow(-1, float64(j-1)) * math.Exp(-2*float64(j*j)*t*t)
		p += term
		if math.Abs(term) < 1e-12 {
			break
		}
	}
	return math.Min(1, math.Max(0, p))
}

// weibullMLE solves the profile-likelihood shape equation
//
//	sum x^k log x / sum x^k - 1/k - mean(log x) = 0
//
// by bisection (the left side is strictly increasing in k), then sets
// scale = (mean(x^k))^(1/k). Values are normalized by the sample
// geometric mean to keep x^k in range.
func weibullMLE(xs []float64, meanLog float64) (Weibull, error) {
	geo := math.Exp(meanLog)
	norm := make([]float64, len(xs))
	for i, x := range xs {
		norm[i] = x / geo
	}
	g := func(k float64) float64 {
		var sp, spl float64
		for _, z := range norm {
			p := math.Pow(z, k)
			sp += p
			spl += p * math.Log(z)
		}
		// log z is already centered: mean(log z) = 0.
		return spl/sp - 1/k
	}
	lo, hi := 1e-3, 1.0
	for g(hi) < 0 {
		hi *= 2
		if hi > 1e6 {
			return Weibull{}, fmt.Errorf("dist: weibull shape estimate diverged")
		}
	}
	if g(lo) > 0 {
		return Weibull{}, fmt.Errorf("dist: weibull shape estimate below %v", lo)
	}
	for i := 0; i < 200 && hi-lo > 1e-12*hi; i++ {
		mid := (lo + hi) / 2
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2
	var sp float64
	for _, z := range norm {
		sp += math.Pow(z, k)
	}
	scale := geo * math.Pow(sp/float64(len(norm)), 1/k)
	return NewWeibull(k, scale)
}

// gammaMLE solves log k - digamma(k) = log(mean) - mean(log x) by
// bisection (the left side is strictly decreasing in k).
func gammaMLE(mean, meanLog float64) (Gamma, error) {
	s := math.Log(mean) - meanLog
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return Gamma{}, fmt.Errorf("dist: gamma moment gap %v not positive", s)
	}
	f := func(k float64) float64 { return math.Log(k) - digamma(k) - s }
	lo, hi := 1e-6, 1.0
	for f(hi) > 0 {
		hi *= 2
		if hi > 1e9 {
			return Gamma{}, fmt.Errorf("dist: gamma shape estimate diverged")
		}
	}
	for f(lo) < 0 {
		lo /= 2
		if lo < 1e-12 {
			return Gamma{}, fmt.Errorf("dist: gamma shape estimate vanished")
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-12*hi; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2
	return NewGamma(k, mean/k)
}

// digamma is the logarithmic derivative of the gamma function, via
// upward recurrence into the asymptotic series.
func digamma(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	var result float64
	for x < 12 {
		result -= 1 / x
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - inv/2 -
		inv2*(1.0/12-inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2/132))))
	return result
}

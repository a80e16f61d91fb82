// Package stats provides the streaming statistics the wind tunnel uses to
// summarize simulation output: moments, quantiles, time-weighted averages
// and confidence intervals.
//
// Every SLA verdict (§3 of the paper) is a statistic over one or more
// simulation runs, and the Runner's stopping rule (§4.2) is driven by
// confidence-interval widths computed here.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates count, mean and variance in one pass with the
// numerically stable Welford recurrence. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.Inf(1)
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI returns the half-width of the (1-alpha) two-sided confidence interval
// for the mean, using the normal approximation with a small-sample t
// inflation.
func (w *Welford) CI(alpha float64) float64 {
	if w.n < 2 {
		return math.Inf(1)
	}
	return tQuantile(1-alpha/2, w.n-1) * w.StdErr()
}

// WeightedWelford accumulates a weighted mean and variance in one pass
// (West's 1979 incremental algorithm). It backs the importance-sampled
// estimators of §4.2's failure-biased trials: each simulation trial
// contributes its metric with its likelihood-ratio weight, Mean returns
// the self-normalized estimate Σwx/Σw, and CI accounts for weight
// dispersion through the effective sample size (Σw)²/Σw². With all
// weights 1 it reproduces Welford exactly. The zero value is ready to
// use.
type WeightedWelford struct {
	n     int64
	sumW  float64
	sumW2 float64
	mean  float64
	m2    float64
}

// Add incorporates one observation with weight wt > 0 (zero-weight
// observations are ignored; negative or non-finite weights panic — a
// non-finite weight would silently turn every downstream mean into
// NaN).
func (w *WeightedWelford) Add(x, wt float64) {
	if wt < 0 || math.IsNaN(wt) || math.IsInf(wt, 1) {
		panic(fmt.Sprintf("stats: weighted observation with weight %v", wt))
	}
	if wt == 0 {
		return
	}
	w.n++
	w.sumW += wt
	w.sumW2 += wt * wt
	delta := x - w.mean
	w.mean += delta * wt / w.sumW
	w.m2 += wt * delta * (x - w.mean)
}

// N returns the number of (non-zero-weight) observations.
func (w *WeightedWelford) N() int64 { return w.n }

// SumWeights returns the accumulated weight mass.
func (w *WeightedWelford) SumWeights() float64 { return w.sumW }

// Mean returns the self-normalized weighted mean Σwx/Σw (0 if empty).
func (w *WeightedWelford) Mean() float64 { return w.mean }

// EffectiveN returns Kish's effective sample size (Σw)²/Σw²: the number
// of equally-weighted observations carrying the same information. Equal
// weights give EffectiveN == N.
func (w *WeightedWelford) EffectiveN() float64 {
	if w.sumW2 == 0 {
		return 0
	}
	return w.sumW * w.sumW / w.sumW2
}

// Variance returns the unbiased (reliability-weights) sample variance.
func (w *WeightedWelford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	denom := w.sumW - w.sumW2/w.sumW
	if denom <= 0 {
		return 0
	}
	return w.m2 / denom
}

// StdDev returns the weighted sample standard deviation.
func (w *WeightedWelford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the weighted mean, using the
// effective sample size.
func (w *WeightedWelford) StdErr() float64 {
	neff := w.EffectiveN()
	if neff < 2 {
		return math.Inf(1)
	}
	return w.StdDev() / math.Sqrt(neff)
}

// CI returns the half-width of the (1-alpha) two-sided confidence
// interval for the weighted mean, with degrees of freedom taken from the
// effective sample size.
func (w *WeightedWelford) CI(alpha float64) float64 {
	neff := w.EffectiveN()
	if neff < 2 {
		return math.Inf(1)
	}
	return tQuantile(1-alpha/2, int64(neff)-1) * w.StdErr()
}

// tQuantile approximates the Student-t quantile with df degrees of freedom
// using the Cornish–Fisher expansion around the normal quantile; exact
// enough for CI reporting (error < 1% for df >= 3).
func tQuantile(p float64, df int64) float64 {
	z := normQuantile(p)
	if df <= 0 {
		return math.Inf(1)
	}
	d := float64(df)
	z3 := z * z * z
	z5 := z3 * z * z
	z7 := z5 * z * z
	g1 := (z3 + z) / 4
	g2 := (5*z5 + 16*z3 + 3*z) / 96
	g3 := (3*z7 + 19*z5 + 17*z3 - 15*z) / 384
	return z + g1/d + g2/(d*d) + g3/(d*d*d)
}

// normQuantile is the inverse standard normal CDF (Acklam approximation
// with one Halley refinement). Duplicated from internal/dist to keep the
// two leaf packages dependency-free of each other.
func normQuantile(p float64) float64 {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: quantile probability %v outside (0,1)", p))
	}
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00}
	)
	const pLow, pHigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// Sample collects observations for exact quantile queries. Use for
// latency distributions where tail percentiles matter (§3 performance
// SLAs).
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Reset empties the sample, keeping its storage.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Quantile returns the p-quantile (nearest-rank) of the sample. It panics
// on an empty sample or p outside (0,1].
func (s *Sample) Quantile(p float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: quantile of empty sample")
	}
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("stats: quantile probability %v outside (0,1]", p))
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	i := int(math.Ceil(p*float64(len(s.xs)))) - 1
	if i < 0 {
		i = 0
	}
	return s.xs[i]
}

// Mean returns the sample mean (0 if empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.xs {
		sum += v
	}
	return sum / float64(len(s.xs))
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if s.sorted {
		return s.xs[len(s.xs)-1]
	}
	m := s.xs[0]
	for _, v := range s.xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

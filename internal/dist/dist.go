// Package dist provides the statistical distributions that drive every
// stochastic model in the wind tunnel: component time-to-failure, repair
// durations, workload interarrival and service demands.
//
// The paper (§2.2, §4.5) argues that exponential-only models mispredict
// data center behavior — field studies find Weibull times between disk
// replacements with shape < 1 (infant mortality) and LogNormal repair
// durations. The package therefore carries a family catalog wide enough
// to express those findings and more: Weibull, LogNormal, exponential,
// Gamma, Pareto, deterministic, empirical trace replay, and finite
// mixtures. FitBest (fit.go) calibrates families to operational-log
// durations; Parse (parse.go) turns declarative spec strings like
// "weibull(shape=0.7, scale=8760)" into distributions so scenarios and
// hardware catalogs can declare arbitrary failure models.
//
// All sampling is driven by *rng.Source so simulations stay
// deterministic and per-model streams stay independent.
package dist

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Dist is a non-negative continuous random variable, in the units the
// caller chooses (the simulator uses hours).
type Dist interface {
	// Sample draws one variate from r.
	Sample(r *rng.Source) float64
	// Mean returns the analytic expectation (may be +Inf, e.g. a Pareto
	// with alpha <= 1).
	Mean() float64
	// Variance returns the analytic variance (may be +Inf).
	Variance() float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns inf{x : CDF(x) >= p} for p in [0, 1).
	Quantile(p float64) float64
	// String returns a spec-grammar form that Parse accepts back.
	// Parameters are rounded to 6 significant digits, so a round trip
	// is equivalent to ~1e-6 relative precision, not bit-exact.
	String() string
}

// Must unwraps a constructor result, panicking on error. Use it for
// literal parameters known to be valid at compile time.
func Must[D Dist](d D, err error) D {
	if err != nil {
		panic(err)
	}
	return d
}

// spec renders a one- or two-parameter family's spec-grammar form,
// head + a [+ mid + b] + ")", each value as %.6g prints it, in a single
// allocation: String sits on the trial cache's key path.
func spec(head string, a float64, mid string, b float64) string {
	var buf [80]byte
	s := strconv.AppendFloat(append(buf[:0], head...), a, 'g', 6, 64)
	if mid != "" {
		s = strconv.AppendFloat(append(s, mid...), b, 'g', 6, 64)
	}
	return string(append(s, ')'))
}

func checkPositive(pkg string, name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return fmt.Errorf("dist: %s needs %s > 0, got %v", pkg, name, v)
	}
	return nil
}

func checkQuantileP(p float64) {
	if math.IsNaN(p) || p < 0 || p >= 1 {
		panic(fmt.Sprintf("dist: Quantile needs p in [0, 1), got %v", p))
	}
}

// ---------------------------------------------------------------------------
// Weibull

// Weibull is the two-parameter Weibull distribution. Shape < 1 models
// infant mortality (decreasing hazard), shape = 1 is exponential,
// shape > 1 models wear-out.
type Weibull struct {
	Shape float64
	Scale float64
}

// NewWeibull returns a Weibull with the given shape k and scale lambda.
func NewWeibull(shape, scale float64) (Weibull, error) {
	if err := checkPositive("Weibull", "shape", shape); err != nil {
		return Weibull{}, err
	}
	if err := checkPositive("Weibull", "scale", scale); err != nil {
		return Weibull{}, err
	}
	return Weibull{Shape: shape, Scale: scale}, nil
}

// Sample draws by inverse transform: scale * (-ln U)^(1/shape).
func (w Weibull) Sample(r *rng.Source) float64 { return w.at(r.OpenFloat64()) }

// at is the variate Sample makes of the uniform u.
func (w Weibull) at(u float64) float64 { return w.Scale * math.Pow(-math.Log(u), 1/w.Shape) }

// hazardAbove is the cumulative hazard (x/scale)^shape (see inverse). Far
// from shape 1, or with x/scale near the subnormals, the rounding of the
// power moves a variate by more than Until's margin, so it vouches for
// nothing there.
func (w Weibull) hazardAbove(x float64) float64 {
	if scaled := x / w.Scale; w.Shape >= 1.0/1024 && w.Shape <= 1024 && scaled >= 0x1p-900 {
		return math.Pow(scaled, w.Shape)
	}
	return math.Inf(1)
}

func (w Weibull) Mean() float64 {
	return w.Scale * math.Gamma(1+1/w.Shape)
}

func (w Weibull) Variance() float64 {
	g1 := math.Gamma(1 + 1/w.Shape)
	g2 := math.Gamma(1 + 2/w.Shape)
	return w.Scale * w.Scale * (g2 - g1*g1)
}

func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.Scale, w.Shape))
}

func (w Weibull) Quantile(p float64) float64 {
	checkQuantileP(p)
	return w.Scale * math.Pow(-math.Log1p(-p), 1/w.Shape)
}

func (w Weibull) String() string {
	return spec("weibull(shape=", w.Shape, ", scale=", w.Scale)
}

// ---------------------------------------------------------------------------
// LogNormal

// LogNormal is the distribution of exp(N(Mu, Sigma^2)).
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// NewLogNormal returns a LogNormal with log-space mean mu and log-space
// standard deviation sigma.
func NewLogNormal(mu, sigma float64) (LogNormal, error) {
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		return LogNormal{}, fmt.Errorf("dist: LogNormal needs finite mu, got %v", mu)
	}
	if err := checkPositive("LogNormal", "sigma", sigma); err != nil {
		return LogNormal{}, err
	}
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// LogNormalFromMoments returns the LogNormal with the given real-space
// mean and coefficient of variation (stddev/mean). This is the natural
// parameterization for "12-hour repairs with cv 1.2"-style inputs.
func LogNormalFromMoments(mean, cv float64) (LogNormal, error) {
	if err := checkPositive("LogNormalFromMoments", "mean", mean); err != nil {
		return LogNormal{}, err
	}
	if err := checkPositive("LogNormalFromMoments", "cv", cv); err != nil {
		return LogNormal{}, err
	}
	sigma2 := math.Log1p(cv * cv)
	l, err := NewLogNormal(math.Log(mean)-sigma2/2, math.Sqrt(sigma2))
	if err != nil {
		// cv so small that sigma rounds to 0, or so large that it overflows.
		return LogNormal{}, fmt.Errorf("dist: LogNormalFromMoments(mean=%v, cv=%v) has no float64 LogNormal: %w", mean, cv, err)
	}
	return l, nil
}

func (l LogNormal) Sample(r *rng.Source) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

func (l LogNormal) Variance() float64 {
	s2 := l.Sigma * l.Sigma
	return math.Expm1(s2) * math.Exp(2*l.Mu+s2)
}

func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-l.Mu)/(l.Sigma*math.Sqrt2))
}

func (l LogNormal) Quantile(p float64) float64 {
	checkQuantileP(p)
	if p == 0 {
		return 0
	}
	return math.Exp(l.Mu + l.Sigma*normQuantile(p))
}

func (l LogNormal) String() string {
	return spec("lognormal(mu=", l.Mu, ", sigma=", l.Sigma)
}

// ---------------------------------------------------------------------------
// Exponential

// Exponential is the memoryless distribution with the given Rate.
type Exponential struct {
	Rate float64
}

// ExpMean returns an exponential distribution with the given mean.
func ExpMean(mean float64) (Exponential, error) {
	if err := checkPositive("ExpMean", "mean", mean); err != nil {
		return Exponential{}, err
	}
	if math.IsInf(1/mean, 0) {
		return Exponential{}, fmt.Errorf("dist: ExpMean needs a mean whose rate is finite, got %v", mean)
	}
	return Exponential{Rate: 1 / mean}, nil
}

func (e Exponential) Sample(r *rng.Source) float64 { return e.at(r.OpenFloat64()) }

// at is the variate Sample makes of the uniform u.
func (e Exponential) at(u float64) float64 { return -math.Log(u) / e.Rate }

// hazardAbove is the cumulative hazard rate·x (see inverse).
func (e Exponential) hazardAbove(x float64) float64 { return x * e.Rate }

func (e Exponential) Mean() float64 { return 1 / e.Rate }

func (e Exponential) Variance() float64 { return 1 / (e.Rate * e.Rate) }

func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

func (e Exponential) Quantile(p float64) float64 {
	checkQuantileP(p)
	return -math.Log1p(-p) / e.Rate
}

func (e Exponential) String() string {
	return spec("exp(mean=", 1/e.Rate, "", 0)
}

// ---------------------------------------------------------------------------
// Deterministic

// Deterministic is a degenerate distribution: every draw is Value.
type Deterministic struct {
	Value float64
}

// NewDeterministic returns a point mass at v (v >= 0, finite).
func NewDeterministic(v float64) (Deterministic, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return Deterministic{}, fmt.Errorf("dist: Deterministic needs a finite value >= 0, got %v", v)
	}
	return Deterministic{Value: v}, nil
}

func (d Deterministic) Sample(*rng.Source) float64 { return d.Value }

func (d Deterministic) Mean() float64 { return d.Value }

func (d Deterministic) Variance() float64 { return 0 }

func (d Deterministic) CDF(x float64) float64 {
	if x < d.Value {
		return 0
	}
	return 1
}

func (d Deterministic) Quantile(p float64) float64 {
	checkQuantileP(p)
	return d.Value
}

func (d Deterministic) String() string {
	return spec("det(", d.Value, "", 0)
}

// ---------------------------------------------------------------------------
// Gamma

// Gamma is the two-parameter Gamma distribution (shape k, scale theta).
type Gamma struct {
	Shape float64
	Scale float64
}

// NewGamma returns a Gamma with the given shape and scale.
func NewGamma(shape, scale float64) (Gamma, error) {
	if err := checkPositive("Gamma", "shape", shape); err != nil {
		return Gamma{}, err
	}
	if err := checkPositive("Gamma", "scale", scale); err != nil {
		return Gamma{}, err
	}
	return Gamma{Shape: shape, Scale: scale}, nil
}

// Sample uses Marsaglia-Tsang squeeze for shape >= 1 and the boost
// Gamma(k) = Gamma(k+1) * U^(1/k) for shape < 1.
func (g Gamma) Sample(r *rng.Source) float64 {
	k := g.Shape
	boost := 1.0
	if k < 1 {
		boost = math.Pow(r.OpenFloat64(), 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.OpenFloat64()
		if u < 1-0.0331*x*x*x*x {
			return g.Scale * boost * d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return g.Scale * boost * d * v
		}
	}
}

func (g Gamma) Mean() float64 { return g.Shape * g.Scale }

func (g Gamma) Variance() float64 { return g.Shape * g.Scale * g.Scale }

func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return regIncGammaP(g.Shape, x/g.Scale)
}

func (g Gamma) Quantile(p float64) float64 {
	checkQuantileP(p)
	return quantileByBisection(g.CDF, p, g.Mean())
}

func (g Gamma) String() string {
	return spec("gamma(shape=", g.Shape, ", scale=", g.Scale)
}

// ---------------------------------------------------------------------------
// Pareto

// Pareto is the type-I Pareto distribution on [Xm, inf) with tail index
// Alpha — the classic heavy-tail model for "most repairs are quick, a
// few take forever".
type Pareto struct {
	Xm    float64
	Alpha float64
}

// NewPareto returns a Pareto with minimum xm and tail index alpha.
func NewPareto(xm, alpha float64) (Pareto, error) {
	if err := checkPositive("Pareto", "xm", xm); err != nil {
		return Pareto{}, err
	}
	if err := checkPositive("Pareto", "alpha", alpha); err != nil {
		return Pareto{}, err
	}
	return Pareto{Xm: xm, Alpha: alpha}, nil
}

func (p Pareto) Sample(r *rng.Source) float64 {
	return p.Xm * math.Pow(r.OpenFloat64(), -1/p.Alpha)
}

func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

func (p Pareto) Variance() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	a := p.Alpha
	return p.Xm * p.Xm * a / ((a - 1) * (a - 1) * (a - 2))
}

func (p Pareto) CDF(x float64) float64 {
	if x <= p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

func (p Pareto) Quantile(q float64) float64 {
	checkQuantileP(q)
	return p.Xm * math.Pow(1-q, -1/p.Alpha)
}

func (p Pareto) String() string {
	return spec("pareto(xm=", p.Xm, ", alpha=", p.Alpha)
}

// ---------------------------------------------------------------------------
// Empirical

// Empirical replays an observed trace: each draw is one of the recorded
// values, chosen uniformly (sampling with replacement from the empirical
// distribution). This is the §4.4 "use the measured log directly" model.
type Empirical struct {
	values []float64 // sorted ascending
	mean   float64
	vari   float64
}

// NewEmpirical returns an Empirical over a copy of samples.
func NewEmpirical(samples []float64) (Empirical, error) {
	if len(samples) == 0 {
		return Empirical{}, fmt.Errorf("dist: Empirical needs at least one sample")
	}
	vs := make([]float64, len(samples))
	copy(vs, samples)
	var sum float64
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return Empirical{}, fmt.Errorf("dist: Empirical needs finite samples >= 0, got %v", v)
		}
		sum += v
	}
	sort.Float64s(vs)
	mean := sum / float64(len(vs))
	var ss float64
	for _, v := range vs {
		d := v - mean
		ss += d * d
	}
	return Empirical{values: vs, mean: mean, vari: ss / float64(len(vs))}, nil
}

func (e Empirical) Sample(r *rng.Source) float64 {
	return e.values[r.Intn(len(e.values))]
}

func (e Empirical) Mean() float64 { return e.mean }

func (e Empirical) Variance() float64 { return e.vari }

func (e Empirical) CDF(x float64) float64 {
	// Number of values <= x.
	n := sort.SearchFloat64s(e.values, x)
	for n < len(e.values) && e.values[n] == x {
		n++
	}
	return float64(n) / float64(len(e.values))
}

func (e Empirical) Quantile(p float64) float64 {
	checkQuantileP(p)
	// Smallest order statistic whose ECDF reaches p: rank k has
	// CDF >= (k+1)/n, so k = ceil(p*n) - 1.
	k := int(math.Ceil(p*float64(len(e.values)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(e.values) {
		k = len(e.values) - 1
	}
	return e.values[k]
}

func (e Empirical) String() string {
	parts := make([]string, len(e.values))
	for i, v := range e.values {
		parts[i] = fmt.Sprintf("%.6g", v)
	}
	return "empirical(" + strings.Join(parts, ", ") + ")"
}

// ---------------------------------------------------------------------------
// Mixture

// Component is one weighted branch of a Mixture.
type Component struct {
	Weight float64
	Dist   Dist
}

// Mixture is a finite mixture: a draw picks component i with probability
// proportional to its weight, then samples it. Mixtures express
// bimodal realities like "80% of repairs are a 2-hour hot swap, 20% wait
// a day for parts".
type Mixture struct {
	comps []Component // weights normalized to sum 1
	cum   []float64
	// given holds the weights as the caller gave them, which String
	// prints: weights normalized and printed to six digits would no longer
	// sum to 1, and parsing them back would normalize them into others.
	given []float64
}

// NewMixture returns a mixture over the given components. Weights must
// be positive; they are normalized to sum to 1.
func NewMixture(comps []Component) (Mixture, error) {
	if len(comps) == 0 {
		return Mixture{}, fmt.Errorf("dist: Mixture needs at least one component")
	}
	var total float64
	for i, c := range comps {
		if c.Dist == nil {
			return Mixture{}, fmt.Errorf("dist: Mixture component %d has nil distribution", i)
		}
		if err := checkPositive("Mixture", "weight", c.Weight); err != nil {
			return Mixture{}, err
		}
		total += c.Weight
	}
	m := Mixture{comps: make([]Component, len(comps)), cum: make([]float64, len(comps)), given: make([]float64, len(comps))}
	acc := 0.0
	for i, c := range comps {
		w := c.Weight / total
		if w == 0 {
			// The total overflowed, or this weight is below float64's
			// resolution of it: a component that could never be drawn.
			return Mixture{}, fmt.Errorf("dist: Mixture component %d's weight %v vanishes beside the total %v", i, c.Weight, total)
		}
		m.comps[i] = Component{Weight: w, Dist: c.Dist}
		m.given[i] = c.Weight
		acc += w
		m.cum[i] = acc
	}
	m.cum[len(comps)-1] = 1 // guard against rounding
	return m, nil
}

// Components returns the normalized components.
func (m Mixture) Components() []Component {
	out := make([]Component, len(m.comps))
	copy(out, m.comps)
	return out
}

func (m Mixture) Sample(r *rng.Source) float64 {
	u := r.Float64()
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.comps) {
		i = len(m.comps) - 1
	}
	return m.comps[i].Dist.Sample(r)
}

func (m Mixture) Mean() float64 {
	var mu float64
	for _, c := range m.comps {
		mu += c.Weight * c.Dist.Mean()
	}
	return mu
}

func (m Mixture) Variance() float64 {
	mu := m.Mean()
	var second float64
	for _, c := range m.comps {
		// One Variance call per component: a nested mixture asked twice
		// per level would cost 2^depth.
		cm, cv := c.Dist.Mean(), c.Dist.Variance()
		if math.IsInf(cm, 0) || math.IsInf(cv, 0) {
			// A heavy-tailed component dominates: the mixture's second
			// moment diverges (avoid the Inf - Inf = NaN below).
			return math.Inf(1)
		}
		second += c.Weight * (cv + cm*cm)
	}
	return second - mu*mu
}

func (m Mixture) CDF(x float64) float64 {
	var f float64
	for _, c := range m.comps {
		f += c.Weight * c.Dist.CDF(x)
	}
	return f
}

func (m Mixture) Quantile(p float64) float64 {
	checkQuantileP(p)
	return quantileByBisection(m.CDF, p, m.Mean())
}

func (m Mixture) String() string { return string(m.appendSpec(nil)) }

// appendSpec appends the mixture's spec to dst, nested mixtures in place,
// so a spec costs its length to print rather than its length times its
// depth.
func (m Mixture) appendSpec(dst []byte) []byte {
	dst = append(dst, "mix("...)
	for i, c := range m.comps {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(strconv.AppendFloat(dst, m.given[i], 'g', 6, 64), '*')
		if sub, ok := c.Dist.(Mixture); ok {
			dst = sub.appendSpec(dst)
		} else {
			dst = append(dst, c.Dist.String()...)
		}
	}
	return append(dst, ')')
}

// ---------------------------------------------------------------------------
// Numeric helpers

// quantileByBisection inverts a monotone CDF numerically. hint seeds the
// upper-bracket search (any positive finite value works).
func quantileByBisection(cdf func(float64) float64, p float64, hint float64) float64 {
	if p <= 0 {
		return 0
	}
	hi := hint
	if !(hi > 0) || math.IsInf(hi, 0) || math.IsNaN(hi) {
		hi = 1
	}
	for cdf(hi) < p {
		hi *= 2
		if math.IsInf(hi, 0) {
			return hi
		}
	}
	lo := 0.0
	for i := 0; i < 200 && hi-lo > 1e-12*(1+hi); i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// normQuantile is the standard normal inverse CDF (Acklam's rational
// approximation refined with one Halley step against math.Erfc), good to
// ~1e-15 over (0, 1).
func normQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((-7.784894002430293e-03*q-3.223964580411365e-01)*q-2.400758277161838e+00)*q-2.549732539343734e+00)*q+4.374664141464968e+00)*q + 2.938163982698783e+00) /
			((((7.784695709041462e-03*q+3.224671290700398e-01)*q+2.445134137142996e+00)*q+3.754408661907416e+00)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((-3.969683028665376e+01*r+2.209460984245205e+02)*r-2.759285104469687e+02)*r+1.383577518672690e+02)*r-3.066479806614716e+01)*r + 2.506628277459239e+00) * q /
			(((((-5.447609879822406e+01*r+1.615858368580409e+02)*r-1.556989798598866e+02)*r+6.680131188771972e+01)*r-1.328068155288572e+01)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((-7.784894002430293e-03*q-3.223964580411365e-01)*q-2.400758277161838e+00)*q-2.549732539343734e+00)*q+4.374664141464968e+00)*q + 2.938163982698783e+00) /
			((((7.784695709041462e-03*q+3.224671290700398e-01)*q+2.445134137142996e+00)*q+3.754408661907416e+00)*q + 1)
	}
	// One Halley refinement.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// regIncGammaP is the regularized lower incomplete gamma function
// P(a, x), via the series expansion for x < a+1 and the continued
// fraction for x >= a+1 (Numerical Recipes 6.2).
func regIncGammaP(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < a+1 {
		// Series representation.
		ap := a
		sum := 1 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-15 {
				break
			}
		}
		lg, _ := math.Lgamma(a)
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	// Continued fraction for Q(a, x) = 1 - P(a, x).
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return 1 - math.Exp(-x+a*math.Log(x)-lg)*h
}

package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// HazardBiased wraps a continuous distribution with its hazard rate
// scaled by a constant factor B (failure-biased importance sampling,
// §4.2): the biased survival function is S_B(t) = S(t)^B, so B > 1 makes
// failures arrive earlier and rare multi-failure windows common, while
// the accumulated likelihood ratio re-weights each trajectory back to
// the original measure. The per-draw Radon–Nikodym factor is
//
//	f(t) / f_B(t) = S(t)^(1-B) / B
//
// and Sample accumulates its logarithm; Weight() returns the product
// over all draws made so far, the unbiased importance weight for the
// trial that consumed them.
//
// The wrapper is exact for continuous distributions (Weibull, LogNormal,
// exponential, Gamma, Pareto, mixtures of those). Distributions with
// atoms (Deterministic, Empirical) have no density, so hazard scaling is
// rejected for Deterministic and approximate for Empirical.
//
// A HazardBiased is stateful (it accumulates the log likelihood ratio)
// and therefore NOT safe for concurrent use: build one instance per
// trial.
type HazardBiased struct {
	D    Dist
	Bias float64

	// Now and Horizon, when set, enable censoring-aware weighting: a
	// draw landing beyond the remaining horizon (Horizon - Now()) cannot
	// fire inside the simulated window, so the trajectory depends only
	// on the censoring indicator and the correct likelihood factor is
	// the bounded survival ratio S(rem)^(1-B) instead of the full-draw
	// density ratio. This keeps every factor bounded (the full-draw
	// ratio S(t)^(1-B)/B has infinite second moment for Bias >= 2) and
	// collapses the weight variance for the rare-failure scenarios the
	// bias exists for.
	Now     func() float64
	Horizon float64

	logLR float64
}

// NewHazardBiased validates and constructs the wrapper.
func NewHazardBiased(d Dist, bias float64) (*HazardBiased, error) {
	if d == nil {
		return nil, fmt.Errorf("dist: hazard bias needs a distribution")
	}
	if err := checkPositive("hazard bias", "bias", bias); err != nil {
		return nil, err
	}
	if _, ok := d.(Deterministic); ok {
		return nil, fmt.Errorf("dist: hazard bias is undefined for a deterministic distribution")
	}
	return &HazardBiased{D: d, Bias: bias}, nil
}

// Sample draws from the biased distribution via inverse transform on the
// powered survival function and accumulates the log likelihood ratio
// (censored at the remaining horizon when Now/Horizon are wired).
func (h *HazardBiased) Sample(r *rng.Source) float64 {
	u := r.OpenFloat64()
	// Target survival level: S(t) = u^(1/B). Drawn in log space so the
	// likelihood-ratio exponent stays exact even for tiny survivals.
	logS := math.Log(u) / h.Bias
	p := 1 - math.Exp(logS)
	if p >= 1 {
		p = math.Nextafter(1, 0)
	}
	if p < 0 {
		p = 0
	}
	t := h.D.Quantile(p)
	if h.Now != nil && h.Horizon > 0 {
		if rem := h.Horizon - h.Now(); t > rem {
			// Censored draw: only "no failure before the horizon" is
			// observable, with likelihood ratio S(rem)^(1-B).
			logSrem := 0.0
			if rem > 0 {
				if s := 1 - h.D.CDF(rem); s > 0 {
					logSrem = math.Log(s)
				}
			}
			h.logLR += (1 - h.Bias) * logSrem
			return t
		}
	}
	h.logLR += -math.Log(h.Bias) - (h.Bias-1)*logS
	return t
}

// Weight returns the importance weight exp(LogLR) for the trajectory
// that consumed the draws so far. The exponent is clamped to ±350 so a
// pathological bias configuration yields an (astronomically large or
// small but) finite weight whose SQUARE also stays finite — the
// weighted estimators accumulate w², and exp(355)² already overflows
// float64, which would turn effective-sample-size and CI reports into
// NaN.
func (h *HazardBiased) Weight() float64 {
	lr := h.logLR
	if lr > 350 {
		lr = 350
	}
	if lr < -350 {
		lr = -350
	}
	return math.Exp(lr)
}

// Reset clears the accumulated likelihood ratio.
func (h *HazardBiased) Reset() { h.logLR = 0 }

// Mean returns the biased mean, computed by quantile-grid integration
// (the biased family has no closed form for general D).
func (h *HazardBiased) Mean() float64 {
	const grid = 4096
	sum := 0.0
	for i := 0; i < grid; i++ {
		p := (float64(i) + 0.5) / grid
		sum += h.Quantile(p)
	}
	return sum / grid
}

// Variance returns the biased variance by quantile-grid integration.
func (h *HazardBiased) Variance() float64 {
	const grid = 4096
	mean := h.Mean()
	sum := 0.0
	for i := 0; i < grid; i++ {
		p := (float64(i) + 0.5) / grid
		d := h.Quantile(p) - mean
		sum += d * d
	}
	return sum / grid
}

// CDF returns 1 - S(x)^B.
func (h *HazardBiased) CDF(x float64) float64 {
	s := 1 - h.D.CDF(x)
	return 1 - math.Pow(s, h.Bias)
}

// Quantile inverts the biased CDF: Q(1 - (1-p)^(1/B)).
func (h *HazardBiased) Quantile(p float64) float64 {
	checkQuantileP(p)
	q := 1 - math.Pow(1-p, 1/h.Bias)
	if q >= 1 {
		q = math.Nextafter(1, 0)
	}
	return h.D.Quantile(q)
}

// String describes the wrapper. It is diagnostic only — the runner
// constructs HazardBiased programmatically, so Parse does not accept it.
func (h *HazardBiased) String() string {
	return fmt.Sprintf("hazardbias(bias=%g, %s)", h.Bias, h.D)
}

package stats

import (
	"fmt"
	"math"
)

// TimeWeighted integrates a piecewise-constant signal over simulated time,
// yielding time-averaged values. Availability ("fraction of time at least
// one quorum was up") and queue lengths are time averages, not event
// averages, so they must be accumulated this way.
type TimeWeighted struct {
	lastT    float64
	lastV    float64
	area     float64
	started  bool
	duration float64
}

// Set records that the signal takes value v from time t onward. Calls must
// have non-decreasing t; the first call establishes the origin.
func (tw *TimeWeighted) Set(t, v float64) {
	if !tw.started {
		tw.lastT, tw.lastV, tw.started = t, v, true
		return
	}
	if t < tw.lastT {
		panic(fmt.Sprintf("stats: TimeWeighted time went backwards: %v < %v", t, tw.lastT))
	}
	tw.area += tw.lastV * (t - tw.lastT)
	tw.duration += t - tw.lastT
	tw.lastT, tw.lastV = t, v
}

// Average returns the time average of the signal so far.
func (tw *TimeWeighted) Average() float64 {
	if tw.duration == 0 {
		return tw.lastV
	}
	return tw.area / tw.duration
}

// BinomialCI returns the Wilson score interval for a proportion with
// successes k out of n at confidence 1-alpha. Availability probabilities
// estimated by Monte Carlo (Figure 1) are proportions, and Wilson behaves
// sensibly at p near 0 and 1 where the Wald interval collapses.
func BinomialCI(k, n int64, alpha float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	z := normQuantile(1 - alpha/2)
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo, hi = center-half, center+half
	// Exact endpoints: round-off must not report a non-zero lower bound
	// for zero successes (or symmetrically at k=n).
	if k == 0 || lo < 0 {
		lo = 0
	}
	if k == n || hi > 1 {
		hi = 1
	}
	return lo, hi
}

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

// Finish closes the integration window at time t and returns the time
// average over the observed window. The accumulator remains usable.
func (tw *TimeWeighted) Finish(t float64) float64 {
	if !tw.started {
		return 0
	}
	tw.Set(t, tw.lastV)
	return tw.Average()
}

// Average returns the time average of the signal so far.
func (tw *TimeWeighted) Average() float64 {
	if tw.duration == 0 {
		return tw.lastV
	}
	return tw.area / tw.duration
}

// Duration returns the total observed time span.
func (tw *TimeWeighted) Duration() float64 { return tw.duration }

// Histogram counts observations into equal-width bins over [Lo, Hi), with
// overflow/underflow bins at the ends, for expressing SLAs as
// distributions (§4.1).
type Histogram struct {
	Lo, Hi  float64
	counts  []int64
	under   int64
	over    int64
	total   int64
	binArea float64
}

// NewHistogram creates a histogram with bins equal-width buckets on
// [lo, hi). It returns an error if the range is empty or bins < 1.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: histogram range [%v, %v) is empty", lo, hi)
	}
	if bins < 1 {
		return nil, fmt.Errorf("stats: histogram needs >= 1 bin, got %d", bins)
	}
	return &Histogram{Lo: lo, Hi: hi, counts: make([]int64, bins),
		binArea: (hi - lo) / float64(bins)}, nil
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.under++
	case x >= h.Hi:
		h.over++
	default:
		i := int((x - h.Lo) / h.binArea)
		if i >= len(h.counts) { // float edge case at Hi boundary
			i = len(h.counts) - 1
		}
		h.counts[i]++
	}
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.total }

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) int64 { return h.counts[i] }

// Bins returns the number of interior bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Underflow and Overflow return the out-of-range counts.
func (h *Histogram) Underflow() int64 { return h.under }
func (h *Histogram) Overflow() int64  { return h.over }

// FractionBelow returns the fraction of observations strictly below x,
// resolved at bin granularity (bins fully below x count entirely).
func (h *Histogram) FractionBelow(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	c := h.under
	for i := range h.counts {
		hiEdge := h.Lo + float64(i+1)*h.binArea
		if hiEdge <= x {
			c += h.counts[i]
		}
	}
	if x > h.Hi {
		c += h.over
	}
	return float64(c) / float64(h.total)
}

// Counter is a simple named event counter map.
type Counter map[string]int64

// Inc increments name by delta.
func (c Counter) Inc(name string, delta int64) { c[name] += delta }

// Get returns the count for name (0 if absent).
func (c Counter) Get(name string) int64 { return c[name] }

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

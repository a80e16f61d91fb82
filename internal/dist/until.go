package dist

import (
	"math"

	"repro/internal/rng"
)

// Until draws one distribution's variates as delays from a time now and
// tells which of them land strictly after a fixed end: a failure drawn
// past the end of a run need not be scheduled, nor, for Exponential and
// Weibull, even computed. Every draw takes from the stream exactly what
// Sample takes, so a stream advances as it would under Sample alone.
//
// Exponential and Weibull sample by inversion (see inverse), so "later
// than the end" is "the uniform below a cutoff". Until works the cutoff
// out once per now, with a margin that makes every decision it takes
// early certain: the variate is then longer than the distance to the
// next float after the end by a relative 1e-9, far beyond the rounding of
// the cutoff, of the variate and of now + variate. A uniform inside the
// margin takes the exact variate. Any other distribution is sampled and
// compared.
type Until struct {
	d   Dist
	inv inverse // d, when it samples by inversion; nil otherwise
	end float64

	// cut is the cutoff for draws at now (NaN before the first draw): a
	// uniform below it lands past end for certain.
	now, cut float64
}

// inverse is a distribution whose Sample is at(u) of one uniform u from
// OpenFloat64, at decreasing in u with at(u) > x exactly when -ln u
// exceeds the cumulative hazard at x. hazardAbove(x) is that hazard up to
// a rounding Until's margin covers, or anything larger (+Inf: no uniform
// is decided early).
type inverse interface {
	at(u float64) float64
	hazardAbove(x float64) float64
}

// untilMargin is the relative room every early decision keeps.
const untilMargin = 1e-9

// NewUntil returns an Until for draws of d against end; with end = +Inf
// nothing is past it.
func NewUntil(d Dist, end float64) Until {
	u := Until{d: d, end: end, now: math.NaN()}
	// The families themselves only: a type that embeds one has its
	// methods, but may sample otherwise.
	switch d.(type) {
	case Exponential, Weibull:
		u.inv = d.(inverse)
	}
	return u
}

// Sample draws a variate x from r as d.Sample(r) does and reports whether
// now + x is later than the end. When it is, x may not have been computed
// and is then 0.
func (u *Until) Sample(r *rng.Source, now float64) (x float64, past bool) {
	if u.inv == nil {
		x = u.d.Sample(r)
		return x, now+x > u.end
	}
	if now != u.now {
		u.now, u.cut = now, u.cutoff(now)
	}
	v := r.OpenFloat64()
	if v < u.cut {
		return 0, true
	}
	x = u.inv.at(v)
	// The conversion keeps the sum from fusing with the variate's last
	// multiply: the end is compared with the time the caller will schedule.
	return x, now+float64(x) > u.end
}

// cutoff returns a uniform below which the variate, added to now, lands
// past the end for certain; 0 when none is decided early.
//
// reach is a length every variate longer than which lands past the end:
// the distance from now to the float after the end, with the margin, and
// never below a normal float, so the relative bounds hold. Such a variate
// needs -ln u above hazardAbove(reach); exp of minus that, less the
// margin, keeps the cutoff below the true one however exp rounds, and is
// an absolute slack on the hazard that covers it underflowing.
func (u *Until) cutoff(now float64) float64 {
	reach := (math.Nextafter(u.end, math.Inf(1)) - now) * (1 + untilMargin)
	if math.IsNaN(reach) {
		return 0
	}
	return math.Exp(-u.inv.hazardAbove(max(reach, 0x1p-1000))) * (1 - untilMargin)
}

package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// untilDist builds the distribution a FuzzUntil input names: an
// Exponential or a Weibull (the two families Until decides early), or a
// LogNormal (sampled and compared), from parameters clamped to be valid.
func untilDist(family uint8, a, b float64) Dist {
	pos := func(v, def float64) float64 {
		v = math.Abs(v)
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return def
		}
		return v
	}
	switch family % 3 {
	case 0:
		return Exponential{Rate: pos(a, 1)}
	case 1:
		return Weibull{Shape: pos(a, 1), Scale: pos(b, 1)}
	default:
		return LogNormal{Mu: math.Mod(pos(a, 1), 50), Sigma: pos(b, 1)}
	}
}

// checkUntil draws n variates through Until and, on a clone of the
// stream, through Sample itself, and fails unless every draw reported past
// the end lands strictly after it when scheduled from now (now + variate >
// end), every other draw is Sample's variate bit for bit and at or before
// the end, and both streams stand at the same position after every draw.
// It returns how many draws were past the end and how many of those were
// decided early, without the variate.
func checkUntil(t *testing.T, d Dist, seed uint64, now, end float64, n int) (past, early int) {
	t.Helper()
	u := NewUntil(d, end)
	got, want := rng.New(seed), rng.New(seed)
	if seed&1 == 1 {
		got.SetAntithetic(true)
		want.SetAntithetic(true)
	}
	for i := 0; i < n; i++ {
		x, after := u.Sample(got, now)
		y := d.Sample(want)
		if *got != *want {
			t.Fatalf("%v from %v to end %v, draw %d: the stream moved differently from Sample's", d, now, end, i)
		}
		if after != (now+y > end) {
			t.Fatalf("%v from %v to end %v, draw %d: past = %v, but Sample's %v lands at %v",
				d, now, end, i, after, y, now+y)
		}
		if !after && math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%v from %v, draw %d: variate %v, Sample's %v", d, now, i, x, y)
		}
		if after {
			past++
			if x == 0 && y != 0 {
				early++
			}
		}
	}
	return past, early
}

// checkLanding runs checkUntil on the first draw from seed with ends from
// four ulps before to four after the time that draw lands at.
func checkLanding(t *testing.T, d Dist, seed uint64, now float64) {
	t.Helper()
	r := rng.New(seed)
	if seed&1 == 1 {
		r.SetAntithetic(true)
	}
	lands := now + d.Sample(r)
	end := lands
	for i := 0; i < 4; i++ {
		end = math.Nextafter(end, math.Inf(-1))
	}
	for ; end <= lands+4*(math.Nextafter(lands, math.Inf(1))-lands); end = math.Nextafter(end, math.Inf(1)) {
		checkUntil(t, d, seed, now, end, 1)
	}
}

// TestUntilDecidesEarly: at the rates of a quiet trial (MTTF 50 000 h, a
// 168 h run) nearly every first failure lands past the end, and every one
// that does is decided from its uniform, in agreement with Sample; with no
// end nothing is past, and a LogNormal is never decided early.
func TestUntilDecidesEarly(t *testing.T) {
	for _, d := range []Dist{Exponential{Rate: 1.0 / 50000}, Weibull{Shape: 0.7, Scale: 50000}, Weibull{Shape: 3, Scale: 400}} {
		if past, early := checkUntil(t, d, 7, 0, 168, 2000); past < 1800 || early != past {
			t.Errorf("%v: %d of 2000 draws past the end, %d of them decided early", d, past, early)
		}
		if past, _ := checkUntil(t, d, 8, 40, math.Inf(1), 200); past != 0 {
			t.Errorf("%v: %d draws past an infinite end", d, past)
		}
	}
	if past, early := checkUntil(t, LogNormal{Mu: 2, Sigma: 1}, 9, 0, 3, 500); past == 0 || early != 0 {
		t.Errorf("a LogNormal: %d draws past the end, %d decided early", past, early)
	}
	// Ends a few ulps either side of where the first draw lands: the
	// margin keeps every early decision off the draws at the end itself.
	for _, d := range []Dist{Exponential{Rate: 1.0 / 50000}, Weibull{Shape: 0.7, Scale: 50000}, Weibull{Shape: 3, Scale: 400}} {
		for seed := uint64(0); seed < 200; seed++ {
			checkLanding(t, d, seed, float64(seed%7)*13.25)
		}
	}
	// A type that embeds a family but samples its own way is sampled.
	calls := 0
	u := NewUntil(countedExp{Exponential{Rate: 1.0 / 50000}, &calls}, 168)
	for i := 0; i < 10; i++ {
		u.Sample(rng.New(uint64(i)), 0)
	}
	if calls != 10 {
		t.Errorf("an embedded Exponential's own Sample ran %d times of 10", calls)
	}
}

// countedExp is an Exponential whose Sample counts its calls.
type countedExp struct {
	Exponential
	calls *int
}

func (c countedExp) Sample(r *rng.Source) float64 {
	*c.calls++
	return c.Exponential.Sample(r)
}

// FuzzUntil holds Until to Sample on a cloned stream: a draw is reported
// past the end only when Sample's variate, added to now, lands strictly
// after it, a draw that is not is Sample's bit for bit, and both leave the
// stream at the same position. Ends are placed a few ulps from now, where
// absolute rounding decides, as well as at a fraction of the mean.
func FuzzUntil(f *testing.F) {
	f.Add(uint64(1), uint8(0), 1.0/50000, 0.0, 0.0, 168.0, int8(0))
	f.Add(uint64(2), uint8(1), 0.7, 50000.0, 0.0, 168.0, int8(0))
	f.Add(uint64(3), uint8(0), 2.0, 0.0, 1e6, 0.0, int8(1))
	f.Add(uint64(4), uint8(0), 1e-300, 0.0, 123456.789, 0.0, int8(3))
	f.Add(uint64(5), uint8(1), 0.001, 1e-3, 7.5, 0.0, int8(-2))
	f.Add(uint64(6), uint8(1), 1000.0, 3.0, 2.0, 1.0, int8(0))
	f.Add(uint64(7), uint8(1), 1.5, 1e300, 0.0, 1e300, int8(0))
	f.Add(uint64(8), uint8(2), 2.0, 1.0, 10.0, 5.0, int8(0))
	f.Add(uint64(9), uint8(0), 1e300, 0.0, 0.0, 0.0, int8(1))
	f.Add(uint64(10), uint8(1), 0.5, 1e-200, 0.0, 1e-300, int8(0))
	f.Fuzz(func(t *testing.T, seed uint64, family uint8, a, b, now, gap float64, ulps int8) {
		d := untilDist(family, a, b)
		now = math.Abs(now)
		if math.IsNaN(now) || math.IsInf(now, 0) {
			now = 0
		}
		end := now + math.Abs(gap)
		if math.IsNaN(end) {
			end = now
		}
		for i := int8(0); i != ulps; {
			if ulps > 0 {
				end, i = math.Nextafter(end, math.Inf(1)), i+1
			} else {
				end, i = math.Nextafter(end, math.Inf(-1)), i-1
			}
		}
		checkUntil(t, d, seed, now, end, 64)
		checkLanding(t, d, seed, now)
	})
}

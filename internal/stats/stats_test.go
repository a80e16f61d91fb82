package stats

import (
	"math"
	"testing"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d, want 8", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic sample is 4; unbiased = 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", w.Variance(), 32.0/7)
	}
}

func TestWelfordCIShrinks(t *testing.T) {
	var w Welford
	for i := 0; i < 10; i++ {
		w.Add(float64(i % 5))
	}
	ci10 := w.CI(0.05)
	for i := 10; i < 1000; i++ {
		w.Add(float64(i % 5))
	}
	ci1000 := w.CI(0.05)
	if ci1000 >= ci10 {
		t.Errorf("CI did not shrink: %v -> %v", ci10, ci1000)
	}
	if ci1000 <= 0 {
		t.Errorf("CI half-width must be positive, got %v", ci1000)
	}
}

func TestTQuantileApproachesNormal(t *testing.T) {
	z := normQuantile(0.975)
	tq := tQuantile(0.975, 10000)
	if math.Abs(z-tq) > 1e-3 {
		t.Errorf("t(0.975, 10000) = %v, want ~ %v", tq, z)
	}
	// Small df must inflate: t(0.975, 5) ~ 2.571 vs z ~ 1.96.
	t5 := tQuantile(0.975, 5)
	if t5 < 2.4 || t5 > 2.75 {
		t.Errorf("t(0.975, 5) = %v, want ~2.57", t5)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 100; i >= 1; i-- { // insert descending to exercise sorting
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0.01, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := s.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s.Mean() != 50.5 {
		t.Errorf("mean = %v, want 50.5", s.Mean())
	}
	if s.Max() != 100 {
		t.Errorf("max = %v, want 100", s.Max())
	}
}

func TestSampleQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty sample quantile")
		}
	}()
	var s Sample
	s.Quantile(0.5)
}

func TestTimeWeightedAverage(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 1)  // up from 0
	tw.Set(10, 0) // down at 10
	tw.Set(15, 1) // up at 15
	tw.Set(20, 1)
	// Up for 10 + 5 of 20 time units = 0.75.
	if avg := tw.Average(); math.Abs(avg-0.75) > 1e-12 {
		t.Errorf("time average = %v, want 0.75", avg)
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards time")
		}
	}()
	var tw TimeWeighted
	tw.Set(5, 1)
	tw.Set(4, 0)
}

func TestBinomialCI(t *testing.T) {
	lo, hi := BinomialCI(50, 100, 0.05)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("CI [%v, %v] must contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("CI [%v, %v] too wide for n=100", lo, hi)
	}
	// Edge cases stay in [0,1].
	lo, hi = BinomialCI(0, 10, 0.05)
	if lo != 0 || hi <= 0 || hi > 1 {
		t.Errorf("CI for 0/10 = [%v, %v]", lo, hi)
	}
	lo, hi = BinomialCI(10, 10, 0.05)
	if hi != 1 || lo >= 1 || lo < 0 {
		t.Errorf("CI for 10/10 = [%v, %v]", lo, hi)
	}
	lo, hi = BinomialCI(0, 0, 0.05)
	if lo != 0 || hi != 1 {
		t.Errorf("CI for 0/0 = [%v, %v], want [0,1]", lo, hi)
	}
}

func TestBinomialCICoverageProperty(t *testing.T) {
	// Wilson interval width shrinks with n and is widest at p=0.5.
	_, hi1 := BinomialCI(5, 10, 0.05)
	lo1, _ := BinomialCI(5, 10, 0.05)
	_, hi2 := BinomialCI(500, 1000, 0.05)
	lo2, _ := BinomialCI(500, 1000, 0.05)
	if (hi2 - lo2) >= (hi1 - lo1) {
		t.Errorf("CI width did not shrink with n: %v vs %v", hi2-lo2, hi1-lo1)
	}
}

func TestWeightedWelfordUnitWeightsMatchWelford(t *testing.T) {
	var w Welford
	var ww WeightedWelford
	xs := []float64{3.1, -2.2, 0.5, 9.9, 4.4, 4.4, -1.7}
	for _, x := range xs {
		w.Add(x)
		ww.Add(x, 1)
	}
	if w.Mean() != ww.Mean() {
		t.Errorf("means differ: %v vs %v", w.Mean(), ww.Mean())
	}
	if w.Variance() != ww.Variance() {
		t.Errorf("variances differ: %v vs %v", w.Variance(), ww.Variance())
	}
	if w.CI(0.05) != ww.CI(0.05) {
		t.Errorf("CIs differ: %v vs %v", w.CI(0.05), ww.CI(0.05))
	}
	if ww.EffectiveN() != float64(w.N()) {
		t.Errorf("effective n = %v, want %d", ww.EffectiveN(), w.N())
	}
}

func TestWeightedWelfordMean(t *testing.T) {
	var ww WeightedWelford
	ww.Add(1, 3)
	ww.Add(5, 1)
	want := (3.0*1 + 1.0*5) / 4.0
	if math.Abs(ww.Mean()-want) > 1e-12 {
		t.Errorf("weighted mean = %v, want %v", ww.Mean(), want)
	}
	if ww.N() != 2 {
		t.Errorf("n = %d, want 2", ww.N())
	}
	// Kish effective sample size: (3+1)^2 / (9+1) = 1.6.
	if math.Abs(ww.EffectiveN()-1.6) > 1e-12 {
		t.Errorf("effective n = %v, want 1.6", ww.EffectiveN())
	}
}

func TestWeightedWelfordZeroAndNegativeWeights(t *testing.T) {
	var ww WeightedWelford
	ww.Add(1, 1)
	ww.Add(100, 0) // ignored
	if ww.N() != 1 || ww.Mean() != 1 {
		t.Errorf("zero-weight observation changed the accumulator: %v", ww)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative weight did not panic")
		}
	}()
	ww.Add(1, -1)
}

func TestWeightedWelfordLargeWeightKeepsFiniteCI(t *testing.T) {
	// exp(350) is the largest weight scale HazardBiased.Weight can emit;
	// its square must stay finite so EffectiveN and CI stay meaningful.
	var ww WeightedWelford
	w := math.Exp(350)
	ww.Add(0.9, w)
	ww.Add(0.95, 1)
	ww.Add(0.99, w)
	if math.IsNaN(ww.EffectiveN()) || math.IsInf(ww.EffectiveN(), 0) {
		t.Fatalf("effective n degenerated: %v", ww.EffectiveN())
	}
	if math.IsNaN(ww.CI(0.05)) {
		t.Fatalf("CI degenerated: %v", ww.CI(0.05))
	}
}

package core

import (
	"math"
	"testing"
)

func TestFigure1MCMatchesExactRandom(t *testing.T) {
	// §4.3 validation: the Monte-Carlo wind tunnel must agree with the
	// closed-form combinatorics.
	for _, f := range []int{1, 2, 3} {
		cfg := Figure1Config{
			N: 10, Replicas: 3, Failures: f, Users: 1000,
			Placement: "random", Trials: 4000, Seed: 42,
		}
		res, err := Figure1MonteCarlo(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exact < 0 {
			t.Fatalf("f=%d: no exact value computed", f)
		}
		// The exact value should be inside (slightly widened) Wilson CI.
		slack := 0.02
		if res.Exact < res.CILo-slack || res.Exact > res.CIHi+slack {
			t.Errorf("f=%d: exact %v outside MC CI [%v, %v]",
				f, res.Exact, res.CILo, res.CIHi)
		}
	}
}

func TestFigure1MCMatchesExactRoundRobin(t *testing.T) {
	for _, f := range []int{2, 4, 6} {
		cfg := Figure1Config{
			N: 10, Replicas: 3, Failures: f, Users: 1000,
			Placement: "roundrobin", Trials: 4000, Seed: 7,
		}
		res, err := Figure1MonteCarlo(cfg)
		if err != nil {
			t.Fatal(err)
		}
		slack := 0.02
		if res.Exact < res.CILo-slack || res.Exact > res.CIHi+slack {
			t.Errorf("f=%d: exact %v outside MC CI [%v, %v]",
				f, res.Exact, res.CILo, res.CIHi)
		}
	}
}

func TestFigure1CurveShape(t *testing.T) {
	// The paper's qualitative claims: monotone in failures, 0 at f=0,
	// 1 at f=N.
	curve, err := Figure1Curve(Figure1Config{
		N: 10, Replicas: 3, Users: 1000, Placement: "roundrobin",
		Trials: 1500, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 11 {
		t.Fatalf("curve has %d points, want 11", len(curve))
	}
	if curve[0].Probability != 0 {
		t.Errorf("P(unavail | 0 failures) = %v, want 0", curve[0].Probability)
	}
	if curve[10].Probability != 1 {
		t.Errorf("P(unavail | all failed) = %v, want 1", curve[10].Probability)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Probability < curve[i-1].Probability-0.05 {
			t.Errorf("curve not (approximately) monotone at f=%d: %v < %v",
				i, curve[i].Probability, curve[i-1].Probability)
		}
	}
}

func TestFigure1HigherReplicationShiftsCurve(t *testing.T) {
	// n=5 curve must lie at or below n=3 at small failure counts.
	for _, f := range []int{2, 3} {
		p3, err := Figure1MonteCarlo(Figure1Config{
			N: 30, Replicas: 3, Failures: f, Users: 10000,
			Placement: "random", Trials: 1500, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		p5, err := Figure1MonteCarlo(Figure1Config{
			N: 30, Replicas: 5, Failures: f, Users: 10000,
			Placement: "random", Trials: 1500, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if p5.Probability > p3.Probability+0.05 {
			t.Errorf("f=%d: n=5 prob %v exceeds n=3 prob %v",
				f, p5.Probability, p3.Probability)
		}
	}
}

func TestFigure1Validation(t *testing.T) {
	bad := Figure1Config{N: 10, Replicas: 11, Failures: 1, Users: 10, Placement: "random", Trials: 10}
	if _, err := Figure1MonteCarlo(bad); err == nil {
		t.Error("replicas > N accepted")
	}
	bad = Figure1Config{N: 10, Replicas: 3, Failures: 11, Users: 10, Placement: "random", Trials: 10}
	if _, err := Figure1MonteCarlo(bad); err == nil {
		t.Error("failures > N accepted")
	}
	bad = Figure1Config{N: 10, Replicas: 3, Failures: 1, Users: 10, Placement: "bogus", Trials: 10}
	if _, err := Figure1MonteCarlo(bad); err == nil {
		t.Error("unknown placement accepted")
	}
	bad = Figure1Config{N: 10, Replicas: 3, Failures: 1, Users: 0, Placement: "random", Trials: 10}
	if _, err := Figure1MonteCarlo(bad); err == nil {
		t.Error("0 users accepted")
	}
}

func TestFigure1ExactAgreesWithMCUnderBothPolicies(t *testing.T) {
	// Cross-check MC estimates against each other at a shared point where
	// both have exact values: the probabilities must both be in [0,1] and
	// RR <= Random at small f (paper shape).
	rr, err := Figure1MonteCarlo(Figure1Config{
		N: 10, Replicas: 3, Failures: 2, Users: 10000,
		Placement: "roundrobin", Trials: 3000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Figure1MonteCarlo(Figure1Config{
		N: 10, Replicas: 3, Failures: 2, Users: 10000,
		Placement: "random", Trials: 3000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(rr.Probability < rd.Probability) {
		t.Errorf("RR prob %v should be below Random prob %v at f=2, 10k users",
			rr.Probability, rd.Probability)
	}
	// And the exact values agree with the hand-computed 20/45 and ~1.
	if math.Abs(rr.Exact-20.0/45) > 1e-9 {
		t.Errorf("RR exact = %v, want %v", rr.Exact, 20.0/45)
	}
	if rd.Exact < 0.999 {
		t.Errorf("Random exact = %v, want ~1 with 10k users", rd.Exact)
	}
}

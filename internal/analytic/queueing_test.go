package analytic

import (
	"math"
	"testing"
)

func TestMM1KnownValues(t *testing.T) {
	q, err := NewMM1(0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.Rho()-0.5) > 1e-12 {
		t.Errorf("rho = %v, want 0.5", q.Rho())
	}
	if math.Abs(q.W()-2.0) > 1e-12 {
		t.Errorf("W = %v, want 2", q.W())
	}
	if math.Abs(q.Wq()-1.0) > 1e-12 {
		t.Errorf("Wq = %v, want 1", q.Wq())
	}
}

func TestMM1Validation(t *testing.T) {
	if _, err := NewMM1(1, 1); err == nil {
		t.Error("unstable M/M/1 accepted")
	}
	if _, err := NewMM1(-1, 1); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestMMcReducesToMM1(t *testing.T) {
	m1, err := NewMM1(0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMMc(0.7, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m1.Wq()-mc.Wq()) > 1e-12 {
		t.Errorf("M/M/1 Wq=%v vs M/M/c(1) Wq=%v", m1.Wq(), mc.Wq())
	}
	// Erlang C with one server equals rho.
	if math.Abs(mc.ErlangC()-0.7) > 1e-12 {
		t.Errorf("ErlangC(c=1) = %v, want rho=0.7", mc.ErlangC())
	}
}

func TestMMcKnownValue(t *testing.T) {
	// Classic textbook case: lambda=2, mu=1, c=3 => ErlangC ~ 0.4444.
	q, err := NewMMc(2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.ErlangC(); math.Abs(got-4.0/9) > 1e-9 {
		t.Errorf("ErlangC = %v, want %v", got, 4.0/9)
	}
	if got := q.Wq(); math.Abs(got-4.0/9) > 1e-9 {
		t.Errorf("Wq = %v, want 4/9", got)
	}
}

func TestStabilityValidation(t *testing.T) {
	if _, err := NewMMc(3, 1, 3); err == nil {
		t.Error("unstable M/M/c accepted")
	}
}

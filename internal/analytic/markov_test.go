package analytic

import (
	"math"
	"testing"
)

func TestBirthDeathTwoState(t *testing.T) {
	// Single machine: fail rate lambda, repair rate mu.
	// P(down) = lambda / (lambda + mu).
	bd, err := NewBirthDeath([]float64{0.1}, []float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	p := bd.SteadyState()
	if math.Abs(p[0]-0.9) > 1e-12 || math.Abs(p[1]-0.1) > 1e-12 {
		t.Errorf("steady state = %v, want [0.9, 0.1]", p)
	}
}

func TestBirthDeathSumsToOne(t *testing.T) {
	bd, err := NewBirthDeath([]float64{3, 2, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	p := bd.SteadyState()
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("steady state sums to %v", sum)
	}
}

func TestBirthDeathMatchesMM1Truncated(t *testing.T) {
	// Birth-death with constant rates is a truncated M/M/1: p_n ∝ rho^n.
	lambda, mu := 0.5, 1.0
	birth := []float64{lambda, lambda, lambda, lambda}
	death := []float64{mu, mu, mu, mu}
	bd, err := NewBirthDeath(birth, death)
	if err != nil {
		t.Fatal(err)
	}
	p := bd.SteadyState()
	for n := 1; n < len(p); n++ {
		if math.Abs(p[n]/p[n-1]-0.5) > 1e-12 {
			t.Errorf("ratio p[%d]/p[%d] = %v, want 0.5", n, n-1, p[n]/p[n-1])
		}
	}
}

func TestBirthDeathValidation(t *testing.T) {
	if _, err := NewBirthDeath(nil, nil); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := NewBirthDeath([]float64{1}, []float64{0}); err == nil {
		t.Error("zero death rate accepted")
	}
	if _, err := NewBirthDeath([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestReplicaModelSingleReplica(t *testing.T) {
	// n=1: unavailability (quorumDown=1) = lambda/(lambda+mu).
	m, err := NewReplicaAvailabilityModel(1, 0.01, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.01 / 1.01
	if got := m.Unavailability(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("unavailability = %v, want %v", got, want)
	}
}

func TestReplicaModelMoreReplicasMoreAvailable(t *testing.T) {
	var prev float64 = 1
	for _, n := range []int{1, 3, 5} {
		m, err := NewReplicaAvailabilityModel(n, 0.01, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		u := m.Unavailability(MajorityQuorumDown(n))
		if u >= prev {
			t.Errorf("n=%d: unavailability %v did not improve on %v", n, u, prev)
		}
		prev = u
	}
}

func TestReplicaModelParallelRepairHelps(t *testing.T) {
	serial, err := NewReplicaAvailabilityModel(3, 0.05, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewReplicaAvailabilityModel(3, 0.05, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	q := MajorityQuorumDown(3)
	us, up := serial.Unavailability(q), parallel.Unavailability(q)
	if up >= us {
		t.Errorf("parallel repair unavailability %v should beat serial %v", up, us)
	}
}

func TestReplicaModelFasterRepairCompensatesLowerReplication(t *testing.T) {
	// The §1 claim: n-1 replicas with much faster repair can match n
	// replicas with slow repair.
	slow3, err := NewReplicaAvailabilityModel(3, 0.01, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	fast2, err := NewReplicaAvailabilityModel(2, 0.01, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	u3 := slow3.Unavailability(3) // all copies down
	u2 := fast2.Unavailability(2)
	if u2 > u3*10 {
		t.Errorf("fast-repair n=2 (%v) should be within 10x of slow n=3 (%v)", u2, u3)
	}
}

func TestMajorityQuorumDown(t *testing.T) {
	cases := []struct{ n, want int }{{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {7, 4}}
	for _, c := range cases {
		if got := MajorityQuorumDown(c.n); got != c.want {
			t.Errorf("MajorityQuorumDown(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

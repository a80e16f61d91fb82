package analytic

import "fmt"

// BirthDeath solves a finite birth–death chain on states 0..N with birth
// rates Birth[i] (i -> i+1) and death rates Death[i] (i -> i-1, indexed by
// the source state). Steady-state probabilities follow the detailed-balance
// product form.
//
// Availability models are birth–death chains on "number of failed
// replicas": births are failures, deaths are repairs. The paper's §2.2
// describes exactly this class of model (and its limits).
type BirthDeath struct {
	Birth []float64 // len N: rate from state i to i+1, i = 0..N-1
	Death []float64 // len N: rate from state i+1 to i, i = 0..N-1
}

// NewBirthDeath validates the chain: equal-length positive-rate slices.
// A zero birth rate truncates the chain (states beyond are unreachable).
func NewBirthDeath(birth, death []float64) (*BirthDeath, error) {
	if len(birth) == 0 || len(birth) != len(death) {
		return nil, fmt.Errorf("analytic: birth/death slices must be non-empty and equal length (%d vs %d)",
			len(birth), len(death))
	}
	for i, d := range death {
		if d <= 0 {
			return nil, fmt.Errorf("analytic: death rate %d must be positive, got %v", i, d)
		}
		if birth[i] < 0 {
			return nil, fmt.Errorf("analytic: birth rate %d must be non-negative, got %v", i, birth[i])
		}
	}
	return &BirthDeath{Birth: birth, Death: death}, nil
}

// SteadyState returns the stationary distribution over states 0..N.
func (bd *BirthDeath) SteadyState() []float64 {
	n := len(bd.Birth)
	p := make([]float64, n+1)
	p[0] = 1
	for i := 0; i < n; i++ {
		p[i+1] = p[i] * bd.Birth[i] / bd.Death[i]
	}
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// ReplicaAvailabilityModel is the classical Markov availability model for
// an object with N replicas: replicas fail independently at FailRate each
// and are repaired at RepairRate. With ParallelRepair, all failed replicas
// repair concurrently (rate k*RepairRate in state k); otherwise one repair
// proceeds at a time — the software design choice highlighted in §1.
type ReplicaAvailabilityModel struct {
	N              int
	FailRate       float64 // per replica, per unit time
	RepairRate     float64 // per repair stream, per unit time
	ParallelRepair bool
}

// NewReplicaAvailabilityModel validates and constructs the model.
func NewReplicaAvailabilityModel(n int, failRate, repairRate float64, parallel bool) (*ReplicaAvailabilityModel, error) {
	if n < 1 {
		return nil, fmt.Errorf("analytic: replica model needs n >= 1, got %d", n)
	}
	if failRate <= 0 || repairRate <= 0 {
		return nil, fmt.Errorf("analytic: replica model rates must be positive (fail=%v, repair=%v)",
			failRate, repairRate)
	}
	return &ReplicaAvailabilityModel{N: n, FailRate: failRate, RepairRate: repairRate,
		ParallelRepair: parallel}, nil
}

// chain builds the underlying birth–death chain on failed-replica count.
func (m *ReplicaAvailabilityModel) chain() *BirthDeath {
	birth := make([]float64, m.N)
	death := make([]float64, m.N)
	for k := 0; k < m.N; k++ {
		// k replicas failed: N-k healthy replicas can fail.
		birth[k] = float64(m.N-k) * m.FailRate
		if m.ParallelRepair {
			death[k] = float64(k+1) * m.RepairRate
		} else {
			death[k] = m.RepairRate
		}
	}
	bd, err := NewBirthDeath(birth, death)
	if err != nil {
		// Construction is internal; rates are positive by validation.
		panic(err)
	}
	return bd
}

// StateProbabilities returns steady-state probabilities over the number of
// failed replicas 0..N.
func (m *ReplicaAvailabilityModel) StateProbabilities() []float64 {
	return m.chain().SteadyState()
}

// Unavailability returns the steady-state probability that at least
// quorumDown replicas are simultaneously failed. For a majority-quorum
// system, pass quorumDown = floor(N/2)+1 (the paper's Figure-1 criterion);
// for "all copies lost", pass N.
func (m *ReplicaAvailabilityModel) Unavailability(quorumDown int) float64 {
	if quorumDown < 0 {
		quorumDown = 0
	}
	p := m.StateProbabilities()
	u := 0.0
	for k := quorumDown; k <= m.N; k++ {
		u += p[k]
	}
	return u
}

// MajorityQuorumDown returns the minimum number of failed replicas that
// breaks a majority quorum of n replicas: floor(n/2)+1.
func MajorityQuorumDown(n int) int { return n/2 + 1 }

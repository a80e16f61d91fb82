// Package analytic implements the closed-form models the paper positions
// as both comparator and validation instrument (§2.2, §4.3): classical
// queueing formulas (M/M/1, M/M/c), birth–death Markov chains for
// availability, and exact combinatorics for the replica-placement
// unavailability question behind Figure 1.
//
// The queueing models assume exponential arrivals/services where named so;
// the point of the wind tunnel is precisely that real systems are not
// exponential, and internal/validate quantifies the resulting error.
package analytic

import "fmt"

// MM1 describes an M/M/1 queue with arrival rate Lambda and service rate
// Mu (both per unit time).
type MM1 struct {
	Lambda, Mu float64
}

// NewMM1 validates and constructs an M/M/1 model. The queue must be
// stable: lambda < mu.
func NewMM1(lambda, mu float64) (MM1, error) {
	if lambda <= 0 || mu <= 0 {
		return MM1{}, fmt.Errorf("analytic: M/M/1 rates must be positive (lambda=%v, mu=%v)", lambda, mu)
	}
	if lambda >= mu {
		return MM1{}, fmt.Errorf("analytic: M/M/1 unstable: lambda=%v >= mu=%v", lambda, mu)
	}
	return MM1{Lambda: lambda, Mu: mu}, nil
}

// Rho returns the utilization λ/μ.
func (q MM1) Rho() float64 { return q.Lambda / q.Mu }

// W returns the mean sojourn (response) time.
func (q MM1) W() float64 { return 1 / (q.Mu - q.Lambda) }

// Wq returns the mean waiting time in queue.
func (q MM1) Wq() float64 { return q.Rho() / (q.Mu - q.Lambda) }

// MMc describes an M/M/c queue with c identical servers.
type MMc struct {
	Lambda, Mu float64
	C          int
}

// NewMMc validates and constructs an M/M/c model; requires lambda < c*mu.
func NewMMc(lambda, mu float64, c int) (MMc, error) {
	if lambda <= 0 || mu <= 0 {
		return MMc{}, fmt.Errorf("analytic: M/M/c rates must be positive (lambda=%v, mu=%v)", lambda, mu)
	}
	if c < 1 {
		return MMc{}, fmt.Errorf("analytic: M/M/c needs c >= 1 servers, got %d", c)
	}
	if lambda >= float64(c)*mu {
		return MMc{}, fmt.Errorf("analytic: M/M/c unstable: lambda=%v >= c*mu=%v", lambda, float64(c)*mu)
	}
	return MMc{Lambda: lambda, Mu: mu, C: c}, nil
}

// Rho returns per-server utilization λ/(cμ).
func (q MMc) Rho() float64 { return q.Lambda / (float64(q.C) * q.Mu) }

// ErlangC returns the probability an arriving customer must wait
// (the Erlang-C formula), computed with a numerically stable recurrence.
func (q MMc) ErlangC() float64 {
	a := q.Lambda / q.Mu // offered load in Erlangs
	c := q.C
	// Erlang-B recurrence: B(0)=1; B(k) = a*B(k-1) / (k + a*B(k-1)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := q.Rho()
	return b / (1 - rho*(1-b))
}

// Wq returns the mean waiting time in queue.
func (q MMc) Wq() float64 {
	return q.ErlangC() / (float64(q.C)*q.Mu - q.Lambda)
}

// W returns the mean sojourn time.
func (q MMc) W() float64 { return q.Wq() + 1/q.Mu }

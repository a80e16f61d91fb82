// Package sla defines Service-Level Agreements — the user-facing
// requirements the paper puts at the center of data center design (§1,
// §3) — and evaluates them against simulation results.
//
// Two families are modelled, the two a WTQL query can state in its WHERE
// clause: availability (the fraction of time every object is reachable,
// sla.availability >= x) and the facility's power budget (peak draw,
// sla.peak_kw <= x).
package sla

import "fmt"

// Verdict is the outcome of checking one SLA against observations.
type Verdict struct {
	SLA      string  // description of the SLA checked
	Met      bool    // whether the target was met
	Observed float64 // the measured value
	Target   float64 // the required value
	Margin   float64 // how far the observation is inside (+) or outside (-) the target
}

func (v Verdict) String() string {
	status := "MET"
	if !v.Met {
		status = "VIOLATED"
	}
	return fmt.Sprintf("%s: %s (observed %.6g, target %.6g, margin %+.3g)",
		v.SLA, status, v.Observed, v.Target, v.Margin)
}

// SLA is a checkable service-level agreement.
type SLA interface {
	// Name describes the SLA.
	Name() string
	// Check evaluates the SLA against a result set.
	Check(r Result) (Verdict, error)
}

// Result is the metric view SLAs evaluate against; the wind tunnel
// core's RunResult implements it.
type Result interface {
	// Metric returns a scalar metric by name, or an error if absent.
	Metric(name string) (float64, error)
}

// Availability requires a minimum level (e.g. 0.999) of the
// "availability" metric.
type Availability struct {
	Min float64
}

// NewAvailability validates and constructs the SLA.
func NewAvailability(min float64) (Availability, error) {
	if min <= 0 || min > 1 {
		return Availability{}, fmt.Errorf("sla: availability target %v outside (0, 1]", min)
	}
	return Availability{Min: min}, nil
}

// Name implements SLA.
func (a Availability) Name() string {
	return fmt.Sprintf("availability >= %v", a.Min)
}

// Check implements SLA.
func (a Availability) Check(r Result) (Verdict, error) {
	obs, err := r.Metric("availability")
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{
		SLA: a.Name(), Met: obs >= a.Min,
		Observed: obs, Target: a.Min, Margin: obs - a.Min,
	}, nil
}

// PowerBudget bounds the facility's peak power draw: peak_kw <= MaxKW.
// It is the capacity-planning constraint of a power-limited site — a
// design whose peak exceeds the provisioned feed is infeasible no
// matter how available it is.
type PowerBudget struct {
	MaxKW float64
}

// NewPowerBudget validates and constructs the SLA.
func NewPowerBudget(maxKW float64) (PowerBudget, error) {
	if maxKW <= 0 {
		return PowerBudget{}, fmt.Errorf("sla: power budget %v must be positive", maxKW)
	}
	return PowerBudget{MaxKW: maxKW}, nil
}

// Name implements SLA.
func (p PowerBudget) Name() string {
	return fmt.Sprintf("peak power <= %v kW", p.MaxKW)
}

// Check implements SLA.
func (p PowerBudget) Check(r Result) (Verdict, error) {
	obs, err := r.Metric("peak_kw")
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{
		SLA: p.Name(), Met: obs <= p.MaxKW,
		Observed: obs, Target: p.MaxKW, Margin: p.MaxKW - obs,
	}, nil
}

// CheckAll evaluates every SLA and reports the verdicts plus overall
// success. A missing metric is an error, not a violation.
func CheckAll(r Result, slas []SLA) ([]Verdict, bool, error) {
	verdicts := make([]Verdict, 0, len(slas))
	all := true
	for _, s := range slas {
		v, err := s.Check(r)
		if err != nil {
			return nil, false, fmt.Errorf("sla: checking %q: %w", s.Name(), err)
		}
		verdicts = append(verdicts, v)
		if !v.Met {
			all = false
		}
	}
	return verdicts, all, nil
}

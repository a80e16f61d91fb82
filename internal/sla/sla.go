// Package sla defines Service-Level Agreements — the user-facing
// requirements the paper puts at the center of data center design (§1,
// §3) — and evaluates them against simulation results.
//
// Three families are modelled: availability (fraction of time data is
// reachable), durability (probability of permanent loss), and performance
// (latency percentile bounds). An SLA can also be expressed as a
// distribution over tenants ("95% of tenants at three nines"), the richer
// declarative form §4.1 calls for.
package sla

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

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

// Result is the metric view SLAs evaluate against. Implementations are
// provided by the wind tunnel core; tests can use MapResult.
type Result interface {
	// Metric returns a scalar metric by name, or an error if absent.
	Metric(name string) (float64, error)
	// LatencySample returns the latency sample for a workload ("" =
	// default), or nil if none was collected.
	LatencySample(workload string) *stats.Sample
}

// MapResult is a simple Result backed by a map (used in tests and by the
// analytic paths).
type MapResult struct {
	Metrics   map[string]float64
	Latencies map[string]*stats.Sample
}

// Metric implements Result.
func (m MapResult) Metric(name string) (float64, error) {
	v, ok := m.Metrics[name]
	if !ok {
		return 0, fmt.Errorf("sla: metric %q not present in result", name)
	}
	return v, nil
}

// LatencySample implements Result.
func (m MapResult) LatencySample(workload string) *stats.Sample {
	return m.Latencies[workload]
}

// Availability requires a minimum availability level (e.g. 0.999) on a
// named availability metric.
type Availability struct {
	// MetricName is the result metric holding availability in [0,1];
	// defaults to "availability".
	MetricName string
	Min        float64
}

// NewAvailability validates and constructs the SLA.
func NewAvailability(min float64) (Availability, error) {
	if min <= 0 || min > 1 {
		return Availability{}, fmt.Errorf("sla: availability target %v outside (0, 1]", min)
	}
	return Availability{Min: min}, nil
}

func (a Availability) metric() string {
	if a.MetricName != "" {
		return a.MetricName
	}
	return "availability"
}

// Name implements SLA.
func (a Availability) Name() string {
	return fmt.Sprintf("availability >= %v", a.Min)
}

// Check implements SLA.
func (a Availability) Check(r Result) (Verdict, error) {
	obs, err := r.Metric(a.metric())
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{
		SLA: a.Name(), Met: obs >= a.Min,
		Observed: obs, Target: a.Min, Margin: obs - a.Min,
	}, nil
}

// Durability requires the probability of data loss to stay below Max
// (e.g. 1e-9 for "nine nines" durability), read from the "loss_prob"
// metric.
type Durability struct {
	MetricName string // defaults to "loss_prob"
	Max        float64
}

// NewDurability validates and constructs the SLA.
func NewDurability(max float64) (Durability, error) {
	if max < 0 || max >= 1 {
		return Durability{}, fmt.Errorf("sla: durability loss bound %v outside [0, 1)", max)
	}
	return Durability{Max: max}, nil
}

func (d Durability) metric() string {
	if d.MetricName != "" {
		return d.MetricName
	}
	return "loss_prob"
}

// Name implements SLA.
func (d Durability) Name() string {
	return fmt.Sprintf("loss probability <= %v", d.Max)
}

// Check implements SLA.
func (d Durability) Check(r Result) (Verdict, error) {
	obs, err := r.Metric(d.metric())
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{
		SLA: d.Name(), Met: obs <= d.Max,
		Observed: obs, Target: d.Max, Margin: d.Max - obs,
	}, nil
}

// Latency bounds a latency percentile: "p95 <= 0.1s".
type Latency struct {
	Workload   string  // latency sample to check ("" = default)
	Percentile float64 // in (0, 1], e.g. 0.95
	Max        float64 // seconds
}

// NewLatency validates and constructs the SLA.
func NewLatency(workload string, percentile, max float64) (Latency, error) {
	if percentile <= 0 || percentile > 1 {
		return Latency{}, fmt.Errorf("sla: percentile %v outside (0, 1]", percentile)
	}
	if max <= 0 {
		return Latency{}, fmt.Errorf("sla: latency bound %v must be positive", max)
	}
	return Latency{Workload: workload, Percentile: percentile, Max: max}, nil
}

// Name implements SLA.
func (l Latency) Name() string {
	return fmt.Sprintf("p%g(%s) <= %gs", l.Percentile*100, l.workloadName(), l.Max)
}

func (l Latency) workloadName() string {
	if l.Workload == "" {
		return "default"
	}
	return l.Workload
}

// Check implements SLA.
func (l Latency) Check(r Result) (Verdict, error) {
	s := r.LatencySample(l.Workload)
	if s == nil || s.N() == 0 {
		return Verdict{}, fmt.Errorf("sla: no latency sample for workload %q", l.workloadName())
	}
	obs := s.Quantile(l.Percentile)
	return Verdict{
		SLA: l.Name(), Met: obs <= l.Max,
		Observed: obs, Target: l.Max, Margin: l.Max - obs,
	}, nil
}

// PowerBudget bounds the facility's peak power draw: peak_kw <= MaxKW.
// It is the capacity-planning constraint of a power-limited site — a
// design whose peak exceeds the provisioned feed is infeasible no
// matter how available it is.
type PowerBudget struct {
	MetricName string // defaults to "peak_kw"
	MaxKW      float64
}

// NewPowerBudget validates and constructs the SLA.
func NewPowerBudget(maxKW float64) (PowerBudget, error) {
	if maxKW <= 0 {
		return PowerBudget{}, fmt.Errorf("sla: power budget %v must be positive", maxKW)
	}
	return PowerBudget{MaxKW: maxKW}, nil
}

func (p PowerBudget) metric() string {
	if p.MetricName != "" {
		return p.MetricName
	}
	return "peak_kw"
}

// Name implements SLA.
func (p PowerBudget) Name() string {
	return fmt.Sprintf("peak power <= %v kW", p.MaxKW)
}

// Check implements SLA.
func (p PowerBudget) Check(r Result) (Verdict, error) {
	obs, err := r.Metric(p.metric())
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{
		SLA: p.Name(), Met: obs <= p.MaxKW,
		Observed: obs, Target: p.MaxKW, Margin: p.MaxKW - obs,
	}, nil
}

// EnergyCost caps the energy bill over the simulated horizon: the
// "energy cost ceiling" form of an energy-aware SLA. It prices the
// simulated facility energy ("energy_kwh") at USDPerKWh and requires
// the result to stay at or under MaxUSD.
type EnergyCost struct {
	MetricName string  // defaults to "energy_kwh"
	MaxUSD     float64 // ceiling on the horizon's energy spend
	USDPerKWh  float64 // electricity price
}

// NewEnergyCost validates and constructs the SLA.
func NewEnergyCost(maxUSD, usdPerKWh float64) (EnergyCost, error) {
	if maxUSD <= 0 {
		return EnergyCost{}, fmt.Errorf("sla: energy cost ceiling %v must be positive", maxUSD)
	}
	if usdPerKWh <= 0 {
		return EnergyCost{}, fmt.Errorf("sla: energy price %v must be positive", usdPerKWh)
	}
	return EnergyCost{MaxUSD: maxUSD, USDPerKWh: usdPerKWh}, nil
}

func (e EnergyCost) metric() string {
	if e.MetricName != "" {
		return e.MetricName
	}
	return "energy_kwh"
}

// Name implements SLA.
func (e EnergyCost) Name() string {
	return fmt.Sprintf("energy cost <= $%v at $%v/kWh", e.MaxUSD, e.USDPerKWh)
}

// Check implements SLA.
func (e EnergyCost) Check(r Result) (Verdict, error) {
	kwh, err := r.Metric(e.metric())
	if err != nil {
		return Verdict{}, err
	}
	obs := kwh * e.USDPerKWh
	return Verdict{
		SLA: e.Name(), Met: obs <= e.MaxUSD,
		Observed: obs, Target: e.MaxUSD, Margin: e.MaxUSD - obs,
	}, nil
}

// TenantPool is a pool of per-tenant values in [0, 1], held the way the
// rare-failure regime fills it: Ones counts the values that are exactly 1
// and Below holds every other one, in ascending order. It is the dense
// pool's multiset exactly, so every count against a threshold — and with
// it every TenantDistribution verdict — is the dense pool's, while a
// tenant at 1 costs a count instead of a float.
type TenantPool struct {
	Ones  int64
	Below []float64 // ascending, every value in [0, 1)
}

// SplitTenants returns the pool of a dense list of per-tenant values.
func SplitTenants(vals []float64) TenantPool {
	var p TenantPool
	for _, v := range vals {
		if v == 1 {
			p.Ones++
		} else {
			p.Below = append(p.Below, v)
		}
	}
	sort.Float64s(p.Below)
	return p
}

// Len returns the number of values in the pool.
func (p TenantPool) Len() int64 { return p.Ones + int64(len(p.Below)) }

// Count returns how many values v satisfy v >= threshold when atLeast,
// v <= threshold otherwise. Each predicate is monotone over the ascending
// Below, so one binary search finds where it starts or stops holding; a
// NaN threshold satisfies neither, as in a comparison.
func (p TenantPool) Count(threshold float64, atLeast bool) int64 {
	var n int64
	if atLeast {
		n = int64(len(p.Below) - sort.Search(len(p.Below), func(i int) bool { return p.Below[i] >= threshold }))
		if 1 >= threshold {
			n += p.Ones
		}
	} else {
		n = int64(sort.Search(len(p.Below), func(i int) bool { return !(p.Below[i] <= threshold) }))
		if 1 <= threshold {
			n += p.Ones
		}
	}
	return n
}

// Validate reports whether the pool keeps its invariants: a count that is
// not negative, and Below ascending with every value in [0, 1). A pool
// that arrives from outside the program is checked before it is trusted.
func (p TenantPool) Validate() error {
	if p.Ones < 0 || p.Ones > math.MaxInt64-int64(len(p.Below)) {
		return fmt.Errorf("sla: tenant pool counts %d ones beside %d other values", p.Ones, len(p.Below))
	}
	for i, v := range p.Below {
		if !(v >= 0 && v < 1) {
			return fmt.Errorf("sla: tenant pool value %v outside [0, 1)", v)
		}
		if i > 0 && v < p.Below[i-1] {
			return fmt.Errorf("sla: tenant pool values not ascending at %d", i)
		}
	}
	return nil
}

// TenantDistribution is an SLA expressed as a distribution over tenants
// (§4.1: "the user may need to specify a required SLA as a distribution"):
// at least Fraction of per-tenant values must satisfy the inner predicate
// direction against Threshold.
type TenantDistribution struct {
	Description string
	// Pool extracts the per-tenant observations from the result.
	Pool func(r Result) (TenantPool, error)
	// AtLeast: value >= Threshold counts as satisfied when true, value <=
	// Threshold when false.
	AtLeast   bool
	Threshold float64
	Fraction  float64 // required satisfied fraction in (0, 1]
}

// Name implements SLA.
func (t TenantDistribution) Name() string { return t.Description }

// Check implements SLA.
func (t TenantDistribution) Check(r Result) (Verdict, error) {
	if t.Fraction <= 0 || t.Fraction > 1 {
		return Verdict{}, fmt.Errorf("sla: tenant fraction %v outside (0, 1]", t.Fraction)
	}
	if t.Pool == nil {
		return Verdict{}, fmt.Errorf("sla: tenant distribution needs a Pool extractor")
	}
	pool, err := t.Pool(r)
	if err != nil {
		return Verdict{}, err
	}
	n := pool.Len()
	if n == 0 {
		return Verdict{}, fmt.Errorf("sla: tenant distribution has no tenants")
	}
	frac := float64(pool.Count(t.Threshold, t.AtLeast)) / float64(n)
	return Verdict{
		SLA: t.Name(), Met: frac >= t.Fraction,
		Observed: frac, Target: t.Fraction, Margin: frac - t.Fraction,
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

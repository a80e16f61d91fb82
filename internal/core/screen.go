// Analytic screening (§2.2 + §4.2): before paying for a full
// discrete-event simulation of a design point, evaluate it with the
// closed-form birth–death availability model. When the analytic bound
// clears (or provably misses) every availability SLA by a configurable
// margin, the point is decided without simulating a single event; only
// the points the analytic model cannot separate from their SLA targets
// reach the simulator. Every screened point is reported as such — there
// are no silent skips.
package core

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/hardware"
	"repro/internal/power"
	"repro/internal/repair"
	"repro/internal/sla"
	"repro/internal/storage"
)

// ScreenDecision is the outcome of the analytic screening pass.
type ScreenDecision int

const (
	// ScreenSimulate means the analytic model cannot decide the point
	// within the margin; full simulation is required.
	ScreenSimulate ScreenDecision = iota
	// ScreenPass means the analytic upper bound on unavailability clears
	// every SLA even after inflation by the margin.
	ScreenPass
	// ScreenFail means the analytic lower bound on unavailability breaks
	// some SLA even after deflation by the margin.
	ScreenFail
)

// ScreenRule configures analytic screening. Margin is the relative
// safety factor applied against the model's approximations (exponential
// assumption, union bound, node-level failures only): a point passes
// without simulation only if the analytic unavailability upper bound
// times (1+Margin) still clears every availability SLA, and fails
// without simulation only if the per-object lower bound divided by
// (1+Margin) already breaks one. Margin 0 screens at the exact
// thresholds; DefaultScreenMargin is a conservative 1.0 (2x slack both
// ways).
type ScreenRule struct {
	Margin float64
}

// DefaultScreenMargin is the screening slack used when none is given.
const DefaultScreenMargin = 1.0

// AnalyticBounds brackets a scenario's any-object unavailability with
// two replica birth–death Markov chains (§2.2): nodes fail at rate
// 1/E[TTF]; an object is unavailable while its scheme's quorum is down.
// The chains differ in how fast a lost replica comes back:
//
//   - the slow chain repairs at rate 1/(E[detection]+E[node repair]) —
//     pessimistic, since re-replication usually restores redundancy long
//     before the failed node returns; its union bound over Users objects
//     is the upper estimate.
//   - the fast chain repairs at rate 1/E[detection] — optimistic, as if
//     re-replication completed the instant a failure is detected; its
//     single-object unavailability is the lower estimate. With instant
//     detection the lower estimate is 0 and screening can never FAIL a
//     point, only PASS it.
type AnalyticBounds struct {
	// ObjUnavail is the slow-chain steady-state probability that one
	// object's quorum is down (the pessimistic per-object estimate).
	ObjUnavail float64
	// ObjUnavailLower is the fast-chain per-object unavailability — a
	// lower estimate of the system any-object unavailability.
	ObjUnavailLower float64
	// SysUnavail is the union-bound upper estimate of the any-object
	// unavailability: min(1, Users * ObjUnavail).
	SysUnavail float64
	// AvailValid reports that the availability bounds above are sound
	// for the scenario. With the power subsystem enabled they are not
	// (PDU/utility outages and power caps change availability dynamics
	// the node-level chain cannot see), but power feasibility below can
	// still be decided.
	AvailValid bool
	// PeakKWFloor is a lower bound on the facility's peak power draw
	// when the power subsystem is enabled: every node idling at the
	// configured idle fraction, times PUE. A power-budget SLA below this
	// floor is infeasible for any trajectory — the power-feasibility
	// screen. Zero when power is disabled.
	PeakKWFloor float64
}

// AnalyticScreen computes the closed-form bounds for sc. It reports
// ok=false when the scenario falls outside the model's reach entirely:
// the availability chain needs a whole-node failure process and no
// component/switch failures, and with the power subsystem enabled the
// availability bounds are never valid (power outages and caps change
// the dynamics) — but the power-feasibility floor still is, so a
// power-enabled scenario screens with AvailValid=false and a positive
// PeakKWFloor.
func AnalyticScreen(sc Scenario) (AnalyticBounds, bool, error) {
	var pb AnalyticBounds
	if sc.Power.Enabled {
		activeW, err := power.NodeActiveWatts(hardware.SharedCatalog(), sc.Cluster)
		if err != nil {
			return AnalyticBounds{}, false, fmt.Errorf("core: screening power floor: %w", err)
		}
		nodes := sc.Cluster.Racks * sc.Cluster.NodesPerRack
		pb.PeakKWFloor = sc.Power.IdleFloorKW(nodes, activeW)
		// Availability bounds are unsound under power failures/caps; only
		// the feasibility floor is decidable.
		return pb, true, nil
	}
	if sc.Cluster.NodeTTF == nil || sc.Cluster.NodeRepair == nil {
		return AnalyticBounds{}, false, nil
	}
	if sc.Cluster.ComponentFailures || sc.Cluster.SwitchFailures {
		return AnalyticBounds{}, false, nil
	}
	mttf := sc.Cluster.NodeTTF.Mean()
	detect := 0.0
	if sc.Repair.Detection != nil {
		detect = sc.Repair.Detection.Mean()
	}
	mttrSlow := sc.Cluster.NodeRepair.Mean() + detect
	if !(mttf > 0) || !(mttrSlow > 0) {
		return AnalyticBounds{}, false, nil
	}

	var width, quorumDown int
	switch sc.Scheme.Kind {
	case storage.Replication:
		width = sc.Scheme.Replicas
		quorumDown = analytic.MajorityQuorumDown(width)
	case storage.ErasureRS:
		width = sc.Scheme.K + sc.Scheme.M
		quorumDown = sc.Scheme.M + 1
	default:
		return AnalyticBounds{}, false, nil
	}
	parallel := sc.Repair.Mode == repair.Parallel
	chain := func(mttr float64) (float64, error) {
		m, err := analytic.NewReplicaAvailabilityModel(width, 1/mttf, 1/mttr, parallel)
		if err != nil {
			return 0, fmt.Errorf("core: screening model: %w", err)
		}
		return m.Unavailability(quorumDown), nil
	}
	objU, err := chain(mttrSlow)
	if err != nil {
		return AnalyticBounds{}, false, err
	}
	objLower := 0.0
	if detect > 0 {
		objLower, err = chain(detect)
		if err != nil {
			return AnalyticBounds{}, false, err
		}
	}
	sysU := float64(sc.Users) * objU
	if sysU > 1 {
		sysU = 1
	}
	return AnalyticBounds{
		ObjUnavail: objU, ObjUnavailLower: objLower, SysUnavail: sysU,
		AvailValid: true,
	}, true, nil
}

// availabilityTargets extracts the allowed-unavailability budgets from
// the SLA list. all reports whether every SLA is an availability SLA the
// screen understands — a precondition for deciding PASS analytically
// (FAIL needs only one provably-broken budget).
func availabilityTargets(slas []sla.SLA) (budgets []float64, all bool) {
	all = true
	for _, s := range slas {
		a, ok := s.(sla.Availability)
		if !ok {
			all = false
			continue
		}
		budgets = append(budgets, 1-a.Min)
	}
	return budgets, all
}

// Decide applies the screen rule to the analytic bounds: PASS when the
// inflated upper bound clears every budget (and every SLA is an
// availability SLA), FAIL when the deflated per-object lower bound
// breaks some budget — or when the power-feasibility floor already
// exceeds a power-budget SLA — and SIMULATE otherwise. The decision is
// a pure function of its inputs, so screening is reproducible and
// independent of worker scheduling.
func (r ScreenRule) Decide(b AnalyticBounds, slas []sla.SLA) ScreenDecision {
	margin := r.Margin
	if margin < 0 {
		margin = 0
	}
	// Power feasibility: the idle floor is a hard lower bound on peak
	// draw; a budget below it (even after margin deflation) cannot be
	// met by any trajectory.
	if b.PeakKWFloor > 0 {
		for _, s := range slas {
			pb, ok := s.(sla.PowerBudget)
			if !ok {
				continue
			}
			if b.PeakKWFloor/(1+margin) > pb.MaxKW {
				return ScreenFail
			}
		}
	}
	if !b.AvailValid {
		return ScreenSimulate
	}
	budgets, all := availabilityTargets(slas)
	if len(budgets) == 0 {
		return ScreenSimulate
	}
	for _, budget := range budgets {
		if b.ObjUnavailLower/(1+margin) > budget {
			return ScreenFail
		}
	}
	if !all {
		return ScreenSimulate
	}
	for _, budget := range budgets {
		if b.SysUnavail*(1+margin) > budget {
			return ScreenSimulate
		}
	}
	return ScreenPass
}

// screenResult synthesizes the RunResult reported for a screened point:
// zero trials, zero events, and the analytic estimates in place of the
// simulated metrics.
func screenResult(sc Scenario, b AnalyticBounds) *RunResult {
	metrics := make(map[string]float64, 8)
	if b.AvailValid {
		metrics["availability"] = 1 - b.SysUnavail
		metrics["unavail_fraction"] = b.SysUnavail
		metrics["analytic_obj_unavail"] = b.ObjUnavail
		metrics["analytic_unavail_lower"] = b.ObjUnavailLower
	}
	metrics["analytic"] = 1
	metrics["events"] = 0
	if b.PeakKWFloor > 0 {
		// A power-feasibility decision carries only the floor: the
		// availability bounds were never computed (AvailValid false), so
		// fabricating availability=1 here would archive the opposite of
		// what the screen concluded.
		metrics["analytic_peak_kw_floor"] = b.PeakKWFloor
	}
	return &RunResult{
		Scenario: sc.Name,
		Trials:   0,
		Metrics:  metrics,
		CI:       map[string]float64{},
	}
}

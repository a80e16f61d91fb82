// Package windtunnel is the public facade of the data center wind tunnel,
// a simulation framework for integrated hardware/software data center
// design reproducing Floratou, Bertsch, Patel and Laskaris, "Towards
// Building Wind Tunnels for Data Center Design", PVLDB 7(9), 2014.
//
// The wind tunnel answers what-if questions about data center designs by
// discrete-event simulation of both the hardware (disks, NICs, switches,
// with realistic Weibull/LogNormal failure models) and the software
// (replication, placement, quorum protocols, repair strategies) — see
// README.md's module layout for the full system inventory.
//
// # Quick start
//
//	res, err := windtunnel.Run(windtunnel.DefaultScenario(), 10)
//
// # Declarative what-if queries (§4.1 of the paper)
//
//	rs, err := windtunnel.Query(`
//	    SIMULATE availability
//	    VARY storage.replication IN (3, 5) MONOTONE,
//	         storage.placement IN ('random', 'roundrobin')
//	    WITH users = 1000, trials = 10
//	    WHERE sla.availability >= 0.999
//	    ORDER BY cost.total ASC`)
//	fmt.Print(rs.Render())
//
// # Figure 1
//
//	point, err := windtunnel.Figure1(windtunnel.Figure1Config{
//	    N: 30, Replicas: 3, Failures: 4, Users: 10000,
//	    Placement: "random", Trials: 10000,
//	})
package windtunnel

import (
	"repro/internal/core"
	"repro/internal/sla"
	"repro/internal/validate"
	"repro/internal/wtql"
)

// Scenario describes one availability what-if experiment. See
// core.Scenario for field documentation.
type Scenario = core.Scenario

// RunResult aggregates simulation trials.
type RunResult = core.RunResult

// Runner controls trial replication, CI stopping and early abort.
type Runner = core.Runner

// AbortRule enables §4.2 early abort inside trials.
type AbortRule = core.AbortRule

// Explorer sweeps a design space with optional dominance pruning and
// analytic screening.
type Explorer = core.Explorer

// ScreenRule configures the §2.2 analytic screening pass: design points
// whose closed-form availability bounds clear (or provably miss) every
// availability SLA by the margin are decided without simulation.
type ScreenRule = core.ScreenRule

// Figure1Config parameterizes a point of the paper's Figure 1.
type Figure1Config = core.Figure1Config

// Figure1Result is a Monte-Carlo estimate with its exact counterpart.
type Figure1Result = core.Figure1Result

// SLA is a checkable service-level agreement.
type SLA = sla.SLA

// ValidationReport compares simulation against a closed form.
type ValidationReport = validate.Report

// ResultSet is a WTQL query result.
type ResultSet = wtql.ResultSet

// DefaultScenario returns the baseline configuration: 30 HDD/10GbE nodes
// in 3 racks, 1000 users, 3-way replication, parallel repair, one year.
func DefaultScenario() Scenario { return core.DefaultScenario() }

// Run executes trials replications of the scenario and aggregates the
// availability, durability and repair metrics.
func Run(sc Scenario, trials int) (*RunResult, error) {
	return Runner{Trials: trials}.Run(sc)
}

// Figure1 estimates one point of the paper's Figure 1 by Monte-Carlo
// simulation, alongside the exact combinatorial value when one exists.
func Figure1(cfg Figure1Config) (Figure1Result, error) {
	return core.Figure1MonteCarlo(cfg)
}

// Figure1Curve sweeps the failure count for one configuration, producing
// one full curve of Figure 1.
func Figure1Curve(cfg Figure1Config) ([]Figure1Result, error) {
	return core.Figure1Curve(cfg)
}

// Query parses and executes a WTQL statement with default execution
// settings.
func Query(text string) (*ResultSet, error) {
	return (&wtql.Engine{}).Execute(text)
}

// Validate runs the §4.3 validation suite: simulator vs closed forms.
func Validate(seed uint64) ([]ValidationReport, error) {
	return validate.RunAll(seed)
}

// AvailabilitySLA returns an SLA requiring availability >= min.
func AvailabilitySLA(min float64) (SLA, error) { return sla.NewAvailability(min) }

// DurabilitySLA returns an SLA bounding the loss probability.
func DurabilitySLA(max float64) (SLA, error) { return sla.NewDurability(max) }

// PowerBudgetSLA returns an SLA bounding the facility's peak power
// draw (kW). Requires a power-enabled scenario (Scenario.Power).
func PowerBudgetSLA(maxKW float64) (SLA, error) { return sla.NewPowerBudget(maxKW) }

// EnergyCostSLA returns an SLA capping the simulated horizon's energy
// bill at maxUSD, pricing facility energy at usdPerKWh.
func EnergyCostSLA(maxUSD, usdPerKWh float64) (SLA, error) {
	return sla.NewEnergyCost(maxUSD, usdPerKWh)
}

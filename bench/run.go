package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wtql"
)

// config is one benchmark run: one workload, one seed, traced or not.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // length of the measured window
	trace    bool
	procs    int // P = min(nproc, 4): GOMAXPROCS, sweep workers, pool size, client cap
	// setupRepeats is how often set-up runs; setup_s is the median. One
	// set-up of a few hundred milliseconds is too noisy to gate on.
	setupRepeats int
	tmp          string            // scratch directory for journals and disk caches
	ref          *hostRef          // host-speed reference every timing is corrected by
	spans        *recorder         // nil on the untraced run
	golden       map[string]string // table hashes for the default seed
}

// outcome is what a run reports.
type outcome struct {
	metrics readings

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string // the first failed checks, verbatim
	warnings  []string // layer-separation assertions that do not hold
}

func newOutcome() *outcome { return &outcome{metrics: readings{}} }

// op counts one attempted operation or output check; a non-empty problem
// makes it a failed one.
func (o *outcome) op(problem string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if problem != "" {
		o.failed++
		if len(o.problems) < 10 {
			o.problems = append(o.problems, problem)
		}
	}
}

// setEndToEnd reports the untraced run's metrics. Every time is already
// corrected for the host's speed (hostref.go): opMS holds each
// operation's time, elapsed the time they took between them, allocated
// the bytes the process allocated meanwhile.
func (o *outcome) setEndToEnd(cfg config, setupS float64, opMS []float64, elapsed float64, allocated uint64) {
	n := len(opMS)
	o.metrics.set("setup_s", setupS, cfg.setupRepeats)
	o.metrics.set("op_p50_ms", median(opMS), n)
	o.metrics.set("ops_per_s", float64(n)/elapsed, n)
	o.metrics.set("alloc_kb_per_op", float64(allocated)/1024/float64(n), n)
}

// explore runs every design point of a plan, as Plan.Run does, but hands
// each committed outcome to each (when non-nil) and returns them all, so
// that the caller can time exploring and assembling apart.
func explore(plan *wtql.Plan, each func(core.PointOutcome)) ([]core.PointOutcome, error) {
	all := make([]int, plan.NumPoints())
	for i := range all {
		all[i] = i
	}
	var outcomes []core.PointOutcome
	err := plan.RunSubset(context.Background(), all, func(po core.PointOutcome) {
		outcomes = append(outcomes, po)
		if each != nil {
			each(po)
		}
	})
	return outcomes, err
}

// run dispatches one workload.
func run(cfg config) (*outcome, error) {
	switch cfg.workload {
	case sweepRepair, sweepQuiet:
		return runSweep(cfg)
	case serveWarm, serveDurableMixed:
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// timeSetUp runs a workload's set-up cfg.setupRepeats times and returns
// the median duration in seconds, corrected for the host's speed. setUp
// must release whatever its previous call built.
func timeSetUp(cfg config, setUp func() error) (float64, error) {
	var took []float64
	cfg.ref.begin()
	for i := 0; i < max(cfg.setupRepeats, 1); i++ {
		t0 := time.Now()
		if err := setUp(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(t0).Seconds()
		took = append(took, wall/cfg.ref.slowdown())
	}
	return median(took), nil
}

// directWTQL times the query layer's public entry points on one of the
// workload's own queries: Parse, Engine.Plan, Plan.PointKeys (per
// point), Plan.Assemble and ResultSet.Render.
func directWTQL(eng *wtql.Engine, text string, outcomes []core.PointOutcome, m readings) error {
	const n = 200
	var parse, plan, key, assemble, render []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		q, err := wtql.Parse(text)
		if err != nil {
			return err
		}
		t1 := time.Now()
		p, err := eng.Plan(q)
		if err != nil {
			return err
		}
		t2 := time.Now()
		keys, err := p.PointKeys()
		if err != nil {
			return err
		}
		t3 := time.Now()
		rs, err := p.Assemble(outcomes)
		if err != nil {
			return err
		}
		t4 := time.Now()
		_ = rs.Render()
		t5 := time.Now()
		parse = append(parse, us(t1.Sub(t0)))
		plan = append(plan, us(t2.Sub(t1)))
		key = append(key, us(t3.Sub(t2))/float64(len(keys)))
		assemble = append(assemble, us(t4.Sub(t3)))
		render = append(render, us(t5.Sub(t4)))
	}
	m.set("wtql.parse_us", median(parse), n)
	m.set("wtql.plan_us", median(plan), n)
	m.set("core.cache_key_us", median(key), n)
	m.set("wtql.assemble_us", median(assemble), n)
	m.set("wtql.render_us", median(render), n)
	return nil
}

// checkLayerSeparation asserts, on the traced run, that each workload
// still isolates the layer it exists for. A warning here means a later
// change moved the work elsewhere and the workload needs a benchmark
// issue of its own; bench_test.go turns the warnings into failures.
func checkLayerSeparation(workload string, out *outcome) {
	m := out.metrics
	v := func(name string) float64 { return m[name].Value }
	build := v("storage.cpu_share") + v("cluster.cpu_share") + v("hardware.cpu_share")
	warn := func(ok bool, format string, args ...any) {
		if !ok {
			out.warnings = append(out.warnings, workload+": "+fmt.Sprintf(format, args...))
		}
	}
	switch workload {
	case sweepRepair:
		warn(v("netsim.cpu_share") >= 0.5, "netsim.cpu_share %.2f < 0.5", v("netsim.cpu_share"))
		warn(build <= 0.25, "storage+cluster+hardware cpu share %.2f > 0.25", build)
	case sweepQuiet:
		warn(v("netsim.cpu_share") <= 0.35, "netsim.cpu_share %.2f > 0.35", v("netsim.cpu_share"))
		warn(build >= 0.4, "storage+cluster+hardware cpu share %.2f < 0.4", build)
	case serveWarm:
		warn(v("service.sim_trials") == 0, "service.sim_trials %v != 0", v("service.sim_trials"))
	case serveDurableMixed:
		warn(v("service.journal.appends_per_query") >= 8, "service.journal.appends_per_query %.1f < 8", v("service.journal.appends_per_query"))
		warn(v("service.cache.disk_hit_share") > 0.3, "service.cache.disk_hit_share %.2f <= 0.3", v("service.cache.disk_hit_share"))
	}
}

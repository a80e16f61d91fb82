package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/wtql"
)

// sweepSetup is what a sweep run prepares before its first timed sweep.
type sweepSetup struct {
	specs []querySpec
	texts []string // specs rendered with workers = P
}

// newSweepEngine is the library path: cold, no cache, one trial worker
// per point so the point pool is the only parallelism.
func newSweepEngine() *wtql.Engine { return &wtql.Engine{TrialWorkers: 1} }

// warmUpSeed is the scenario seed of the untimed warm-up sweep. It does
// not depend on the workload seed: how many failures a seed happens to
// draw moves a single sweep's cost by a quarter, and set-up time should
// show work moved into set-up, not that.
const warmUpSeed = 7

// setUpSweep renders the run's queries and runs the warm-up sweep, which
// faults in every code path the timed sweeps take.
func setUpSweep(cfg config) (*sweepSetup, error) {
	st := &sweepSetup{}
	workers := param{"workers", float64(cfg.procs)}
	for j := 0; j < sweepSeeds; j++ {
		q := sweepQuery(cfg.workload, cfg.seed, j)
		st.specs = append(st.specs, q)
		st.texts = append(st.texts, q.text(workers))
	}
	warm := sweepQuery(cfg.workload, 0, warmUpSeed)
	if _, err := newSweepEngine().Execute(warm.text(workers)); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return st, nil
}

// serialReference checks seed 0's output against a workers = 1 sweep of
// the same query: the parallel explorer's in-order commit must not
// change a byte.
func serialReference(st *sweepSetup, checks *tableChecks, out *outcome) error {
	rs, err := newSweepEngine().Execute(st.specs[0].text(param{"workers", 1.0}))
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	problem := ""
	if sweepOutput(rs.Render(), rs) != checks.first[0] {
		problem = "output differs from the workers=1 reference sweep"
	}
	out.op(problem)
	return nil
}

// sweepOutput is what the output checks compare: the rendered table and,
// because these clusters are available to six digits under every
// configuration, the other metrics of every row as well — repairs,
// failures and event counts move with any change to a simulated
// statistic.
//
// Metrics are compared to six significant digits and repair_makespan is
// left out. At commit b99cddd a sweep is not bit-reproducible: two runs
// of one seed disagree from the ninth digit of repair_makespan on.
// netsim.(*FlowSim).recompute picks the bottleneck link while ranging
// over a map, so ties break in a different order from run to run,
// residual capacities round differently and flow completion times move
// by an ulp; the makespan, a difference of two such times, shows it
// first. That is a finding for a correctness issue, not something a
// benchmark may fix.
func sweepOutput(table string, rs *wtql.ResultSet) string {
	var b strings.Builder
	b.WriteString(table)
	for _, row := range rs.Rows {
		names := make([]string, 0, len(row.Metrics))
		for name := range row.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if name != "repair_makespan" {
				fmt.Fprintf(&b, "%s=%.6g ", name, row.Metrics[name])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// tableChecks verifies every output of a sweep run: identical across
// the rounds of a seed and, for the default workload seed, equal to the
// committed golden hash.
type tableChecks struct {
	cfg   config
	first [sweepSeeds]string
}

// check returns a description of what is wrong with seed j's output, or
// "" when it is right.
func (c *tableChecks) check(j int, table string) string {
	if c.first[j] == "" {
		c.first[j] = table
		if want, ok := c.cfg.golden[goldenKey(c.cfg.workload, c.cfg.seed, j)]; ok && tableHash(table) != want {
			return fmt.Sprintf("table hash %s differs from golden.json (a simulated statistic changed)", tableHash(table)[:12])
		}
		return ""
	}
	if table != c.first[j] {
		return "table differs between two rounds of the same seed"
	}
	return ""
}

func tableHash(table string) string {
	h := sha256.Sum256([]byte(table))
	return hex.EncodeToString(h[:])
}

func goldenKey(workload string, seed uint64, j int) string {
	return fmt.Sprintf("%s/seed=%d/%d", workload, seed, j)
}

// sweepTiming is one timed sweep: which of the run's seeds it used, its
// wall time in seconds, and that time corrected for the host's speed.
type sweepTiming struct {
	seed      int
	wall      float64
	corrected float64
}

func walls(ts []sweepTiming) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.wall
	}
	return out
}

// plainSweeps runs whole sweeps through Engine.Execute, the path a
// library user takes, cycling over the run's seeds from the first-th
// until the deadline, with a host-speed sample between one sweep and the
// next.
func plainSweeps(cfg config, st *sweepSetup, checks *tableChecks, out *outcome, first int, d time.Duration) ([]sweepTiming, error) {
	eng := newSweepEngine()
	var done []sweepTiming
	deadline := time.Now().Add(d)
	cfg.ref.begin()
	for i := first; i == first || time.Now().Before(deadline); i++ {
		j := i % sweepSeeds
		t0 := time.Now()
		rs, err := eng.Execute(st.texts[j])
		if err != nil {
			return nil, fmt.Errorf("sweep %d: %w", i, err)
		}
		table := rs.Render()
		wall := time.Since(t0).Seconds()
		done = append(done, sweepTiming{j, wall, wall / cfg.ref.slowdown()})
		out.op(checks.check(j, sweepOutput(table, rs)))
	}
	return done, nil
}

// tracingOverhead compares each traced sweep with the untraced sweeps
// of the same seed — seeds differ in cost by more than tracing does —
// and returns the median excess in percent.
func tracingOverhead(plain, traced []sweepTiming) (float64, int) {
	bySeed := map[int][]float64{}
	for _, t := range plain {
		bySeed[t.seed] = append(bySeed[t.seed], t.wall)
	}
	var excess []float64
	for _, t := range traced {
		if ref := bySeed[t.seed]; len(ref) > 0 {
			excess = append(excess, 100*(t.wall/median(ref)-1))
		}
	}
	return median(excess), len(excess)
}

func runSweep(cfg config) (*outcome, error) {
	out := newOutcome()
	var st *sweepSetup
	setupS, err := timeSetUp(cfg, func() (err error) {
		st, err = setUpSweep(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	checks := &tableChecks{cfg: cfg}
	window := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		before := cfg.ref.allocatedElsewhere()
		done, err := plainSweeps(cfg, st, checks, out, 0, window)
		if err != nil {
			return nil, err
		}
		allocated := cfg.ref.allocatedElsewhere() - before
		if err := serialReference(st, checks, out); err != nil {
			return nil, err
		}
		// The sweeps run back to back, so the time they took between them
		// is the sum of their times.
		opMS := make([]float64, len(done))
		for i, t := range done {
			opMS[i] = 1000 * t.corrected
		}
		out.setEndToEnd(cfg, setupS, opMS, sum(opMS)/1000, allocated)
		return out, nil
	}

	// Traced run: half of the window traced and profiled, bracketed by
	// two untraced eighths that are the reference for the tracing
	// overhead (before and after, so that a drifting host cancels); then
	// one whole sweep replayed trial by trial.
	plain, err := plainSweeps(cfg, st, checks, out, 0, window/8)
	if err != nil {
		return nil, err
	}
	traced, err := tracedSweeps(cfg, st, checks, out, window/2)
	if err != nil {
		return nil, err
	}
	after, err := plainSweeps(cfg, st, checks, out, len(plain), window/8)
	if err != nil {
		return nil, err
	}
	overhead, n := tracingOverhead(append(plain, after...), traced.done)
	out.metrics.set("trace.overhead_pct", overhead, n)
	out.metrics.set("host.slowdown", median(cfg.ref.factors), len(cfg.ref.factors))
	if err := serialReference(st, checks, out); err != nil {
		return nil, err
	}
	if err := replaySweep(cfg, st.specs[0], traced.seed0, out); err != nil {
		return nil, err
	}
	if err := directWTQL(newSweepEngine(), st.texts[0], traced.seed0, out.metrics); err != nil {
		return nil, err
	}
	checkLayerSeparation(cfg.workload, out)
	return out, nil
}

// tracedResult carries what the later traced-run phases need.
type tracedResult struct {
	done  []sweepTiming
	seed0 []core.PointOutcome // the committed outcomes of one seed-0 sweep
}

// tracedSweeps runs sweeps step by step — parse, plan, explore, assemble,
// render — recording a span around each call into a layer and one per
// design point from the engine's own Progress timings, under a CPU
// profile. No host-speed samples are taken in between: they would show
// in the profile.
func tracedSweeps(cfg config, st *sweepSetup, checks *tableChecks, out *outcome, d time.Duration) (*tracedResult, error) {
	res := &tracedResult{}
	rec := cfg.spans
	var (
		pointMS, trialUS, overheadMS []float64
		trials                       int
		heapPeak                     uint64
		before, after, now           runtime.MemStats
	)
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	profiling := true
	defer func() {
		if profiling {
			prof.stop()
		}
	}()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	deadline := t0.Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		j := i % sweepSeeds
		op := rec.newOp()
		start := time.Now()
		root := rec.reserve(op, 0, "sweep", start)

		q, err := wtql.Parse(st.texts[j])
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rec.add(op, root, "wtql.parse", start, t1.Sub(start))

		eng := newSweepEngine()
		plan, err := eng.Plan(q)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		rec.add(op, root, "wtql.plan", t1, t2.Sub(t1))

		exploring := rec.reserve(op, root, "core.explore", t2)
		busy := time.Duration(0)
		outcomes, err := explore(plan, func(po core.PointOutcome) {
			rec.add(op, exploring, fmt.Sprintf("core.point[%d]", po.Index), po.Started, po.Elapsed)
			busy += po.Elapsed
			pointMS = append(pointMS, ms(po.Elapsed))
			trialUS = append(trialUS, us(po.Elapsed)/float64(po.Result.Trials))
			trials += po.Result.Trials
		})
		if err != nil {
			return nil, fmt.Errorf("traced sweep %d: %w", i, err)
		}
		t3 := time.Now()
		rec.finish(exploring, t3)

		rs, err := plan.Assemble(outcomes)
		if err != nil {
			return nil, err
		}
		t4 := time.Now()
		rec.add(op, root, "wtql.assemble", t3, t4.Sub(t3))

		table := rs.Render()
		t5 := time.Now()
		rec.add(op, root, "wtql.render", t4, t5.Sub(t4))
		rec.finish(root, t5)

		wall := t5.Sub(start)
		res.done = append(res.done, sweepTiming{seed: j, wall: wall.Seconds()})
		// A sweep waits for P parallel point workers; what is left after
		// their busy time is scheduling, in-order commit and aggregation.
		overheadMS = append(overheadMS, ms(wall-busy/time.Duration(cfg.procs)))
		out.op(checks.check(j, sweepOutput(table, rs)))
		if j == 0 {
			res.seed0 = outcomes
		}
		out.metrics.set("design.points_per_sweep", float64(plan.NumPoints()), 0)

		runtime.ReadMemStats(&now)
		heapPeak = max(heapPeak, now.HeapInuse)
	}
	elapsed := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	profiling = false
	shares, samples, err := prof.stop()
	if err != nil {
		return nil, err
	}

	m := out.metrics
	m.set("core.point_ms", median(pointMS), len(pointMS))
	m.set("core.trial_us", median(trialUS), len(trialUS))
	m.set("core.sweep_p90_ms", 1000*quantile(walls(res.done), 0.9), len(res.done))
	m.set("core.sweep_overhead_ms", median(overheadMS), len(overheadMS))
	m.set("core.trials_per_s", float64(trials)/elapsed, trials)
	m.set("core.alloc_kb_per_trial", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(trials), trials)
	m.set("core.allocs_per_trial", float64(after.Mallocs-before.Mallocs)/float64(trials), trials)
	m.set("runtime.heap_peak_mb", float64(heapPeak)/(1<<20), len(res.done))
	setCPUShares(m, shares, samples)
	return res, nil
}

// setCPUShares reports the profile's per-layer shares.
func setCPUShares(m readings, shares map[string]float64, samples int) {
	for _, pkg := range cpuSharePackages {
		m.set(pkg+".cpu_share", shares[pkg], samples)
	}
	m.set("runtime.gc_cpu_share", shares["runtime.gc"], samples)
	rest := 1.0
	for _, pkg := range cpuSharePackages {
		rest -= shares[pkg]
	}
	m.set("unattributed.cpu_share", rest-shares["runtime.gc"], samples)
}

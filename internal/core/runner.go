package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/power"
	"repro/internal/sla"
	"repro/internal/stats"
)

// Runner executes replicated trials of a scenario on a persistent worker
// pool — or, with one worker, on the calling goroutine. Trials are
// aggregated strictly in trial-index order, so results are bit-identical
// regardless of Workers.
//
// Each worker runs its trials on one trial world, which it takes from a
// process-wide pool and gives back when the run ends. The pool is keyed by
// the run's content address without its seed and trial count, so a later
// run of the same data centre — another seed, more trials, the same point
// in another sweep — resets a world rather than building one, and gets
// the bits a new world gives. Idle worlds are held to a fixed byte budget,
// least recently used dropped first; nothing else drops them, so a process
// carries its last worlds until the budget pushes them out.
//
// Three §4.2 variance-reduction techniques are available, all opt-in and
// all preserving Workers-independence:
//
//   - CRN keys every named random stream by (Scenario.Seed, trial,
//     stream name) — a pure function of the triple, independent of the
//     design point — so paired design points sharing a seed see
//     identical failure draws and comparisons between them need far
//     fewer trials.
//   - Antithetic pairs trials (2k, 2k+1): the odd twin consumes the
//     mirrored uniforms of the even twin's streams, and aggregation runs
//     over pair means, shrinking confidence intervals without bias.
//     Antithetic implies CRN keying.
//   - FailureBias > 1 scales the whole-node TTF hazard by that factor
//     (failure-biased importance sampling): rare failure windows become
//     common, and every trial carries its likelihood-ratio weight into
//     self-normalized weighted estimators, so high-availability
//     scenarios resolve tiny unavailabilities in a fraction of the
//     trials.
type Runner struct {
	// Trials is the number of trials (>= 1). A run stops short of it only
	// at a trial's error or a cancelled context.
	Trials int
	// Workers bounds trial-level parallelism (0 = GOMAXPROCS).
	Workers int
	// SLAs are checked against the aggregate result.
	SLAs []sla.SLA
	// CRN enables common-random-numbers stream keying.
	CRN bool
	// Antithetic enables antithetic trial pairing (implies CRN keying).
	Antithetic bool
	// FailureBias, when > 1, enables failure-biased importance sampling
	// on the whole-node TTF process. 0 and 1 mean unbiased.
	FailureBias float64
	// Progress, when non-nil, is called from the commit path after each
	// trial is folded into the aggregate, with the number of committed
	// trials and the planned total. Calls arrive strictly in trial order;
	// the callback must not block for long (it stalls aggregation, not
	// simulation) and must not call back into the Runner.
	Progress func(done, total int)
}

func (r Runner) biasActive() bool {
	return r.FailureBias > 0 && r.FailureBias != 1
}

// trialOutcome carries one trial's raw measurements.
type trialOutcome struct {
	availability   float64
	zeroCopy       float64
	meanUnavail    float64
	lost           int64
	repairs        int64
	repairBytes    float64
	nodeFailures   int64
	events         uint64
	repairMakespan float64
	weight         float64     // importance weight (1 when unbiased)
	power          power.Stats // zero unless Scenario.Power.Enabled
	err            error
}

// indexedOutcome pairs a trial result with its index for in-order commit.
type indexedOutcome struct {
	idx int
	out trialOutcome
}

// metric indices into the aggregation array.
const (
	mAvail = iota
	mZeroCopy
	mMeanUnavail
	mLost
	mRepairs
	mRepBytes
	mNodeFail
	mMakespan
	// Power/energy indices: always aggregated (zeros when the power
	// subsystem is disabled) but surfaced as metrics only when enabled,
	// so the default result map is unchanged.
	mEnergy
	mITEnergy
	mPeakKW
	mPUE
	mCarbon
	mUtilOutages
	mRideOK
	mGenStarts
	mPowerLoss
	mPDUFail
	mCount
)

// values extracts the aggregated metrics in index order.
func (o *trialOutcome) values(users int) [mCount]float64 {
	return [mCount]float64{
		mAvail:       o.availability,
		mZeroCopy:    o.zeroCopy,
		mMeanUnavail: o.meanUnavail,
		mLost:        float64(o.lost) / float64(users),
		mRepairs:     float64(o.repairs),
		mRepBytes:    o.repairBytes,
		mNodeFail:    float64(o.nodeFailures),
		mMakespan:    o.repairMakespan,
		mEnergy:      o.power.EnergyKWh,
		mITEnergy:    o.power.ITEnergyKWh,
		mPeakKW:      o.power.PeakKW,
		mPUE:         o.power.PUE,
		mCarbon:      o.power.CarbonKg,
		mUtilOutages: float64(o.power.UtilityOutages),
		mRideOK:      float64(o.power.RideThroughOK),
		mGenStarts:   float64(o.power.GeneratorStarts),
		mPowerLoss:   float64(o.power.PowerLossEvents),
		mPDUFail:     float64(o.power.PDUFailures),
	}
}

// aggregator accumulates per-metric estimates. The plain path uses the
// historical Welford accumulators; the variance-reduced path feeds
// pair-mean and/or likelihood-weighted observations into weighted
// estimators.
type aggregator struct {
	weighted bool
	plain    [mCount]stats.Welford
	w        [mCount]stats.WeightedWelford
}

func (a *aggregator) add(vals [mCount]float64, wt float64) {
	if a.weighted {
		for i := range vals {
			a.w[i].Add(vals[i], wt)
		}
		return
	}
	for i := range vals {
		a.plain[i].Add(vals[i])
	}
}

func (a *aggregator) mean(i int) float64 {
	if a.weighted {
		return a.w[i].Mean()
	}
	return a.plain[i].Mean()
}

func (a *aggregator) ci(i int, alpha float64) float64 {
	if a.weighted {
		return a.w[i].CI(alpha)
	}
	return a.plain[i].CI(alpha)
}

// Run executes the scenario.
func (r Runner) Run(sc Scenario) (*RunResult, error) {
	return r.RunContext(context.Background(), sc)
}

// RunContext executes the scenario, stopping early (with ctx.Err) when
// the context is cancelled. Cancellation reaches a trial in flight, which
// looks at ctx between slices of its events; no new trial starts, and the
// partial aggregate is discarded.
func (r Runner) RunContext(ctx context.Context, sc Scenario) (*RunResult, error) {
	var world worldKey
	walkKeys(&sc, &r, nil, &world)
	res, err := r.simulate(ctx, sc, world)
	if err != nil {
		return nil, err
	}
	if err := r.applySLAs(res); err != nil {
		return nil, err
	}
	return res, nil
}

// applySLAs writes the SLA verdicts onto a completed (or cached) result.
func (r Runner) applySLAs(res *RunResult) error {
	if len(r.SLAs) > 0 {
		verdicts, all, err := sla.CheckAll(res, r.SLAs)
		if err != nil {
			return err
		}
		res.Verdicts = verdicts
		res.AllMet = all
		return nil
	}
	res.AllMet = true
	return nil
}

// simulate runs the trial batch and aggregates metrics; SLA checking is
// layered on top so the trial cache can store SLA-free results and reuse
// them across queries with different WHERE thresholds. Each worker takes
// its world from the process's worldPool under world, sc's worldKey, and
// gives it back when the run ends.
func (r Runner) simulate(ctx context.Context, sc Scenario, world worldKey) (*RunResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if r.Trials < 1 {
		return nil, fmt.Errorf("core: Runner.Trials must be >= 1, got %d", r.Trials)
	}
	if r.Trials > MaxTrials {
		return nil, fmt.Errorf("core: %d trials is over the ceiling of %d", r.Trials, MaxTrials)
	}
	if r.FailureBias < 0 {
		return nil, fmt.Errorf("core: Runner.FailureBias must be >= 0, got %v", r.FailureBias)
	}
	if r.biasActive() && sc.Cluster.NodeTTF == nil {
		return nil, fmt.Errorf("core: FailureBias needs a whole-node TTF distribution (Cluster.NodeTTF)")
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > r.Trials {
		workers = r.Trials
	}

	agg := &aggregator{weighted: r.biasActive()}
	// Outcomes are committed strictly in trial-index order, and a run that
	// returns has committed all r.Trials of them. With Antithetic, a
	// committed even trial is held until its odd twin commits (adjacent in
	// commit order) and the pair mean becomes one observation; an unpaired
	// final trial is committed alone.
	var (
		events    uint64
		committed = 0
		firstErr  error
		pending   *trialOutcome // even twin awaiting its antithetic pair
	)
	// accept commits the next trial's outcome and reports whether the run
	// stops there, at the trial's error.
	accept := func(o trialOutcome) (stop bool) {
		committed++
		if o.err != nil {
			firstErr = o.err
			return true
		}
		events += o.events
		wt := max1(o.weight)
		switch {
		case !r.Antithetic:
			agg.add(o.values(sc.Users), wt)
		case pending == nil:
			held := o
			pending = &held
		default:
			// Pair mean: weighted within the pair so the pair observation
			// stays a self-normalized estimate of the same quantity.
			p := pending
			pending = nil
			pw := max1(p.weight)
			pv := p.values(sc.Users)
			ov := o.values(sc.Users)
			var vals [mCount]float64
			for i := range vals {
				vals[i] = (pw*pv[i] + wt*ov[i]) / (pw + wt)
			}
			agg.add(vals, (pw+wt)/2)
		}
		if committed == r.Trials && pending != nil {
			agg.add(pending.values(sc.Users), max1(pending.weight))
		}
		if r.Progress != nil {
			r.Progress(committed, r.Trials)
		}
		return false
	}

	if workers == 1 {
		// One worker runs on the calling goroutine: each trial is committed
		// as soon as it has run, with no channel and nothing to reorder.
		w := worlds.take(world, r, sc)
		for i := 0; i < r.Trials && ctx.Err() == nil; i++ {
			if accept(w.run(ctx, uint64(i))) {
				break
			}
		}
		worlds.give(w)
	} else {
		r.pool(ctx, sc, world, workers, accept)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Metric keys are compile-time literals (interned by the compiler).
	// The map is sized for the entries it gets: the ten every run has, the
	// two importance-sampling diagnostics and the ten power metrics when
	// those are on. A larger hint costs bytes, not allocations: on Go 1.24
	// a hint of 9–14 allocates 504 B and one of 15–22 allocates 984 B, and
	// the Explorer assembles one RunResult per design point.
	size := 10
	if r.biasActive() {
		size += 2
	}
	if sc.Power.Enabled {
		size += 10
	}
	metrics := make(map[string]float64, size)
	metrics["availability"] = agg.mean(mAvail)
	metrics["unavail_fraction"] = 1 - agg.mean(mAvail)
	metrics["zero_copy_fraction"] = agg.mean(mZeroCopy)
	metrics["mean_unavail_objects"] = agg.mean(mMeanUnavail)
	metrics["loss_prob"] = agg.mean(mLost)
	metrics["repairs"] = agg.mean(mRepairs)
	metrics["repair_bytes_mb"] = agg.mean(mRepBytes)
	metrics["node_failures"] = agg.mean(mNodeFail)
	metrics["repair_makespan"] = agg.mean(mMakespan)
	metrics["events"] = float64(events) / float64(r.Trials)
	ci := make(map[string]float64, 3)
	ci["availability"] = agg.ci(mAvail, 0.05)
	ci["loss_prob"] = agg.ci(mLost, 0.05)
	if sc.Power.Enabled {
		metrics["energy_kwh"] = agg.mean(mEnergy)
		metrics["energy_it_kwh"] = agg.mean(mITEnergy)
		metrics["peak_kw"] = agg.mean(mPeakKW)
		metrics["pue"] = agg.mean(mPUE)
		metrics["carbon_kg"] = agg.mean(mCarbon)
		metrics["power_utility_outages"] = agg.mean(mUtilOutages)
		metrics["power_ride_through_ok"] = agg.mean(mRideOK)
		metrics["power_generator_starts"] = agg.mean(mGenStarts)
		metrics["power_loss_events"] = agg.mean(mPowerLoss)
		metrics["power_pdu_failures"] = agg.mean(mPDUFail)
		ci["energy_kwh"] = agg.ci(mEnergy, 0.05)
	}
	res := &RunResult{
		Scenario:    sc.Name,
		Trials:      r.Trials,
		Metrics:     metrics,
		CI:          ci,
		EventsTotal: events,
	}
	if r.biasActive() {
		// Diagnostic for importance sampling: effective sample size and
		// mean weight (should hover near 1 when the bias is well chosen).
		res.Metrics["is_effective_trials"] = agg.w[mAvail].EffectiveN()
		res.Metrics["is_weight_mean"] = agg.w[mAvail].SumWeights() / float64(agg.w[mAvail].N())
	}
	return res, nil
}

// pool runs the trials on workers goroutines, each claiming the next
// unstarted trial index, and hands the outcomes to accept on the calling
// goroutine in trial-index order, through a reorder buffer, until accept
// reports that the run stops, ctx is done, or every trial has been
// accepted.
func (r Runner) pool(ctx context.Context, sc Scenario, world worldKey, workers int, accept func(trialOutcome) (stop bool)) {
	var next atomic.Int64
	stop := make(chan struct{}) // closed to halt the workers once the run stops
	results := make(chan indexedOutcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's world: pooled or built by its first trial, reset
			// in place before each trial, seen by no other goroutine until
			// it is given back.
			w := worlds.take(world, r, sc)
			defer worlds.give(w)
			for {
				i := int(next.Add(1) - 1)
				if i >= r.Trials {
					return
				}
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				out := w.run(ctx, uint64(i))
				select {
				case results <- indexedOutcome{idx: i, out: out}:
				case <-stop:
					return
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	reorder := make(map[int]trialOutcome)
	nextCommit, stopped := 0, false
	for res := range results {
		if stopped {
			continue // drain workers already in flight
		}
		reorder[res.idx] = res.out
		for !stopped && ctx.Err() == nil {
			o, ok := reorder[nextCommit]
			if !ok {
				break
			}
			delete(reorder, nextCommit)
			nextCommit++
			stopped = accept(o)
		}
		if stopped = stopped || ctx.Err() != nil; stopped {
			close(stop)
		}
	}
}

func max1(w float64) float64 {
	if w == 0 {
		return 1
	}
	return w
}

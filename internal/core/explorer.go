package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/design"
	"repro/internal/sla"
)

// PointOutcome is the result of one design point in a sweep.
type PointOutcome struct {
	Point design.Point
	// Index is the point's position in the full space's point order.
	// Without a subset it equals the commit position; with one it is the
	// global index, which is how a fleet worker's shard names its points.
	Index  int
	Result *RunResult // nil when pruned; analytic estimates when screened
	Pruned bool
	// Screened reports that the point was decided by the analytic
	// screening pass (§2.2) without simulation; Decision says which way.
	Screened bool
	Decision ScreenDecision
	// FromCache reports that Result was served from the trial cache
	// rather than a fresh simulation. By the cache contract it is
	// byte-identical to what the simulation would have produced, so it
	// counts as Executed in the Exploration totals.
	FromCache bool
	AllMet    bool
	// Worker names who served the point when an Executor ran it; empty
	// for the explorer's own engine.
	Worker string
	// Started/Elapsed/Waited time the point's execution (build + screen +
	// cache lookup + simulate), with Waited the portion spent blocked on
	// the Gate. They feed the serving layer's telemetry (latency
	// histograms, trace spans) and are not part of any wire format or
	// rendered output — fleet byte-identity never sees them.
	Started time.Time
	Elapsed time.Duration
	Waited  time.Duration
}

// Exploration summarizes a design-space sweep.
type Exploration struct {
	Outcomes []PointOutcome
	Executed int
	Pruned   int
	// Screened counts points decided analytically without simulation.
	// Every screened point still appears in Outcomes — nothing is
	// silently skipped.
	Screened int
	// CacheHits counts executed points whose results were served from
	// the trial cache. Cached points still count in Executed and Events,
	// keeping the reported totals identical between a cold and a warm
	// sweep (a cache hit stands for the exact events it once simulated).
	CacheHits int
	Events    uint64
}

// Passing returns the outcomes that met every SLA, in point order.
func (e *Exploration) Passing() []PointOutcome {
	var out []PointOutcome
	for _, o := range e.Outcomes {
		if !o.Pruned && o.AllMet {
			out = append(out, o)
		}
	}
	return out
}

// Explorer sweeps a design space, building a scenario per point and
// running it (§4.2's "queries to the wind tunnel ... iterate over a vast
// design space"). Points run on a persistent worker pool and their
// outcomes are committed strictly in the space's point order, so a sweep
// is bit-identical for any Workers setting. With Prune enabled, points
// are visited in the space's best-first order and §4.2's dominance rule
// skips guaranteed failures; pruning composes with the worker pool by
// running uncertain points speculatively — dominance only ever grows as
// failures are committed, so a point a worker observes as dominated stays
// dominated at commit time, and a speculatively-run point that commits as
// dominated is discarded exactly as the sequential order would have.
type Explorer struct {
	Space *design.Space
	// Build maps a design point to a runnable scenario and its SLAs.
	Build func(p design.Point) (Scenario, []sla.SLA, error)
	// Runner configures trial replication per point.
	Runner Runner
	// Prune enables §4.2 dominance pruning.
	Prune bool
	// Screen, when non-nil, enables the §2.2 analytic screening pass:
	// each point is first evaluated with the closed-form birth–death
	// model and skips simulation entirely when the analytic bound clears
	// (or provably misses) every availability SLA by the rule's margin.
	// Screening decisions are pure functions of the point, so sweeps stay
	// bit-identical for any Workers count, and screened points are
	// reported in Outcomes with Screened set. A screened-pass point's
	// Result carries analytic estimates.
	Screen *ScreenRule
	// Workers bounds point-level parallelism (0 = GOMAXPROCS).
	Workers int
	// Cache, when non-nil, is consulted before simulating a point and
	// filled afterwards. Keys are CacheKey(scenario, runner); cached
	// results are SLA-free and the configured SLAs are re-applied on
	// every hit, so one cache serves queries with different WHERE
	// thresholds.
	Cache TrialCache
	// Gate, when non-nil, bounds simulation concurrency across sweeps
	// sharing it: a worker holds one slot only while actually simulating
	// a point (screening decisions and cache hits bypass the gate).
	Gate Gate

	// list is the sweep's prepared point list, made on first use. Every
	// field above must be set before then and left alone after.
	listOnce sync.Once
	list     *pointList
}

// pointList is a sweep's design points with what is fixed about each
// before it runs: its scenario, its SLAs and its content address. Each
// is worked out at most once, by whichever of PointKeys or a run asks
// first, so a query that shards or journals by key and then runs builds
// every scenario and hashes every key once.
type pointList struct {
	points []design.Point
	prep   []preparedPoint
	dists  distKeys
}

type preparedPoint struct {
	built sync.Once
	sc    Scenario
	slas  []sla.SLA
	err   error

	keyed sync.Once
	key   string
	world worldKey
}

// prepared returns the explorer's point list.
func (e *Explorer) prepared() *pointList {
	e.listOnce.Do(func() {
		points := e.Space.Points()
		e.list = &pointList{points: points, prep: make([]preparedPoint, len(points))}
	})
	return e.list
}

// build returns point i with its scenario and SLAs built.
func (e *Explorer) build(l *pointList, i int) (*preparedPoint, error) {
	pp := &l.prep[i]
	pp.built.Do(func() {
		pp.sc, pp.slas, pp.err = e.Build(l.points[i])
		if pp.err != nil {
			pp.err = fmt.Errorf("core: building point %s: %w", l.points[i].Key(), pp.err)
		}
	})
	return pp, pp.err
}

// key returns a built point's CacheKey and worldKey, worked out together.
func (e *Explorer) key(l *pointList, pp *preparedPoint) (string, worldKey) {
	pp.keyed.Do(func() { pp.key = walkKeys(&pp.sc, &e.Runner, &l.dists, &pp.world) })
	return pp.key, pp.world
}

// PointFunc returns the outcome of the point at global index gi.
type PointFunc func(ctx context.Context, gi int) (PointOutcome, error)

// An Executor decides where a sweep's points run — on a fleet of
// workers, say — while the explorer still prunes, orders and counts every
// outcome. RunPoints calls it once per run with the global indices the run
// commits, in order, and its own point runner for any point the executor
// gives up on. It returns what the explorer's workers ask for each point
// they do not prune, and a stop function, called as the run ends, that
// returns once everything the executor started has.
type Executor func(ctx context.Context, subset []int, local PointFunc) (point PointFunc, stop func())

// indexedPoint pairs a point outcome with its order index.
type indexedPoint struct {
	idx int
	out PointOutcome
	err error
}

// sharedPruner serializes pruner access between workers and the
// committer.
type sharedPruner struct {
	mu sync.Mutex
	pr *design.Pruner
}

func (s *sharedPruner) dominated(p design.Point) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pr.Dominated(p)
}

func (s *sharedPruner) recordFailure(p design.Point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pr.RecordFailure(p)
}

// RunPoints executes the sweep, stopping early (with ctx.Err) when the
// context is cancelled, or at its first error in point order; the points
// then in flight are cancelled and the partial exploration is discarded.
//
// subset, when non-nil, restricts the sweep to these indices of
// Space.Points() (strictly ascending, in range). Outcomes commit in
// subset order, done/total count subset points, and every PointOutcome
// carries its global Index — what a fleet worker's shard reports its
// points by. With pruning enabled, dominance is observed within the
// subset only: a subset keeps the space's best-first order and dominance
// is transitive, so a point pruned within a subset is pruned in the whole
// sweep too.
//
// exec, when non-nil, runs every point the explorer does not prune. Its
// outcomes are outside input: each must carry a result, or be pruned and
// dominated by the failures committed before it.
//
// progress, when non-nil, is called from the commit path after each
// point outcome is committed, strictly in point order. done counts all
// committed points (including pruned ones); total is the number of
// points run. The callback must not block for long.
//
// RunPoints only reads the explorer, so one Explorer serves any number
// of RunPoints calls, one after another or at once — a sweep run in
// shards, say — and they all share its prepared points.
func (e *Explorer) RunPoints(ctx context.Context, subset []int, exec Executor,
	progress func(done, total int, out PointOutcome)) (*Exploration, error) {
	if e.Space == nil || e.Build == nil {
		return nil, fmt.Errorf("core: explorer needs a space and a build function")
	}
	list := e.prepared()
	points := list.points
	sel := subset
	if sel == nil {
		sel = make([]int, len(points))
		for i := range sel {
			sel[i] = i
		}
	} else {
		prev := -1
		for _, gi := range sel {
			if gi <= prev || gi >= len(points) {
				return nil, fmt.Errorf("core: subset indices must be strictly ascending in [0, %d)", len(points))
			}
			prev = gi
		}
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sel) {
		workers = len(sel)
	}
	if len(sel) == 0 {
		return &Exploration{}, nil
	}

	var pruner *sharedPruner
	if e.Prune {
		pruner = &sharedPruner{pr: design.NewPruner()}
	}

	// run is cancelled when the commit path stops early, which ends the
	// points in flight and whatever exec started.
	run, stop := context.WithCancel(ctx)
	defer stop()
	point := PointFunc(func(ctx context.Context, gi int) (PointOutcome, error) { return e.runPoint(ctx, list, gi) })
	if exec != nil {
		var end func()
		point, end = exec(run, sel, point)
		defer end()
	}

	var next atomic.Int64
	results := make(chan indexedPoint, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sel) || run.Err() != nil {
					return
				}
				// Committed failures only grow, so a point dominated now is
				// guaranteed to still be dominated at commit time.
				gi := sel[i]
				res := indexedPoint{idx: i, out: PointOutcome{Point: points[gi], Pruned: true}}
				if !pruner.dominated(points[gi]) {
					res.out, res.err = point(run, gi)
				}
				res.out.Index = gi
				select {
				case results <- res:
				case <-run.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Commit outcomes in point order. Under pruning, the dominance test is
	// re-evaluated here against exactly the failures committed so far —
	// the same information the sequential best-first visit would have — so
	// a speculative result for a point that should have been skipped is
	// discarded, keeping Executed/Pruned/Events identical to a Workers=1
	// sweep.
	exp := &Exploration{Outcomes: make([]PointOutcome, 0, len(sel))}
	reorder := make(map[int]indexedPoint)
	var firstErr error
	for res := range results {
		if firstErr == nil {
			firstErr = ctx.Err()
		}
		if firstErr != nil {
			stop()
			continue
		}
		reorder[res.idx] = res
		for firstErr == nil {
			r, ok := reorder[len(exp.Outcomes)]
			if !ok {
				break
			}
			delete(reorder, r.idx)
			// A point a worker skipped as dominated is still dominated here:
			// dominance is monotone. Any other pruned outcome is unserved.
			dominated := pruner.dominated(r.out.Point)
			if r.err == nil && !dominated {
				r.err = unserved(r.out)
			}
			if firstErr = r.err; firstErr != nil {
				stop()
				break
			}
			out := r.out
			switch {
			case dominated:
				out = PointOutcome{Point: out.Point, Index: out.Index, Pruned: true}
				exp.Pruned++
			case out.Screened:
				// Decided analytically: no events simulated, but the
				// decision feeds dominance pruning like any other — a
				// screened failure is a proven failure.
				exp.Screened++
			default:
				exp.Executed++
				exp.Events += out.Result.EventsTotal
				if out.FromCache {
					exp.CacheHits++
				}
			}
			if pruner != nil && !dominated && !out.AllMet {
				pruner.recordFailure(out.Point)
			}
			exp.Outcomes = append(exp.Outcomes, out)
			if progress != nil {
				progress(len(exp.Outcomes), len(sel), out)
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

// unserved returns why an outcome that the committed failures do not
// dominate cannot commit, or nil: an Executor's worker may have pruned it
// or sent it without its result.
func unserved(out PointOutcome) error {
	switch {
	case out.Pruned:
		return fmt.Errorf("core: point %d served by %s: pruned, but no failure committed before it dominates it", out.Index, out.Worker)
	case out.Result == nil:
		return fmt.Errorf("core: point %d served by %s: no result", out.Index, out.Worker)
	}
	return nil
}

// PointKeys returns the content address (CacheKey) of every point of
// the full space, in point order — the shard key a fleet scheduler
// hashes on, so a design point always lands on the worker that already
// holds its cached trials. Building a scenario is cheap (no simulation);
// any Build error aborts, exactly as it would at run time.
func (e *Explorer) PointKeys() ([]string, error) {
	if e.Space == nil || e.Build == nil {
		return nil, fmt.Errorf("core: explorer needs a space and a build function")
	}
	list := e.prepared()
	keys := make([]string, len(list.points))
	for i := range list.points {
		pp, err := e.build(list, i)
		if err != nil {
			return nil, err
		}
		keys[i], _ = e.key(list, pp)
	}
	return keys, nil
}

// Scenario returns the scenario Build makes of the point at index in the
// space's point order: the prepared one, so asking after (or before) a
// run builds nothing twice.
func (e *Explorer) Scenario(index int) (Scenario, error) {
	if e.Space == nil || e.Build == nil {
		return Scenario{}, fmt.Errorf("core: explorer needs a space and a build function")
	}
	list := e.prepared()
	if index < 0 || index >= len(list.points) {
		return Scenario{}, fmt.Errorf("core: point index %d outside [0, %d)", index, len(list.points))
	}
	pp, err := e.build(list, index)
	if err != nil {
		return Scenario{}, err
	}
	return pp.sc, nil
}

// runPoint builds one scenario, screens it analytically when enabled,
// and simulates it otherwise — unless the trial cache already holds the
// point's result, in which case the cached statistics are reused and
// only the SLA verdicts are recomputed.
func (e *Explorer) runPoint(ctx context.Context, list *pointList, i int) (PointOutcome, error) {
	started := time.Now()
	p := list.points[i]
	pp, err := e.build(list, i)
	if err != nil {
		return PointOutcome{}, err
	}
	sc, slas := pp.sc, pp.slas
	if e.Screen != nil {
		bounds, ok, err := AnalyticScreen(sc)
		if err != nil {
			return PointOutcome{}, fmt.Errorf("core: screening point %s: %w", p.Key(), err)
		}
		if ok {
			if dec := e.Screen.Decide(bounds, slas); dec != ScreenSimulate {
				res := screenResult(sc, bounds)
				res.AllMet = dec == ScreenPass
				if res.AllMet {
					// A pass is decided against the same availability
					// metric the SLAs read, so the verdicts are coherent;
					// a screened fail is decided by the lower bound and
					// reports only the Decision. A check error is fatal
					// here exactly as it is on the simulated path.
					verdicts, _, err := sla.CheckAll(res, slas)
					if err != nil {
						return PointOutcome{}, fmt.Errorf("core: checking screened point %s: %w", p.Key(), err)
					}
					res.Verdicts = verdicts
				}
				return PointOutcome{
					Point: p, Result: res, Screened: true,
					Decision: dec, AllMet: res.AllMet,
					Started: started, Elapsed: time.Since(started),
				}, nil
			}
		}
	}
	runner := e.Runner
	runner.SLAs = slas
	var (
		res       *RunResult
		fromCache bool
	)
	key, world := e.key(list, pp)
	if e.Cache != nil {
		var hit *RunResult
		var ok bool
		if cc, hasCtx := e.Cache.(ContextTrialCache); hasCtx {
			// Context-aware caches (remote peer tiers) abandon in-flight
			// fetches when the sweep is cancelled.
			hit, ok = cc.GetContext(ctx, key)
		} else {
			hit, ok = e.Cache.Get(key)
		}
		if ok {
			// Clone so the SLA verdicts written below never touch the
			// shared cached copy.
			res = hit.cloneForSLA()
			fromCache = true
		}
	}
	var waited time.Duration
	if res == nil {
		if e.Gate != nil {
			gateStart := time.Now()
			if err := e.Gate.Acquire(ctx); err != nil {
				return PointOutcome{}, fmt.Errorf("core: running point %s: %w", p.Key(), err)
			}
			waited = time.Since(gateStart)
		}
		res, err = runner.simulate(ctx, sc, world)
		if e.Gate != nil {
			e.Gate.Release()
		}
		if err != nil {
			return PointOutcome{}, fmt.Errorf("core: running point %s: %w", p.Key(), err)
		}
		if e.Cache != nil {
			e.Cache.Put(key, res.cloneForSLA())
		}
	}
	if err := runner.applySLAs(res); err != nil {
		return PointOutcome{}, fmt.Errorf("core: running point %s: %w", p.Key(), err)
	}
	return PointOutcome{
		Point: p, Result: res, AllMet: res.AllMet, FromCache: fromCache,
		Started: started, Elapsed: time.Since(started), Waited: waited,
	}, nil
}

package wtql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/design"
	"repro/internal/hardware"
	"repro/internal/power"
	"repro/internal/sla"
)

// Row is one configuration's outcome. The JSON field names are part of
// the windtunneld wire format.
type Row struct {
	Config  map[string]string  `json:"config"`
	Metrics map[string]float64 `json:"metrics"`
	Passed  bool               `json:"passed"`
	Pruned  bool               `json:"pruned,omitempty"`
	// Screened marks a row decided by the analytic screening pass — its
	// metrics are closed-form estimates, not simulation output.
	Screened bool `json:"screened,omitempty"`
}

// ResultSet is a query's output.
type ResultSet struct {
	Columns  []string
	Rows     []Row
	Executed int
	Pruned   int
	Screened int
	// CacheHits counts executed configurations served from the trial
	// cache. It is diagnostic only and deliberately absent from Render,
	// so a warm sweep's output is byte-identical to a cold one.
	CacheHits int
}

// Engine executes WTQL queries against the wind tunnel core. Its fields
// are two defaults and the resources a query runs on; everything else a
// query asks — screening and variance reduction included — is said in its
// own WITH clause, so no statement changes what the next one means.
type Engine struct {
	// Trials is the default per-point trial count (overridable per-query
	// via WITH trials = n).
	Trials int
	// Workers bounds point-level parallelism when no MONOTONE dimension
	// requests pruning (0 = GOMAXPROCS; overridable per-query via WITH
	// workers = n).
	Workers int
	// TrialWorkers bounds trial-level parallelism inside each design
	// point (0 = GOMAXPROCS). The serving layer sets 1 so its shared
	// point-level pool is the only parallelism knob; results are
	// Workers-independent either way.
	TrialWorkers int
	// Cache, when non-nil, memoizes completed trial statistics by
	// content address so overlapping sweeps — across queries and, with a
	// disk-backed cache, across sessions — reuse results instead of
	// re-simulating. Injected by the serving layer (internal/service).
	Cache core.TrialCache
	// Gate, when non-nil, bounds simulation concurrency across engines
	// sharing it — the daemon's shared worker pool.
	Gate core.Gate
}

// Execute parses and runs a query.
func (e *Engine) Execute(queryText string) (*ResultSet, error) {
	return e.ExecuteContext(context.Background(), queryText)
}

// ExecuteContext parses and runs a query under ctx; cancellation stops
// the sweep at design-point granularity and returns ctx.Err.
func (e *Engine) ExecuteContext(ctx context.Context, queryText string) (*ResultSet, error) {
	q, err := Parse(queryText)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, q)
}

// Run executes a parsed query.
func (e *Engine) Run(q *Query) (*ResultSet, error) {
	return e.RunContext(context.Background(), q)
}

// RunContext executes a parsed query under ctx.
func (e *Engine) RunContext(ctx context.Context, q *Query) (*ResultSet, error) {
	plan, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return plan.Run(ctx)
}

// Plan is a SIMULATE query after semantic analysis: the design space,
// the base scenario with every WITH override applied, the resolved
// runner knobs, the lifted SLAs and the screening rule — everything the
// engine binds before any simulation runs. Splitting planning from
// execution is what makes a query shardable: a fleet coordinator plans
// once, consistent-hashes PointKeys across workers, runs the plan with its
// fleet as the executor (RunSubsetOn) and Assembles the exact table a
// local run would have produced.
//
// A plan is immutable once built: nothing in it depends on who runs it,
// so any number of runs — shards, resumes, whole sweeps, one after another
// or at once — may share it, and its points' scenarios, keys and configs
// are worked out once for all of them.
type Plan struct {
	Query *Query
	Space *design.Space

	base   core.Scenario
	runner core.Runner
	slas   []sla.SLA
	prune  bool

	// ex runs the plan, bound to the engine's Cache and Gate as they were
	// at Plan time. Every PointKeys, Run and RunSubset goes through it, so
	// they share one prepared point list: each point's scenario is built
	// and its key hashed once per plan however many of them are called.
	ex *core.Explorer

	// configs holds each point's formatted assignments in point order,
	// made on first use and read-only after: a point's stream event and
	// its table row share the one map.
	configsOnce sync.Once
	configs     []map[string]string
}

// Trials is the resolved per-point trial count after the WITH overlay.
// A coordinator forwards it verbatim so every worker computes the same
// cache keys the shard assignment was hashed on.
func (p *Plan) Trials() int { return p.runner.Trials }

// Pruned reports whether the query declared MONOTONE dimensions, i.e.
// dominance pruning is active. Pruning decisions depend on the whole
// committed prefix of the sweep: they are made where the outcomes commit,
// whoever runs the points, so a resumed pruned sweep runs again whole.
func (p *Plan) Pruned() bool { return p.prune }

// NumPoints is the size of the design space.
func (p *Plan) NumPoints() int { return p.Space.Size() }

// Points enumerates the design space in point order.
func (p *Plan) Points() []design.Point { return p.Space.Points() }

// PointKeys returns each point's content address (core.CacheKey) in
// point order — the fleet's shard key.
func (p *Plan) PointKeys() ([]string, error) { return p.ex.PointKeys() }

// Config returns the formatted assignments ("storage.replication" ->
// "3") of the point at index in point order, or nil when index is out of
// range. The map is shared by every caller and must not be modified.
func (p *Plan) Config(index int) map[string]string {
	p.configsOnce.Do(func() {
		points := p.Space.Points()
		p.configs = make([]map[string]string, len(points))
		for i, pt := range points {
			cfg := make(map[string]string, pt.Len())
			for d := 0; d < pt.Len(); d++ {
				name, v := pt.At(d)
				cfg[name] = design.FormatValue(v)
			}
			p.configs[i] = cfg
		}
	})
	if index < 0 || index >= len(p.configs) {
		return nil
	}
	return p.configs[index]
}

// RunSubset is RunSubsetOn on this plan's engine.
func (p *Plan) RunSubset(ctx context.Context, subset []int, onOutcome func(out core.PointOutcome)) error {
	return p.RunSubsetOn(ctx, subset, nil, onOutcome)
}

// RunSubsetOn executes the given global point indices (strictly
// ascending; nil means every point), invoking onOutcome per committed
// outcome in subset order. Each outcome carries its global Index. exec
// (core.Executor) runs the points — a coordinator's fleet, on its workers
// — or, when nil, this plan's engine; either way they are pruned, ordered
// and counted here, and handing the outcomes to Assemble gives the table.
func (p *Plan) RunSubsetOn(ctx context.Context, subset []int, exec core.Executor, onOutcome func(out core.PointOutcome)) error {
	var progress func(done, total int, out core.PointOutcome)
	if onOutcome != nil {
		progress = func(done, total int, out core.PointOutcome) { onOutcome(out) }
	}
	_, err := p.ex.RunPoints(ctx, subset, exec, progress)
	return err
}

// Run executes the whole planned sweep on this plan's engine resources
// and assembles the result set — the tail of Engine.RunContext, exposed
// so a caller that needed the plan first (for PointKeys, say) does not
// plan twice.
func (p *Plan) Run(ctx context.Context) (*ResultSet, error) {
	exploration, err := p.ex.RunPoints(ctx, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return p.Assemble(exploration.Outcomes)
}

// build maps a design point to a runnable scenario plus the lifted SLAs.
func (p *Plan) build(pt design.Point) (core.Scenario, []sla.SLA, error) {
	sc := p.base
	sc.Name = pt.Key()
	// In the VARY clause's order, so two dimensions that set the same
	// field (cluster.nodes and cluster.racks, say) resolve the same way
	// for every point, every time.
	for i := 0; i < pt.Len(); i++ {
		name, v := pt.At(i)
		if err := params[name].assign(&sc, nil, v); err != nil {
			return core.Scenario{}, nil, err
		}
	}
	return sc, p.slas, nil
}

// maxPoints is the largest design space a query may span. A plan holds
// every point, with its scenario and its key, at once, so five short VARY
// lists multiplied together must not be what sizes a daemon's heap. Like
// core's ceilings it is a constant, far above any sweep in the repository
// (the largest, bench's sweep_repair, has 24 points).
const maxPoints = 100_000

// Plan resolves a parsed SIMULATE query into an executable Plan without
// running anything: defaults and WITH overrides, the design space, the
// lifted SLAs and the screening decision.
func (e *Engine) Plan(q *Query) (*Plan, error) {
	for _, a := range q.With {
		if err := retiredParams[a.Param]; err != nil {
			return nil, err
		}
	}
	for _, vc := range q.Vary {
		if err := retiredParams[vc.Param]; err != nil {
			return nil, err
		}
	}
	if q.Metric != "availability" {
		return nil, fmt.Errorf("wtql: unsupported SIMULATE target %q (only 'availability')", q.Metric)
	}
	st := settings{trials: e.Trials, workers: e.Workers, screenMargin: core.DefaultScreenMargin}
	if st.trials < 1 {
		st.trials = 5
	}

	// The assignments write into the plan's own base scenario: the plan is
	// on the heap either way, and a scenario beside it would be too.
	plan := &Plan{Query: q, base: core.DefaultScenario()}
	base := &plan.base
	for _, a := range q.With {
		p, ok := params[a.Param]
		if !ok {
			return nil, fmt.Errorf("wtql: unknown parameter %q in WITH", a.Param)
		}
		if err := p.assign(base, &st, a.Value); err != nil {
			return nil, err
		}
	}

	// Plan the VARY clauses onto a design space; with none, it is the one
	// point the WITH clause describes.
	dims := make([]design.Dimension, 0, len(q.Vary))
	prune := false
	points := 1
	for _, vc := range q.Vary {
		if points *= len(vc.Values); points > maxPoints {
			return nil, fmt.Errorf("wtql: the VARY clauses span more than the ceiling of %d design points", maxPoints)
		}
		switch p, ok := params[vc.Param]; {
		case !ok:
			return nil, fmt.Errorf("wtql: unknown parameter %q in VARY", vc.Param)
		case p.setting != nil:
			return nil, fmt.Errorf("wtql: %q cannot be varied", vc.Param)
		}
		values := make([]design.Value, len(vc.Values))
		for i, v := range vc.Values {
			values[i] = design.Value(v)
		}
		dims = append(dims, design.Dimension{Name: vc.Param, Values: values, Monotone: vc.Monotone})
		if vc.Monotone {
			prune = true
		}
	}
	space, err := design.NewSpace(dims...)
	if err != nil {
		return nil, err
	}

	// WHERE splits into SLA-checkable constraints — 'sla.availability'
	// and 'peak_kw' conjuncts, registered so pruning and screening can
	// use failures — plus a general post-filter. peak_kw conjuncts are
	// lifted only when the query enables the power subsystem (the metric
	// does not exist otherwise).
	var slas []sla.SLA
	if q.Where != nil {
		slas = extractAvailabilitySLAs(q.Where)
		if base.Power.Enabled {
			slas = append(slas, extractPowerBudgetSLAs(q.Where)...)
		}
	}

	plan.Space, plan.slas, plan.prune = space, slas, prune
	plan.runner = core.Runner{
		Trials: st.trials, Workers: e.TrialWorkers,
		CRN: st.crn, Antithetic: st.antithetic, FailureBias: st.failureBias,
	}
	plan.ex = &core.Explorer{
		Space:   space,
		Build:   plan.build,
		Runner:  plan.runner,
		Prune:   prune,
		Workers: st.workers,
		Cache:   e.Cache,
		Gate:    e.Gate,
	}
	// Screening is sound for this query only when the WHERE filter is
	// exactly the conjunction the screen can decide — availability
	// lower bounds plus (only when the power subsystem is on, so the
	// budgets are actually lifted into SLAs) peak_kw budgets; other
	// filters fall back to full simulation (nothing is skipped).
	if st.screen && q.Where != nil && screenableWhere(q.Where, base.Power.Enabled) {
		plan.ex.Screen = &core.ScreenRule{Margin: st.screenMargin}
	}
	return plan, nil
}

// Assemble turns committed point outcomes into the query's final
// ResultSet — metric rows, locally-computed cost columns, WHERE
// filtering, ORDER BY/LIMIT and the display columns. It is the second
// half of RunContext and of every daemon job: the outcomes may come from
// this engine, from a fleet's workers or from a journal, and identical
// outcomes assemble into byte-identical tables.
func (p *Plan) Assemble(outcomes []core.PointOutcome) (*ResultSet, error) {
	q := p.Query
	book := cost.DefaultPriceBook()
	rs := &ResultSet{Rows: make([]Row, 0, len(outcomes))}
	for _, out := range outcomes {
		switch {
		case out.Pruned:
			rs.Pruned++
		case out.Screened:
			rs.Screened++
		default:
			rs.Executed++
			if out.FromCache {
				rs.CacheHits++
			}
		}
	}
	cat := hardware.SharedCatalog()
	for _, out := range outcomes {
		config := p.Config(out.Index)
		if config == nil {
			return nil, fmt.Errorf("wtql: outcome index %d is outside the plan's %d points", out.Index, p.NumPoints())
		}
		row := Row{
			Config:   config,
			Pruned:   out.Pruned,
			Screened: out.Screened,
		}
		if out.Pruned {
			row.Metrics = map[string]float64{}
			rs.Rows = append(rs.Rows, row)
			continue
		}
		// The row's own map, sized for what it gets: the result's metrics
		// and cost.total, cost.capex and storage.overhead, and cost.energy
		// with a simulated energy_kwh. The result's map is not reused: the
		// trial cache shares it.
		size := len(out.Result.Metrics) + 3
		if _, ok := out.Result.Metrics["energy_kwh"]; ok {
			size++
		}
		row.Metrics = make(map[string]float64, size)
		for k, v := range out.Result.Metrics {
			row.Metrics[k] = v
		}
		// Cost metrics come from the pricing model, not the simulation —
		// except energy: with the power subsystem enabled, the simulated
		// facility kWh replaces the nameplate estimate, making cost.total
		// (and the $/9-of-availability frontier) energy-aware.
		sc, err := p.ex.Scenario(out.Index)
		if err != nil {
			return nil, err
		}
		breakdown, err := cost.EstimateWithPower(cat, sc.Cluster, sc.Power, book, sc.HorizonHours)
		if err != nil {
			return nil, err
		}
		if kwh, ok := row.Metrics["energy_kwh"]; ok {
			carbon := sc.Power.CarbonKgPerKWh
			if carbon == 0 {
				carbon = power.DefaultCarbon
			}
			breakdown = cost.WithMeasuredEnergy(breakdown, kwh, carbon, book)
			row.Metrics["cost.energy"] = breakdown.EnergyUSD
		}
		row.Metrics["cost.total"] = breakdown.TotalUSD()
		row.Metrics["cost.capex"] = breakdown.CapexUSD
		// storage.overhead is the redundancy expansion factor: the bytes
		// a provider must provision per logical byte, the quantity §1's
		// replication trade-off reduces.
		row.Metrics["storage.overhead"] = sc.Scheme.Overhead()

		row.Passed = true
		if out.Screened {
			// A screened row was decided by the analytic bounds against
			// the lifted SLAs — exactly the WHERE filter (screening is
			// only enabled when every WHERE conjunct is lifted:
			// availability always, peak_kw only with power enabled) —
			// so the decision IS the filter answer.
			row.Passed = out.AllMet
		} else if q.Where != nil {
			if row.Passed, err = evalExpr(q.Where, row); err != nil {
				return nil, err
			}
		}
		rs.Rows = append(rs.Rows, row)
	}

	// ORDER BY and LIMIT apply to passing, executed rows first; pruned
	// and failing rows are dropped from the final set, in place.
	final := rs.Rows[:0]
	for _, r := range rs.Rows {
		if !r.Pruned && r.Passed {
			final = append(final, r)
		}
	}
	if q.OrderBy != "" {
		key := q.OrderBy
		sort.SliceStable(final, func(i, j int) bool {
			vi, iok := final[i].Metrics[key]
			vj, jok := final[j].Metrics[key]
			if !iok || !jok {
				return iok && !jok
			}
			if q.Desc {
				return vi > vj
			}
			return vi < vj
		})
	}
	if q.Limit > 0 && len(final) > q.Limit {
		final = final[:q.Limit]
	}
	rs.Rows = final
	rs.Columns = columnsFor(q, final)
	return rs, nil
}

// screenableWhere reports whether the WHERE tree is exactly a
// conjunction of comparisons the analytic screen can decide:
// `sla.availability >= x` (or `>`) and — only when allowPeak, i.e. the
// query's power subsystem is enabled so peak_kw budgets are lifted into
// SLAs — `peak_kw <= x` (or `<`). Without allowPeak a peak_kw conjunct
// makes the filter unscreenable, so the point simulates and the
// post-filter reports the unknown metric loudly instead of a screened
// pass silently skipping the condition.
func screenableWhere(e Expr, allowPeak bool) bool {
	switch x := e.(type) {
	case BinaryExpr:
		return x.Op == "AND" && screenableWhere(x.Left, allowPeak) && screenableWhere(x.Right, allowPeak)
	case CompareExpr:
		if x.Ident == "sla.availability" && (x.Op == ">=" || x.Op == ">") {
			return true
		}
		return allowPeak && x.Ident == "peak_kw" && (x.Op == "<=" || x.Op == "<")
	}
	return false
}

// extractAvailabilitySLAs lifts `sla.availability >= x` conjuncts out of
// the WHERE tree so the explorer's pruner sees SLA failures.
func extractAvailabilitySLAs(e Expr) []sla.SLA {
	var out []sla.SLA
	switch x := e.(type) {
	case BinaryExpr:
		if x.Op == "AND" {
			out = append(out, extractAvailabilitySLAs(x.Left)...)
			out = append(out, extractAvailabilitySLAs(x.Right)...)
		}
	case CompareExpr:
		if x.Ident == "sla.availability" && (x.Op == ">=" || x.Op == ">") {
			if f, ok := toFloat(x.Value); ok {
				if a, err := sla.NewAvailability(f); err == nil {
					out = append(out, a)
				}
			}
		}
	}
	return out
}

// extractPowerBudgetSLAs lifts `peak_kw <= x` conjuncts out of the
// WHERE tree so the explorer's power-feasibility screen (and pruning)
// sees the budget. Note that the peak_kw response is typically
// anti-monotone in cluster size: declaring MONOTONE dimensions together
// with a power budget is the query author's assertion, exactly as it is
// for availability.
func extractPowerBudgetSLAs(e Expr) []sla.SLA {
	var out []sla.SLA
	switch x := e.(type) {
	case BinaryExpr:
		if x.Op == "AND" {
			out = append(out, extractPowerBudgetSLAs(x.Left)...)
			out = append(out, extractPowerBudgetSLAs(x.Right)...)
		}
	case CompareExpr:
		if x.Ident == "peak_kw" && (x.Op == "<=" || x.Op == "<") {
			if f, ok := toFloat(x.Value); ok {
				if b, err := sla.NewPowerBudget(f); err == nil {
					out = append(out, b)
				}
			}
		}
	}
	return out
}

// evalExpr evaluates a WHERE tree against a row.
func evalExpr(e Expr, row Row) (bool, error) {
	switch x := e.(type) {
	case BinaryExpr:
		l, err := evalExpr(x.Left, row)
		if err != nil {
			return false, err
		}
		r, err := evalExpr(x.Right, row)
		if err != nil {
			return false, err
		}
		if x.Op == "AND" {
			return l && r, nil
		}
		return l || r, nil
	case NotExpr:
		v, err := evalExpr(x.X, row)
		return !v, err
	case CompareExpr:
		return evalCompare(x, row)
	default:
		return false, fmt.Errorf("wtql: unknown expression node %T", e)
	}
}

func evalCompare(c CompareExpr, row Row) (bool, error) {
	name := c.Ident
	// sla.* aliases resolve to the underlying metric.
	if name == "sla.availability" {
		name = "availability"
	}
	if name == "sla.loss_prob" {
		name = "loss_prob"
	}
	if v, ok := row.Metrics[name]; ok {
		f, isNum := toFloat(c.Value)
		if !isNum {
			return false, fmt.Errorf("wtql: metric %q compared against non-number %v", c.Ident, c.Value)
		}
		return compareFloats(v, c.Op, f)
	}
	if s, ok := row.Config[name]; ok {
		want := design.FormatValue(design.Value(c.Value))
		switch c.Op {
		case "=":
			return s == want, nil
		case "!=":
			return s != want, nil
		default:
			f, isNum := toFloat(c.Value)
			sf, err := parseNumber(s)
			if isNum && err == nil {
				return compareFloats(sf, c.Op, f)
			}
			return false, fmt.Errorf("wtql: config %q supports only = and != for strings", c.Ident)
		}
	}
	return false, fmt.Errorf("wtql: unknown identifier %q in WHERE", c.Ident)
}

func parseNumber(s string) (float64, error) {
	var f float64
	_, err := fmt.Sscanf(s, "%g", &f)
	return f, err
}

func compareFloats(a float64, op string, b float64) (bool, error) {
	switch op {
	case "=":
		return a == b, nil
	case "!=":
		return a != b, nil
	case "<":
		return a < b, nil
	case "<=":
		return a <= b, nil
	case ">":
		return a > b, nil
	case ">=":
		return a >= b, nil
	default:
		return false, fmt.Errorf("wtql: unknown operator %q", op)
	}
}

// columnsFor picks the display columns: varied dimensions, then the
// simulated metric, cost, the power/energy pair when the sweep
// simulated it, and the ORDER BY key. A query without VARY asks about one
// point, so its table is that point's whole report: every metric its row
// holds, in name order.
func columnsFor(q *Query, rows []Row) []string {
	var cols []string
	if len(q.Vary) == 0 {
		for _, r := range rows { // at most one
			for k := range r.Metrics {
				cols = append(cols, k)
			}
		}
		sort.Strings(cols)
		return cols
	}
	for _, vc := range q.Vary {
		cols = append(cols, vc.Param)
	}
	cols = append(cols, "availability", "loss_prob", "cost.total")
	for _, r := range rows {
		if _, ok := r.Metrics["energy_kwh"]; ok {
			cols = append(cols, "energy_kwh", "peak_kw")
			break
		}
	}
	if q.OrderBy != "" {
		found := false
		for _, c := range cols {
			if c == q.OrderBy {
				found = true
			}
		}
		if !found {
			cols = append(cols, q.OrderBy)
		}
	}
	return cols
}

// Render formats the result set as an aligned text table.
func (rs *ResultSet) Render() string {
	var b strings.Builder
	widths := make([]int, len(rs.Columns))
	for i, c := range rs.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rs.Rows))
	for r, row := range rs.Rows {
		cells[r] = make([]string, len(rs.Columns))
		for i, c := range rs.Columns {
			var v string
			if s, ok := row.Config[c]; ok {
				v = s
			} else if f, ok := row.Metrics[c]; ok {
				v = fmt.Sprintf("%.6g", f)
			} else {
				v = "-"
			}
			cells[r][i] = v
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	// Every line is as wide as the widths and their gaps (padding counts
	// runes, so a cell with multi-byte runes can make the table longer);
	// the count line is under 100 bytes.
	line := 1
	for _, w := range widths {
		line += w + 2
	}
	b.Grow((len(cells)+2)*line + 100)
	for i, c := range rs.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteString("\n")
	for i := range rs.Columns {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, row := range cells {
		for i, v := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], v)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(%d rows; %d configurations executed, %d screened, %d pruned)\n",
		len(rs.Rows), rs.Executed, rs.Screened, rs.Pruned)
	return b.String()
}

package service

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wtql"
)

// A repeated query is planned once, and a repeated answer is re-sent, not
// rebuilt. Everything a plan depends on besides the query's text and the
// request's trials override is fixed for the server's life —
// Config.Trials, the pool's capacity, the trial cache, the gate and the
// shared hardware catalog — so a server keeps each distinct query's
// wtql.Plan and hands it to every later job that asks the same. A kept
// plan is immutable and safe to run by any number of jobs at once: what it
// saves a repeat is parsing, planning, and each point's scenario build,
// cache key and config labels.
//
// A kept plan also keeps the last answer a whole run of it sent: the point
// lines and the result line, and a signature of every outcome they were
// built from, the worker that served it included. Every byte of those
// lines but the result's job id is a function of the plan and those
// outcomes, so a later whole run whose outcomes match commits the kept
// lines instead of encoding its own, and when every outcome matches it
// skips assembling the rows, rendering the table and encoding the result,
// and sends the kept result line under its own id. From the first outcome
// that differs the run encodes, assembles and renders as a fresh one does,
// and its answer replaces the kept one. Everything else still happens per
// job — each point looked up in the trial cache, its SLA verdicts
// recomputed, its progress, counters and spans recorded, its line
// journaled and streamed — so the bytes a job sends do not depend on
// whether its plan, or its answer, was kept.

// planKey is what distinguishes two plans on one server.
type planKey struct {
	query  string
	trials int
}

// planMemo is the server's kept plans, least recently used evicted first.
// It is bounded in design points, not in plans: together the kept plans
// hold at most as many points as the trial cache's memory tier holds
// entries, the one bound on per-point state the server already has. A
// plan with more points than that runs but is not kept. The memo lives
// and dies with its Server: a kept plan is bound to that server's cache
// and pool. A plan's kept answer lives and dies with the plan.
type planMemo struct {
	mu     sync.Mutex
	max    int        // points the kept plans may hold together
	points int        // points they hold now
	ll     *list.List // of *keptPlan; front = most recently used
	byKey  map[planKey]*list.Element
}

type keptPlan struct {
	key  planKey
	plan *wtql.Plan
	// last is the answer of the plan's most recent whole run that built
	// one. Any stored answer is valid for its own outcomes, so jobs
	// that build answers at once may store in any order: the last wins.
	last atomic.Pointer[keptAnswer]
}

func newPlanMemo(maxPoints int) *planMemo {
	return &planMemo{max: maxPoints, ll: list.New(), byKey: make(map[planKey]*list.Element)}
}

// get returns the plan kept under k, or nil.
func (m *planMemo) get(k planKey) *keptPlan {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byKey[k]
	if !ok {
		return nil
	}
	m.ll.MoveToFront(el)
	return el.Value.(*keptPlan)
}

// keep offers p as the plan for k and returns the plan to run: the one
// already kept when two jobs planned the same query at once (the first
// kept wins, as in Cache.promote), p otherwise. A plan too large to keep
// runs on a keptPlan of its own, which dies with its job.
func (m *planMemo) keep(k planKey, p *wtql.Plan) *keptPlan {
	n := p.NumPoints()
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byKey[k]; ok {
		m.ll.MoveToFront(el)
		return el.Value.(*keptPlan)
	}
	kp := &keptPlan{key: k, plan: p}
	if n > m.max {
		return kp
	}
	m.byKey[k] = m.ll.PushFront(kp)
	m.points += n
	for m.points > m.max {
		tail := m.ll.Remove(m.ll.Back()).(*keptPlan)
		delete(m.byKey, tail.key)
		m.points -= tail.plan.NumPoints()
	}
	return kp
}

// plan returns the plan req's query runs on: the kept one when this server
// has planned the same text with the same trials override before, else a
// fresh one — parsed, planned and kept. A query that fails to parse or
// plan is never kept, so it fails the same way every time it is asked.
func (s *Server) plan(j *job, req QueryRequest) (*keptPlan, error) {
	key := planKey{req.Query, req.Trials}
	if kp := s.plans.get(key); kp != nil {
		if s.fleet != nil {
			s.tel.startSpan(j.trace, j.root.ID(), "plan").Attr("reused", "true").End()
		}
		return kp, nil
	}
	if s.stage != nil {
		s.stage("parse")
	}
	q, err := wtql.Parse(req.Query)
	if err != nil {
		return nil, err
	}
	eng := s.engine()
	if req.Trials > 0 {
		eng.Trials = req.Trials
	}
	if s.stage != nil {
		s.stage("plan")
	}
	// A coordinator plans with the engine each worker builds, so the cache
	// keys it shards on are the keys the workers will compute.
	var planSp *obs.SpanHandle
	if s.fleet != nil {
		planSp = s.tel.startSpan(j.trace, j.root.ID(), "plan")
	}
	plan, err := eng.Plan(q)
	planSp.End()
	if err != nil {
		return nil, err
	}
	return s.plans.keep(key, plan), nil
}

// keptAnswer is what one whole run of a plan sent, with the outcomes
// it was built from. It is immutable once stored: its lines are shared
// read-only by every job log, journal batch and later answer that holds
// them.
type keptAnswer struct {
	outcomes []outcomeSig // in commit order
	points   [][]byte     // the point line each outcome committed, newline included
	result   []byte       // the result line after its job id, newline included
}

// outcomeSig is everything of a committed outcome that its point line and
// the result line are built from besides the plan and the outcome's
// position: what pointEvent, Plan.Assemble and the encoders read, and the
// worker that served it (the point line names it, and the result line says
// whether the coordinator ran any point itself). Metric
// values are compared bit for bit, and by content, so an entry read back
// from the disk tier matches the one that was evicted from memory.
type outcomeSig struct {
	outcomeHead
	metrics []metricBits // in no particular order; names are unique
}

// outcomeHead is the comparable part of an outcomeSig.
type outcomeHead struct {
	worker                                      string
	index, trials                               int
	events                                      uint64
	cached, pruned, screened, allMet, hasResult bool
}

// metricBits is one metric of an outcomeSig, its value as bits.
type metricBits struct {
	name string
	bits uint64
}

func headOf(out *core.PointOutcome) outcomeHead {
	h := outcomeHead{
		worker: out.Worker, index: out.Index, cached: out.FromCache, pruned: out.Pruned,
		screened: out.Screened, allMet: out.AllMet, hasResult: out.Result != nil,
	}
	if out.Result != nil {
		h.trials, h.events = out.Result.Trials, out.Result.EventsTotal
	}
	return h
}

// signature takes the signature of out.
func signature(out *core.PointOutcome) outcomeSig {
	sig := outcomeSig{outcomeHead: headOf(out)}
	if out.Result != nil && len(out.Result.Metrics) > 0 {
		sig.metrics = make([]metricBits, 0, len(out.Result.Metrics))
		for name, v := range out.Result.Metrics {
			sig.metrics = append(sig.metrics, metricBits{name, math.Float64bits(v)})
		}
	}
	return sig
}

// matches reports whether out is the outcome sig was taken of.
func (sig *outcomeSig) matches(out *core.PointOutcome) bool {
	if sig.outcomeHead != headOf(out) {
		return false
	}
	var m map[string]float64
	if out.Result != nil {
		m = out.Result.Metrics
	}
	if len(m) != len(sig.metrics) {
		return false
	}
	for _, mb := range sig.metrics {
		if v, ok := m[mb.name]; !ok || math.Float64bits(v) != mb.bits {
			return false
		}
	}
	return true
}

// resend is one whole run of a kept plan — every point, from the first,
// on this server or across its fleet — checked outcome by outcome against
// the plan's kept answer as it commits. A nil *resend is a run that
// neither re-sends nor keeps anything: a worker's shard, a recovered job's
// tail.
type resend struct {
	kp *keptPlan
	// kept is the answer this run is re-sending: nil when the plan had none,
	// and from the first outcome that differed from it.
	kept *keptAnswer
	// built is this run's own answer once kept is nil: the matched prefix's
	// signatures and lines, shared with the old answer, then its own.
	built keptAnswer
	// dropped is set when a point line could not be encoded: the stream
	// is shorter than the outcomes, and nothing is kept.
	dropped bool
	// whole is set when every outcome matched: the run re-sends kept's
	// result line too.
	whole bool
}

// newResend starts a whole run of kp against its kept answer.
func newResend(kp *keptPlan) *resend {
	r := &resend{kp: kp, kept: kp.last.Load()}
	if r.kept == nil {
		n := kp.plan.NumPoints()
		r.built = keptAnswer{outcomes: make([]outcomeSig, 0, n), points: make([][]byte, 0, n)}
	}
	return r
}

// keptLine returns the kept point line for the outcome at commit position
// pos when it and every outcome before it match the kept answer's; nil
// when the run must encode its own line.
func (r *resend) keptLine(pos int, out *core.PointOutcome) []byte {
	if r == nil || r.kept == nil {
		return nil
	}
	if pos < len(r.kept.outcomes) && r.kept.outcomes[pos].matches(out) {
		return r.kept.points[pos]
	}
	n := len(r.kept.outcomes)
	r.built = keptAnswer{
		outcomes: append(make([]outcomeSig, 0, n), r.kept.outcomes[:pos]...),
		points:   append(make([][]byte, 0, n), r.kept.points[:pos]...),
	}
	r.kept = nil
	return nil
}

// add records the line the run encoded for out: nil when it could not.
func (r *resend) add(out *core.PointOutcome, line []byte) {
	if r == nil {
		return
	}
	if line == nil {
		r.dropped = true
		return
	}
	r.built.outcomes = append(r.built.outcomes, signature(out))
	r.built.points = append(r.built.points, line)
}

// resendsAll reports whether the run, which committed n outcomes, re-sends
// the kept answer whole: every outcome matched the kept answer's, and
// there were as many.
func (r *resend) resendsAll(n int) bool {
	if r == nil {
		return false
	}
	r.whole = r.kept != nil && n == len(r.kept.outcomes)
	return r.whole
}

// keptResult returns the kept result line's tail when the run re-sends
// the kept answer whole, nil otherwise.
func (r *resend) keptResult() []byte {
	if r == nil || !r.whole {
		return nil
	}
	return r.kept.result
}

// keep stores the run's own answer as its plan's kept one, given the
// result line it sent as job id. Nothing is kept for a run that re-sent
// the kept answer or could not encode one of its point lines.
func (r *resend) keep(id string, line []byte) {
	if r == nil || r.kept != nil || r.dropped {
		return
	}
	a := r.built
	a.result = line[len(appendString([]byte(resultHead), id)):]
	r.kp.last.Store(&a)
}

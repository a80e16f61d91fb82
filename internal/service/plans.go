package service

import (
	"container/list"
	"sync"

	"repro/internal/obs"
	"repro/internal/wtql"
)

// A repeated query is planned once. Everything a plan depends on besides
// the query's text and the request's trials override is fixed for the
// server's life — Config.Trials, the pool's capacity, the trial cache, the
// gate and the shared hardware catalog — so a server keeps each distinct
// query's wtql.Plan and hands it to every later job that asks the same.
// A kept plan is immutable and safe to run by any number of jobs at once:
// what it saves a repeat is parsing, planning, and each point's scenario
// build, cache key and config labels. Everything per job still happens
// per job — each point looked up in the trial cache, its SLA verdicts
// recomputed, the rows assembled, the table rendered, the lines journaled
// and streamed — so the bytes a job sends do not depend on whether its
// plan was kept.

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
// and pool.
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
}

func newPlanMemo(maxPoints int) *planMemo {
	return &planMemo{max: maxPoints, ll: list.New(), byKey: make(map[planKey]*list.Element)}
}

// get returns the plan kept under k, or nil.
func (m *planMemo) get(k planKey) *wtql.Plan {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byKey[k]
	if !ok {
		return nil
	}
	m.ll.MoveToFront(el)
	return el.Value.(*keptPlan).plan
}

// keep offers p as the plan for k and returns the plan to run: the one
// already kept when two jobs planned the same query at once (the first
// kept wins, as in Cache.promote), p otherwise.
func (m *planMemo) keep(k planKey, p *wtql.Plan) *wtql.Plan {
	n := p.NumPoints()
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byKey[k]; ok {
		m.ll.MoveToFront(el)
		return el.Value.(*keptPlan).plan
	}
	if n > m.max {
		return p
	}
	m.byKey[k] = m.ll.PushFront(&keptPlan{key: k, plan: p})
	m.points += n
	for m.points > m.max {
		tail := m.ll.Remove(m.ll.Back()).(*keptPlan)
		delete(m.byKey, tail.key)
		m.points -= tail.plan.NumPoints()
	}
	return p
}

// plan returns the plan req's query runs on: the kept one when this server
// has planned the same text with the same trials override before, else a
// fresh one — parsed, planned and kept. A query that fails to parse or
// plan is never kept, so it fails the same way every time it is asked.
func (s *Server) plan(j *job, req QueryRequest) (*wtql.Plan, error) {
	key := planKey{req.Query, req.Trials}
	if plan := s.plans.get(key); plan != nil {
		if s.fleet != nil {
			s.tel.startSpan(j.trace, j.root.ID(), "plan").Attr("reused", "true").End()
		}
		return plan, nil
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

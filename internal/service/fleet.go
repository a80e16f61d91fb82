package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/obs"
	"repro/internal/wtql"
)

// fleet is the coordinator's side of the sharded wind tunnel: the same
// consistent-hash ring the workers peer over, the health monitor that
// tracks which members are worth talking to, and the Client the
// coordinator fans queries out with. It is a point executor for
// core.Explorer (fleetRun): a point runs on the worker that owns its
// core.CacheKey, which already holds its cached trials, and the explorer
// asks for each point's outcome by its global index. The explorer alone
// orders outcomes, prunes dominated points and counts the totals, as on a
// single daemon, so a coordinator's stream and table are byte-identical
// to a single daemon's, MONOTONE sweeps included.
//
// Fault tolerance: like a fan-array wind tunnel that keeps prescribing
// flow when individual fans degrade, the fleet keeps serving sweeps
// when individual workers die. A failed or stalled stream triggers a
// re-plan of only that shard's undelivered point indices onto the next
// healthy ring owners (exponential backoff + jitter, bounded by a
// per-shard retry budget). Exhausting the budget runs the remainder on
// the coordinator's own engine instead of failing the job, surfaced as
// `degraded` in the job's NDJSON events.
type fleet struct {
	ring   *Ring
	client Client
	health *Health

	// maxShardRetries bounds how many workers a shard chain may fail
	// over across before its remainder runs coordinator-local.
	maxShardRetries int
	// idleTimeout is the per-stream liveness deadline: a worker stream
	// that delivers no NDJSON event for this long is treated as failed.
	idleTimeout time.Duration
}

// localWorker labels point events the coordinator executed itself after
// exhausting a shard's retry budget (degraded mode).
const localWorker = "coordinator"

func newFleet(workers []string, health *Health) *fleet {
	return &fleet{
		ring: NewRing(workers),
		// The transport bounds connection establishment — a worker that
		// hangs in connect() or the TLS handshake must not wedge job
		// start — while the client has no overall timeout: a shard
		// legitimately streams for as long as its slowest simulation.
		// Liveness *during* the stream is the idle deadline's job, and
		// cancellation rides the request context.
		client: Client{HTTP: &http.Client{Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   5 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			TLSHandshakeTimeout:   5 * time.Second,
			ResponseHeaderTimeout: 15 * time.Second,
			MaxIdleConnsPerHost:   16,
		}}},
		health:          health,
		maxShardRetries: 3,
		idleTimeout:     2 * time.Minute,
	}
}

// backoff returns the sleep before a shard's attempt-th reassignment: d,
// 100 ms doubled per attempt up to 2 s, less a uniform jitter in [0, d/2),
// so simultaneous failovers across shards do not stampede the survivors.
func backoff(attempt int) time.Duration {
	d := min(100*time.Millisecond<<min(attempt-1, 5), 2*time.Second)
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

// shard is one worker's assignment of global point indices plus its
// failover bookkeeping: how many workers the chain has burned through
// and which, so a re-plan never hands indices back to a worker that
// already failed them.
type shard struct {
	worker  string
	points  []int
	attempt int
	tried   []string // in order: the last failed it most recently

	// cancel ends the shard's stream.
	cancel context.CancelFunc

	// span covers the shard stream's lifetime on the coordinator;
	// traceHdr is the X-WT-Trace value propagated to the worker so the
	// worker's job span hangs under this shard span. Both zero with
	// tracing off.
	span     *obs.SpanHandle
	traceHdr string
}

// fleetMsg is one point event of a shard stream or, with ev nil, its end.
type fleetMsg struct {
	shard *shard
	ev    *PointEvent
	err   error // the stream's, on its end
}

// executor returns what runs req's points: the fleet on a coordinator,
// unless the job is itself a shard; nil, this server's engine, otherwise.
// Shards carry the plan's resolved trial count, so that a worker's own
// -trials default cannot skew the cache keys they were hashed on.
func (s *Server) executor(j *job, req QueryRequest, plan *wtql.Plan) core.Executor {
	if s.fleet == nil || req.Points != nil {
		return nil
	}
	return func(ctx context.Context, subset []int, local core.PointFunc) (core.PointFunc, func()) {
		r := &fleetRun{
			s: s, j: j, req: QueryRequest{Query: req.Query, Trials: plan.Trials()},
			points: plan.Points(), local: local,
			merge: s.tel.startSpan(j.trace, j.root.ID(), "merge").
				Attr("points", strconv.Itoa(len(subset))),
			ch:     make(chan fleetMsg),
			slots:  make([]slot, plan.NumPoints()),
			live:   make(map[*shard]bool),
			stopc:  make(chan struct{}),
			exited: make(chan struct{}),
		}
		r.ctx, r.cancel = context.WithCancel(ctx)
		for _, gi := range subset {
			r.slots[gi].ready = make(chan struct{})
		}
		if keys, err := plan.PointKeys(); err != nil {
			r.fail(err)
		} else {
			r.keys = keys
			r.place(subset, nil, 0, 0)
		}
		go r.collect()
		return r.point, r.stop
	}
}

// fleetRun is one job's run on the fleet. Only its collector goroutine
// reads the streams, launches shards and fills slots; point, on the
// explorer's workers, waits for a slot and turns it into an outcome.
type fleetRun struct {
	s      *Server
	j      *job
	req    QueryRequest // what each shard asks its worker, less the points
	keys   []string
	points []design.Point
	local  core.PointFunc

	ctx    context.Context // cancelled to tear every stream down
	cancel context.CancelFunc
	merge  *obs.SpanHandle
	ch     chan fleetMsg
	slots  []slot // by global index; only the subset's have a ready channel

	// The collector's own.
	live    map[*shard]bool // launched streams not yet done
	stopped bool            // the explorer needs no more points

	err    error         // the run's failure, set before it closes the slots left
	stopc  chan struct{} // closed by stop
	exited chan struct{} // closed when the collector returns
}

// slot is one point's answer: the collector fills it, or fails the run,
// then closes ready.
type slot struct {
	ready  chan struct{}
	ev     *PointEvent // the point as a worker streamed it
	worker string      // the worker that streamed ev
	local  bool        // given up on: the coordinator runs the point itself
}

// filled reports whether the slot holds its answer.
func (sl *slot) filled() bool { return sl.ev != nil || sl.local }

// point returns the outcome of global index gi with the label of the
// worker that served it: localWorker for a point the fleet gave up on,
// which runs here, on the coordinator's own engine, behind its Gate.
func (r *fleetRun) point(ctx context.Context, gi int) (core.PointOutcome, error) {
	sl := &r.slots[gi]
	select {
	case <-sl.ready:
	case <-ctx.Done():
		return core.PointOutcome{}, ctx.Err()
	}
	if !sl.filled() {
		return core.PointOutcome{}, r.err
	}
	if sl.local {
		r.s.markDegraded(r.j)
		out, err := r.local(ctx, gi)
		out.Worker = localWorker
		return out, err
	}
	out := eventOutcome(r.points[gi], *sl.ev)
	out.Worker = sl.worker
	return out, nil
}

// stop ends the run once the explorer needs no more of it, and returns
// when every goroutine the run started has.
func (r *fleetRun) stop() {
	close(r.stopc)
	<-r.exited
	r.cancel()
	r.merge.End()
}

// fail records the run's failure, hands it to every point still
// unanswered and tears the streams down.
func (r *fleetRun) fail(err error) {
	if r.err == nil {
		r.err = err
		for i := range r.slots {
			if sl := &r.slots[i]; sl.ready != nil && !sl.filled() {
				close(sl.ready)
			}
		}
		r.cancel()
	}
}

// place launches indices on their ring owners, one shard per owner after
// delay, and gives up on any index no member may take. One owner rule
// serves the first placement and every failover: untried assignable
// members; when there is none (the rule does not depend on the key), any
// reachable member but the one that just failed — a suspect member may
// well have recovered, and trying it beats running here.
func (r *fleetRun) place(indices []int, tried []string, attempt int, delay time.Duration) {
	if len(indices) == 0 {
		return
	}
	f := r.s.fleet
	skip := func(node string) bool { return slices.Contains(tried, node) || !f.health.Assignable(node) }
	if _, ok := f.ring.OwnerSkipping(r.keys[indices[0]], skip); !ok {
		tried = tried[max(len(tried)-1, 0):]
		skip = func(node string) bool { return slices.Contains(tried, node) || !f.health.Reachable(node) }
	}
	byWorker := make(map[string][]int)
	var order []string
	for _, gi := range indices {
		w, ok := f.ring.OwnerSkipping(r.keys[gi], skip)
		if !ok {
			r.giveUp(gi)
			continue
		}
		if byWorker[w] == nil {
			order = append(order, w)
		}
		byWorker[w] = append(byWorker[w], gi)
	}
	for _, w := range order {
		r.launch(&shard{worker: w, points: byWorker[w], attempt: attempt, tried: tried}, delay)
	}
}

// giveUp leaves point gi to the coordinator's own engine.
func (r *fleetRun) giveUp(gi int) {
	r.slots[gi].local = true
	close(r.slots[gi].ready)
}

// launch posts one shard to its worker after an optional backoff. The
// terminal message is delivered unconditionally: the collector drains the
// channel until every launched stream has ended.
func (r *fleetRun) launch(sh *shard, delay time.Duration) {
	trace := r.j.trace
	sh.span = r.s.tel.startSpan(trace, r.j.root.ID(), "shard").
		Attr("worker", sh.worker).
		Attr("points", strconv.Itoa(len(sh.points))).
		Attr("attempt", strconv.Itoa(sh.attempt))
	if trace.id != "" {
		sh.traceHdr = trace.id + ":" + sh.span.ID()
	}
	r.s.tel.shardsLaunched.Inc()
	if sh.attempt > 0 {
		r.s.tel.shardRetries.Inc()
	}
	var ctx context.Context
	ctx, sh.cancel = context.WithCancel(r.ctx)
	r.live[sh] = true
	go func() {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				r.ch <- fleetMsg{shard: sh, err: ctx.Err()}
				return
			}
		}
		r.s.fleet.stream(ctx, sh, r.req, r.ch)
	}()
}

// collect reads the shard streams until every one has ended. Streams that
// end on their own before the explorer is done leave it no more points:
// any it still asks for fail the run.
func (r *fleetRun) collect() {
	defer close(r.exited)
	stopc := r.stopc
	for len(r.live) > 0 {
		select {
		case m := <-r.ch:
			if m.ev != nil {
				r.deliver(m)
			} else {
				r.end(m)
			}
		case <-stopc:
			// A stream that still owes a point runs only what the explorer
			// pruned: cut it. One that owes none is sending its result line
			// and ends on its own.
			stopc, r.stopped = nil, true
			for sh := range r.live {
				if slices.ContainsFunc(sh.points, func(gi int) bool { return !r.slots[gi].filled() }) {
					sh.cancel()
				}
			}
		}
	}
	if !r.stopped {
		r.fail(errors.New("service: the fleet's streams ended without every point"))
	}
}

// deliver fills the slot of one streamed point.
func (r *fleetRun) deliver(m fleetMsg) {
	ev := m.ev
	switch {
	case r.err != nil:
		// Already failing: drain.
	case ev.Index < 0 || ev.Index >= len(r.slots):
		r.fail(fmt.Errorf("service: worker %s streamed out-of-range point index %d", m.shard.worker, ev.Index))
	case r.slots[ev.Index].ready == nil || r.slots[ev.Index].filled():
		// Not the run's, or a duplicate delivery (possible only in
		// pathological failover interleavings). Outcomes are deterministic
		// per cache key, so the first stands.
	default:
		sl := &r.slots[ev.Index]
		sl.ev, sl.worker = ev, m.shard.worker
		close(sl.ready)
	}
}

// end handles a stream's end: a failed stream's undelivered points fail
// over to the next owners, or, past the retry budget, to the coordinator.
func (r *fleetRun) end(m fleetMsg) {
	sh, w := m.shard, m.shard.worker
	delete(r.live, sh)
	sh.cancel()
	if m.err == nil {
		sh.span.Attr("status", "ok").End()
		r.s.fleet.health.ReportSuccess(w)
		return
	}
	sh.span.Attr("status", "error").Attr("error", m.err.Error()).End()
	if r.err != nil || r.ctx.Err() != nil || r.stopped {
		return // torn down from this side, or no longer needed
	}
	// Points already streamed are complete, deterministic outcomes — a
	// worker that died after delivering its last point but before its
	// result line cost the job nothing.
	var rem []int
	for _, gi := range sh.points {
		if !r.slots[gi].filled() {
			rem = append(rem, gi)
		}
	}
	if own := ownFailure(m.err); own != nil {
		// The worker ran (or refused) the shard and answered with the
		// query's own error. It did its work, and any other worker — or
		// this coordinator — would answer the same: fail the job in the
		// worker's words, without failover, if it still needs a point.
		if len(rem) > 0 {
			r.fail(own)
		}
		return
	}
	r.s.tel.workerFailures.Inc()
	r.s.fleet.health.ReportFailure(w, m.err)
	attempt := sh.attempt + 1
	if attempt > r.s.fleet.maxShardRetries {
		for _, gi := range rem {
			r.giveUp(gi)
		}
		return
	}
	r.place(rem, append(slices.Clip(sh.tried), w), attempt, backoff(attempt))
}

// stream posts one shard and forwards its point events to ch, always
// terminating with exactly one end message. The terminal send is
// unconditionally blocking: the collector drains ch until every stream
// has ended, so the send always completes — bailing out on ctx here
// instead would leak the end message and wedge the collector. An idle
// watchdog bounds the gap between NDJSON events: a worker that accepted
// the shard and then hung (no events, connection alive) is treated as
// failed so the run can re-plan, instead of stalling the job forever.
func (f *fleet) stream(ctx context.Context, sh *shard, req QueryRequest, ch chan<- fleetMsg) {
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	var stalled atomic.Bool
	idle := time.AfterFunc(f.idleTimeout, func() {
		stalled.Store(true)
		scancel()
	})
	defer idle.Stop()

	c := f.client
	c.Trace = sh.traceHdr
	req.Points = sh.points
	err := c.Query(sctx, sh.worker, req, func(ev *Event) error {
		idle.Reset(f.idleTimeout)
		if ev.Type != "point" {
			return nil
		}
		pe, err := ev.Point()
		if err != nil {
			return err
		}
		select {
		case ch <- fleetMsg{shard: sh, ev: &pe}:
			return nil
		case <-sctx.Done():
			return sctx.Err()
		}
	})
	if err != nil && stalled.Load() {
		// Tell a tripped idle deadline from a plain cancellation or
		// transport error, so the failover path (and the operator reading
		// the logs) sees the stall for what it was.
		err = fmt.Errorf("stream idle past %s: %w", f.idleTimeout, err)
	}
	ch <- fleetMsg{shard: sh, err: err}
}

// ownFailure returns a shard stream's error in the worker's own words
// when it is the query's failure (Permanent), not the worker's; nil
// otherwise. A job the worker cancelled — its drain window ran out, an
// operator's DELETE — is the worker's doing: the coordinator's own
// cancellations are drained before they get here. The wire has only the
// error's text for that, which ends (Server.finish) in the context's.
func ownFailure(err error) error {
	if !Permanent(err) {
		return nil
	}
	var se *StatusError
	if errors.As(err, &se) {
		return errors.New(se.Message)
	}
	var je *JobError
	errors.As(err, &je)
	if strings.HasSuffix(je.Message, context.Canceled.Error()) || strings.HasSuffix(je.Message, context.DeadlineExceeded.Error()) {
		return nil
	}
	return errors.New(je.Message)
}

// eventOutcome reconstructs a committed point outcome from a worker's
// point event. encoding/json round-trips float64 bit-exactly, so
// Assemble over these outcomes renders the very bytes a local run of
// the same sweep would. An event that is neither pruned nor carries
// metrics gives an outcome without a result, which the explorer refuses.
func eventOutcome(p design.Point, ev PointEvent) core.PointOutcome {
	out := core.PointOutcome{
		Point:     p,
		Index:     ev.Index,
		Pruned:    ev.Pruned,
		Screened:  ev.Screened,
		FromCache: ev.Cached,
		AllMet:    ev.AllMet,
	}
	if !ev.Pruned && ev.Metrics != nil {
		out.Result = &core.RunResult{
			Metrics:     ev.Metrics,
			Trials:      ev.Trials,
			EventsTotal: ev.Events,
		}
	}
	return out
}

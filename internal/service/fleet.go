package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
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
// coordinator fans queries out with. A sweep's design points are hashed
// on core.CacheKey, so a point always lands on the worker that already
// holds its cached trials; the workers' outcomes are handed back in
// global point order to the job's one commit path (answer, durable.go),
// so a coordinator's stream and table are byte-identical to a
// single-daemon run.
//
// Fault tolerance: like a fan-array wind tunnel that keeps prescribing
// flow when individual fans degrade, the fleet keeps serving sweeps
// when individual workers die. A failed or stalled stream triggers a
// re-plan of only that shard's undelivered point indices onto the next
// healthy ring owners (exponential backoff + jitter, bounded by a
// per-shard retry budget); outcomes are deterministic per cache key and
// assembled by global index, so the merged table stays byte-identical
// however many times a shard moves. Exhausting the budget degrades to
// coordinator-local execution of the remainder instead of failing the
// job, surfaced as `degraded` in the job's NDJSON events.
type fleet struct {
	ring   *Ring
	client Client
	health *Health

	// maxShardRetries bounds how many workers a shard chain may fail
	// over across before its remainder runs coordinator-local.
	maxShardRetries int
	// backoffBase/backoffMax shape the exponential retry backoff.
	backoffBase, backoffMax time.Duration
	// idleTimeout is the per-stream liveness deadline: a worker stream
	// that delivers no NDJSON event for this long is treated as failed.
	idleTimeout time.Duration
}

const (
	defaultMaxShardRetries = 3
	defaultBackoffBase     = 100 * time.Millisecond
	defaultBackoffMax      = 2 * time.Second
	defaultStreamIdle      = 2 * time.Minute
)

// localWorker labels point events the coordinator executed itself after
// exhausting a shard's retry budget (degraded mode).
const localWorker = "coordinator"

func newFleet(workers []string, health *Health, idleTimeout time.Duration, maxShardRetries int) *fleet {
	if idleTimeout <= 0 {
		idleTimeout = defaultStreamIdle
	}
	if maxShardRetries <= 0 {
		maxShardRetries = defaultMaxShardRetries
	}
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
		maxShardRetries: maxShardRetries,
		backoffBase:     defaultBackoffBase,
		backoffMax:      defaultBackoffMax,
		idleTimeout:     idleTimeout,
	}
}

// backoff returns the sleep before a shard's attempt-th reassignment:
// exponential in the attempt with uniform jitter in [d/2, d), so
// simultaneous failovers across shards do not stampede the survivors.
func (f *fleet) backoff(attempt int) time.Duration {
	d := f.backoffBase << (attempt - 1)
	if d > f.backoffMax || d <= 0 {
		d = f.backoffMax
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + jitterRand(half))
}

// jitterRand draws a uniform int in [0, n) for backoff jitter; it is a
// seam so tests never depend on global RNG state.
var jitterRand = func(n int64) int64 { return rand.Int63n(n) }

// shard is one worker's assignment of global point indices plus its
// failover bookkeeping: how many workers the chain has burned through
// and which, so a re-plan never hands indices back to a worker that
// already failed them.
type shard struct {
	worker  string
	points  []int
	attempt int
	tried   map[string]bool

	// span covers the shard stream's lifetime on the coordinator;
	// traceHdr is the X-WT-Trace value propagated to the worker so the
	// worker's job span hangs under this shard span. Both zero with
	// tracing off.
	span     *obs.SpanHandle
	traceHdr string
}

// fleetMsg is one parsed line (or the terminal state) of a shard
// stream.
type fleetMsg struct {
	shard *shard
	ev    *PointEvent
	err   error // set only on the terminal message
	done  bool
}

// runFleet runs the plan's points at subset — strictly ascending global
// indices, nil meaning every point — across the fleet, and calls fn once
// per outcome in subset order, as Plan.RunSubset does, with the label of
// the worker that served it: localWorker for a point the coordinator ran
// itself. Each point goes to its ring owner by cache key. A worker's
// failure re-plans only its shard's undelivered points onto the next
// healthy owners; an exhausted retry budget runs them on the
// coordinator's own engine, and the job is marked degraded. The plan's
// resolved trial count is forwarded to the workers so that a worker's own
// -trials default cannot skew the cache keys the shards were hashed on.
func (s *Server) runFleet(ctx context.Context, j *job, query string, plan *wtql.Plan, subset []int,
	fn func(out core.PointOutcome, worker string)) error {
	f := s.fleet
	keys, err := plan.PointKeys()
	if err != nil {
		return err
	}
	total := len(keys)
	if subset == nil {
		subset = make([]int, total)
		for i := range subset {
			subset[i] = i
		}
	}
	if len(subset) == 0 {
		return nil
	}
	points := plan.Points()
	trace, root := j.trace, j.root.ID()
	mergeSp := s.tel.startSpan(trace, root, "merge").
		Attr("points", strconv.Itoa(len(subset)))
	defer mergeSp.End()

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan fleetMsg, 16)

	active := 0

	// launchStream posts one shard to its worker after an optional
	// backoff. The terminal done message is delivered unconditionally —
	// the merge loop drains ch until every launched stream reports done.
	launchStream := func(sh *shard, delay time.Duration) {
		sh.span = s.tel.startSpan(trace, root, "shard").
			Attr("worker", sh.worker).
			Attr("points", strconv.Itoa(len(sh.points))).
			Attr("attempt", strconv.Itoa(sh.attempt))
		if trace.id != "" {
			sh.traceHdr = trace.id + ":" + sh.span.ID()
		}
		s.tel.shardsLaunched.Inc()
		if sh.attempt > 0 {
			s.tel.shardRetries.Inc()
		}
		active++
		go func() {
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-fctx.Done():
					ch <- fleetMsg{shard: sh, err: fctx.Err(), done: true}
					return
				}
			}
			f.stream(fctx, sh, query, plan.Trials(), ch)
		}()
	}

	// launchLocal runs indices on the coordinator's own engine — the
	// degraded last resort when no healthy worker can take them. The
	// job keeps going rather than failing; the degradation is surfaced
	// on the job record and every locally-served point event.
	launchLocal := func(indices []int) {
		if len(indices) == 0 {
			return
		}
		sort.Ints(indices) // Subset wants strictly ascending global indices
		s.markDegraded(j)
		sh := &shard{worker: localWorker, points: indices}
		sh.span = s.tel.startSpan(trace, root, "shard").
			Attr("worker", localWorker).
			Attr("points", strconv.Itoa(len(indices)))
		active++
		go func() {
			err := plan.RunSubset(fctx, indices, func(out core.PointOutcome) {
				s.tel.observePoint(trace, sh.span.ID(), out)
				ev := pointEvent(nil, 0, 0, out)
				select {
				case ch <- fleetMsg{shard: sh, ev: &ev}:
				case <-fctx.Done():
				}
			})
			ch <- fleetMsg{shard: sh, err: err, done: true}
		}()
	}

	// place groups indices by their ring owner among the members skip
	// leaves, preserving first-seen worker order for the fan-out, and
	// launches one shard per owner after delay; the indices no member may
	// take run coordinator-local.
	place := func(indices []int, skip func(string) bool, attempt int, tried map[string]bool, delay time.Duration) {
		byWorker := make(map[string][]int)
		var order []string
		var local []int
		for _, gi := range indices {
			w, ok := f.ring.OwnerSkipping(keys[gi], skip)
			if !ok {
				local = append(local, gi)
				continue
			}
			if byWorker[w] == nil {
				order = append(order, w)
			}
			byWorker[w] = append(byWorker[w], gi)
		}
		for _, w := range order {
			launchStream(&shard{worker: w, points: byWorker[w], attempt: attempt, tried: tried}, delay)
		}
		launchLocal(local)
	}
	// Initial assignment among assignable members: health skips down and
	// draining workers at planning time. With no assignable worker at all
	// the whole sweep runs coordinator-local.
	place(subset, func(node string) bool { return !f.health.Assignable(node) }, 0, nil, 0)

	var (
		received = make([]*PointEvent, total) // by global index, each as delivered
		next     = 0                          // position in subset of the next point fn is owed
		firstErr error
	)
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			cancel() // tear down the remaining shards
		}
	}
	for active > 0 {
		m := <-ch
		switch {
		case m.done:
			active--
			w := m.shard.worker
			if m.err == nil {
				m.shard.span.Attr("status", "ok").End()
				if w != localWorker {
					f.health.ReportSuccess(w)
				}
				continue
			}
			m.shard.span.Attr("status", "error").Attr("error", m.err.Error()).End()
			if w == localWorker {
				// Local execution is the last resort; its failure is the
				// job's failure.
				fail(fmt.Errorf("service: degraded local execution: %w", m.err))
				continue
			}
			if firstErr != nil || ctx.Err() != nil {
				continue // torn down from this side: it says nothing about the worker
			}
			if own := ownFailure(m.err); own != nil {
				// The worker ran (or refused) the shard and answered with the
				// query's own error. It did its work, and any other worker —
				// or this coordinator — would answer the same: fail the job
				// in the worker's words, without failover.
				fail(own)
				continue
			}
			s.tel.workerFailures.Inc()
			f.health.ReportFailure(w, m.err)
			// Failover: re-plan only this shard's undelivered indices.
			// Points already streamed (committed or pending in the
			// reorder buffer) are complete, deterministic outcomes — a
			// worker that died after delivering its last point but
			// before its result line cost the job nothing.
			var rem []int
			for _, gi := range m.shard.points {
				if received[gi] == nil {
					rem = append(rem, gi)
				}
			}
			if len(rem) == 0 {
				continue
			}
			attempt := m.shard.attempt + 1
			tried := make(map[string]bool, len(m.shard.tried)+1)
			for t := range m.shard.tried {
				tried[t] = true
			}
			tried[w] = true
			if attempt > f.maxShardRetries {
				launchLocal(rem)
				continue
			}
			// Next ring owner among healthy, untried members — per key,
			// since the failed owner's keys spread over the survivors. The
			// skip predicate is key-independent, so either every key finds
			// an owner or none does: when none does (every untried member
			// is unhealthy too), forget the tried history and accept any
			// reachable member except the one that just failed — after the
			// backoff, a previously-failed worker may well have recovered,
			// and trying it beats degrading to local execution while
			// retry budget remains.
			skip := func(node string) bool {
				return tried[node] || !f.health.Assignable(node)
			}
			if _, any := f.ring.OwnerSkipping(keys[rem[0]], skip); !any {
				tried = map[string]bool{w: true}
				skip = func(node string) bool {
					return tried[node] || !f.health.Reachable(node)
				}
			}
			place(rem, skip, attempt, tried, f.backoff(attempt))

		case firstErr != nil:
			// Already failing: drain without committing.

		default:
			ev := m.ev
			if ev.Index < 0 || ev.Index >= total {
				fail(fmt.Errorf("service: worker %s streamed out-of-range point index %d", m.shard.worker, ev.Index))
				continue
			}
			if received[ev.Index] != nil {
				// Outcomes are deterministic per cache key, so a
				// duplicate delivery (possible only in pathological
				// failover interleavings) is identical — keep the first.
				continue
			}
			ev.Worker = m.shard.worker
			received[ev.Index] = ev
			// Hand on the contiguous run: outcomes leave in subset order,
			// the order each worker's own commit path follows.
			for ; next < len(subset) && received[subset[next]] != nil; next++ {
				gi := subset[next]
				fn(eventOutcome(points[gi], *received[gi]), received[gi].Worker)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return err // job cancelled: report it as such, not as a torn stream
	}
	if firstErr != nil {
		return firstErr
	}
	if next != len(subset) {
		return fmt.Errorf("service: fleet streams ended after %d/%d points", next, len(subset))
	}
	return nil
}

// stream posts one shard and forwards its point events to ch, always
// terminating with exactly one done message. The terminal send is
// unconditionally blocking: the merge loop drains ch until every stream
// has reported done, so the send always completes — bailing out on ctx
// here instead would leak the done message and wedge the merge. An idle
// watchdog bounds the gap between NDJSON events: a worker that accepted
// the shard and then hung (no events, connection alive) is treated as
// failed so the merge can re-plan, instead of stalling the job forever.
func (f *fleet) stream(ctx context.Context, sh *shard, query string, trials int, ch chan<- fleetMsg) {
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
	err := c.Query(sctx, sh.worker, QueryRequest{Query: query, Trials: trials, Points: sh.points}, func(ev *Event) error {
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
	ch <- fleetMsg{shard: sh, err: err, done: true}
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
// the same sweep would.
func eventOutcome(p design.Point, ev PointEvent) core.PointOutcome {
	out := core.PointOutcome{
		Point:     p,
		Index:     ev.Index,
		Pruned:    ev.Pruned,
		Screened:  ev.Screened,
		FromCache: ev.Cached,
		AllMet:    ev.AllMet,
	}
	if !ev.Pruned {
		out.Result = &core.RunResult{
			Metrics:     ev.Metrics,
			Trials:      ev.Trials,
			EventsTotal: ev.Events,
		}
	}
	return out
}

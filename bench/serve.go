package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/wtql"
)

// serveShape is what distinguishes the two serving workloads.
type serveShape struct {
	warmQueries int  // distinct pre-run sweeps the warm requests draw from
	clients     int  // closed-loop clients; each sends its next request when the last one completes
	durable     bool // journal + disk cache tier + a 64-entry memory tier
	freshEvery  int  // every n-th request is a never-seen seed (0 = none)
	warmUp      int  // untimed requests before the window
}

func shapeOf(cfg config) serveShape {
	if cfg.workload == serveWarm {
		// 32 sweeps x 8 points = 256 keys < the 512-entry memory tier:
		// every lookup hits memory and nothing simulates. The clients
		// share the daemon's cores, so they leave it one: with P clients
		// on P cores every stolen time slice of this kind of host queues
		// a request, and the median latency of back-to-back minutes read
		// 0.55 to 0.84 ms.
		return serveShape{warmQueries: 32, clients: max(1, cfg.procs-1), warmUp: 500}
	}
	// 64 sweeps x 8 points = 512 keys, 8x the memory tier, so warm
	// requests read the disk tier; one client, so a latency is a service
	// time and not queueing between a fresh and a warm request.
	return serveShape{warmQueries: 64, clients: 1, durable: true, freshEvery: 5, warmUp: 100}
}

// freshSeedOffset keeps fresh queries' scenario seeds clear of the warm
// set's.
const freshSeedOffset = 1000

// serveRun is one serving run's state: the daemon, the warm set with its
// library-path tables, and what the clients saw.
type serveRun struct {
	cfg   config
	shape serveShape
	out   *outcome
	dir   string // journal and cache directories live here (durable only)
	svc   service.Config
	d     *daemon

	texts []string // warm queries
	ref   []string // their tables from wtql.Engine.Execute, no cache

	mu        sync.Mutex
	acked     []string                     // durable job ids in acknowledgement order
	streams   map[string][sha256.Size]byte // job id -> hash of the stream the client read
	fresh     []freshQuery                 // every fresh query sent, in order
	nextFresh int
}

type freshQuery struct {
	text  string
	table string
}

// setUp starts a daemon on empty directories, computes the reference
// tables, runs every warm query once so its points are cached, and sends
// the warm-up requests. It releases the previous attempt's daemon first.
func (s *serveRun) setUp(attempt int) error {
	if s.d != nil {
		s.d.stop()
		os.RemoveAll(s.dir)
	}
	s.svc = service.Config{PoolSize: s.cfg.procs}
	if s.shape.durable {
		s.dir = filepath.Join(s.cfg.tmp, fmt.Sprintf("%s-%t-%d", s.cfg.workload, s.cfg.trace, attempt))
		s.svc.JournalDir = filepath.Join(s.dir, "journal")
		s.svc.CacheDir = filepath.Join(s.dir, "cache")
		s.svc.CacheEntries = 64
	}
	d, err := startDaemon(s.svc)
	if err != nil {
		return err
	}
	s.d = d
	s.acked, s.streams, s.fresh, s.nextFresh = nil, map[string][sha256.Size]byte{}, nil, 0

	s.texts, s.ref = nil, nil
	lib := &wtql.Engine{TrialWorkers: 1}
	for k := 0; k < s.shape.warmQueries; k++ {
		text := serveQuery(s.cfg.seed, k).text()
		rs, err := lib.Execute(text)
		if err != nil {
			return fmt.Errorf("library path: %w", err)
		}
		s.texts = append(s.texts, text)
		s.ref = append(s.ref, rs.Render())
	}
	for k := range s.texts {
		if _, err := s.send(k); err != nil {
			return fmt.Errorf("pre-run: %w", err)
		}
	}
	pick := s.picker(0)
	for i := 0; i < s.shape.warmUp; i++ {
		if _, err := s.send(pick()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// send issues warm query k, or a fresh query when k < 0, and remembers
// what a later check needs.
func (s *serveRun) send(k int) (reply, error) {
	text := ""
	if k >= 0 {
		text = s.texts[k]
	} else {
		s.mu.Lock()
		text = serveQuery(s.cfg.seed, freshSeedOffset+s.nextFresh).text()
		s.nextFresh++
		s.mu.Unlock()
	}
	r, err := s.d.query(text)
	if err != nil {
		return r, err
	}
	s.mu.Lock()
	if s.shape.durable {
		s.acked = append(s.acked, r.job)
		s.streams[r.job] = r.stream
	}
	if k < 0 {
		s.fresh = append(s.fresh, freshQuery{text, r.table})
	}
	s.mu.Unlock()
	return r, nil
}

// picker returns client c's request sequence: the index of a warm query,
// or -1 for a fresh one. serve_warm cycles over the warm set from a
// per-client offset; serve_durable_mixed draws warm queries Zipf(1.1)
// and makes every freshEvery-th request fresh.
func (s *serveRun) picker(c int) func() int {
	n := s.shape.warmQueries
	i := 0
	if s.shape.freshEvery == 0 {
		return func() int {
			i++
			return (c*n/s.shape.clients + i) % n
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(int64(s.cfg.seed)*31+int64(c))), 1.1, 1, uint64(n-1))
	return func() int {
		i++
		if i%s.shape.freshEvery == 0 {
			return -1
		}
		return int(zipf.Uint64())
	}
}

// graftEvery is how often the traced run fetches the daemon's own spans
// for a request: about every 50th, and coprime to the fresh period so
// that both kinds of request are sampled.
const graftEvery = 49

// sample is one timed request: its latency as the client saw it, and
// that latency corrected for the host's speed.
type sample struct {
	fresh            bool
	totalMS, admitMS float64
	correctedMS      float64
}

// roundLength is how long the clients of an untraced window run between
// two host-speed samples: short enough for the samples to follow the
// host, long enough for the 13 ms they take to stay a twentieth of the
// window.
const roundLength = 250 * time.Millisecond

// window runs the closed loop for d and returns every request's timing
// and, in seconds, how long the requests took between them. A failed
// request, a wrong table or a wrong cache-hit count is a failed operation.
//
// An untraced window is a series of rounds with a host-speed sample after
// each, and its times are corrected by them. A traced window is one round
// with no samples, which would show in the profile; each request is
// recorded as a span tree and every graftEvery-th one has the daemon's
// own job spans grafted under it.
func (s *serveRun) window(d time.Duration, trace bool) ([]sample, float64) {
	picks := make([]func() int, s.shape.clients)
	for c := range picks {
		picks[c] = s.picker(c)
	}
	sent := make([]int, s.shape.clients)
	var (
		all     []sample
		elapsed float64
	)
	deadline := time.Now().Add(d)
	if !trace {
		s.cfg.ref.begin()
	}
	for first := true; first || time.Now().Before(deadline); first = false {
		end := deadline
		if !trace {
			end = time.Now().Add(roundLength)
		}
		t0 := time.Now()
		got := s.round(end, picks, sent, trace)
		wall := time.Since(t0).Seconds()
		slowdown := 1.0
		if !trace {
			slowdown = s.cfg.ref.slowdown()
		}
		for i := range got {
			got[i].correctedMS = got[i].totalMS / slowdown
		}
		all = append(all, got...)
		elapsed += wall / slowdown
	}
	return all, elapsed
}

// round runs every client until end: client c sends picks[c]'s requests,
// each when its last one has completed, and counts them in sent[c].
func (s *serveRun) round(end time.Time, picks []func() int, sent []int, trace bool) []sample {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []sample
	)
	for c := range picks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for first := true; first || time.Now().Before(end); first = false {
				k := picks[c]()
				sent[c]++
				r, err := s.send(k)
				if err != nil {
					s.out.op("request: " + err.Error())
					continue
				}
				s.out.op(s.checkReply(k, r))
				mine = append(mine, sample{fresh: k < 0, totalMS: ms(r.total), admitMS: ms(r.admit)})
				if trace {
					s.recordRequest(r, sent[c]%graftEvery == 1)
				}
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// checkReply verifies one reply: a warm query returns the library
// path's table entirely from the cache, a fresh one simulates every
// point (its table is checked against the library after the window).
func (s *serveRun) checkReply(k int, r reply) string {
	switch {
	case k >= 0 && r.table != s.ref[k]:
		return fmt.Sprintf("%s: table differs from the library path's", r.job)
	case k >= 0 && r.cacheHits != r.executed:
		return fmt.Sprintf("%s: warm query had %d cache hits of %d points", r.job, r.cacheHits, r.executed)
	case k < 0 && r.cacheHits != 0:
		return fmt.Sprintf("%s: fresh query had %d cache hits", r.job, r.cacheHits)
	}
	return ""
}

// recordRequest adds the client's view of a request to the span log:
// request -> {service.http.admit, service.http.stream}, and optionally
// the daemon's job spans (job, cache_hit, simulate, journal_append)
// under it.
func (s *serveRun) recordRequest(r reply, graft bool) {
	rec := s.cfg.spans
	op := rec.newOp()
	root := rec.add(op, 0, "request", r.start, r.total)
	rec.add(op, root, "service.http.admit", r.start, r.admit)
	rec.add(op, root, "service.http.stream", r.start.Add(r.admit), r.total-r.admit)
	if !graft {
		return
	}
	spans, err := s.d.jobSpans(r.job)
	if err != nil {
		return // the tracer keeps a bounded number of traces; a miss is not a failure
	}
	ids := map[string]int{}
	for _, sp := range spans { // sorted by start, so parents come first
		parent, ok := ids[sp.Parent]
		if !ok {
			parent = root
		}
		ids[sp.SpanID] = rec.add(op, parent, "service.span."+sp.Name, sp.Start, sp.Duration)
	}
}

func runServe(cfg config) (*outcome, error) {
	s := &serveRun{cfg: cfg, shape: shapeOf(cfg), out: newOutcome()}
	attempt := 0
	setupS, err := timeSetUp(cfg, func() error {
		attempt++
		return s.setUp(attempt)
	})
	defer func() {
		if s.d != nil {
			s.d.stop()
		}
	}()
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	m := s.out.metrics

	if !cfg.trace {
		before := cfg.ref.allocatedElsewhere()
		samples, elapsed := s.window(window, false)
		allocated := cfg.ref.allocatedElsewhere() - before
		if len(samples) == 0 {
			return nil, fmt.Errorf("no request succeeded: %v", s.out.problems)
		}
		opMS := make([]float64, len(samples))
		for i, sm := range samples {
			opMS[i] = sm.correctedMS
		}
		s.out.setEndToEnd(cfg, setupS, opMS, elapsed, allocated)
		if err := s.afterWindow(); err != nil {
			return nil, err
		}
		return s.out, nil
	}

	// Traced run: two thirds of the window traced, profiled and scraped,
	// bracketed by two untraced sixths that are the reference for the
	// tracing overhead (before and after, so that a drifting host
	// cancels).
	plain, _ := s.window(window/6, false)
	before, err := s.d.scrape()
	if err != nil {
		return nil, err
	}
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced, elapsed := s.window(2*window/3, true)
	shares, cpuSamples, perr := prof.stop()
	if perr != nil {
		return nil, perr
	}
	after, err := s.d.scrape()
	if err != nil {
		return nil, err
	}
	plainAfter, _ := s.window(window/6, false)
	plain = append(plain, plainAfter...)
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("no request succeeded: %v", s.out.problems)
	}
	setCPUShares(m, shares, cpuSamples)
	s.tracedMetrics(traced, before, after, elapsed)
	m.set("trace.overhead_pct", 100*(m["service.warm_p50_ms"].Value/median(latencies(plain, false))-1), len(traced))
	m.set("host.slowdown", median(cfg.ref.factors), len(cfg.ref.factors))
	if err := s.afterWindow(); err != nil {
		return nil, err
	}
	checkLayerSeparation(cfg.workload, s.out)
	return s.out, nil
}

// latencies selects the total latency of the fresh or the warm requests.
func latencies(samples []sample, fresh bool) []float64 {
	var out []float64
	for _, sm := range samples {
		if sm.fresh == fresh {
			out = append(out, sm.totalMS)
		}
	}
	return out
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/wtql"
)

// tracedMetrics turns the traced window's client timings, the scrape
// deltas around it and the grafted job spans into per-layer metrics.
func (s *serveRun) tracedMetrics(samples []sample, before, after scrape, elapsed float64) {
	m := s.out.metrics
	warm, fresh := latencies(samples, false), latencies(samples, true)
	var admit, stream []float64
	for _, sm := range samples {
		if !sm.fresh {
			admit = append(admit, sm.admitMS)
			stream = append(stream, sm.totalMS-sm.admitMS)
		}
	}
	queries := float64(len(samples))
	m.set("service.warm_p50_ms", median(warm), len(warm))
	m.set("service.warm_p99_ms", quantile(warm, 0.99), len(warm))
	if len(fresh) > 0 {
		m.set("service.fresh_p50_ms", median(fresh), len(fresh))
		m.set("service.fresh_p95_ms", quantile(fresh, 0.95), len(fresh))
	}
	m.set("service.http.admit_ms", median(admit), len(admit))
	m.set("service.http.stream_ms", median(stream), len(stream))

	hits := float64(after.cache.Hits - before.cache.Hits)
	disk := float64(after.cache.DiskHits - before.cache.DiskHits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	if lookups := hits + misses; lookups > 0 {
		m.set("service.cache.mem_hit_share", (hits-disk)/lookups, int(lookups))
		m.set("service.cache.disk_hit_share", disk/lookups, int(lookups))
		m.set("service.cache.miss_share", misses/lookups, int(lookups))
	}
	m.set("service.cache.evictions_per_query", float64(after.cache.Evictions-before.cache.Evictions)/queries, len(samples))

	delta := func(series string) float64 { return after.metrics[series] - before.metrics[series] }
	if s.shape.durable {
		m.set("service.journal.appends_per_query", delta("wt_journal_appends_total")/queries, len(samples))
		m.set("service.journal.fsync_ms_per_query", 1000*delta("wt_journal_fsync_seconds_sum")/queries, len(samples))
	}
	m.set("service.pool.wait_ms_per_query", 1000*delta("wt_pool_wait_seconds_sum")/queries, len(samples))
	m.set("service.sim_trials", delta("wt_sim_trials_total"), 0)
	m.set("service.sim_events", delta("wt_sim_events_total"), 0)
	m.set("service.points_per_s", delta("wt_points_committed_total")/elapsed, int(delta("wt_points_committed_total")))
	m.set("runtime.heap_peak_mb", float64(max(before.heap, after.heap))/(1<<20), 2)

	// Wasted-work check: a warm query simulates nothing, a fresh one
	// exactly its 8 points x 2 trials.
	problem := ""
	if want := 16 * float64(len(fresh)); delta("wt_sim_trials_total") != want {
		problem = fmt.Sprintf("daemon simulated %v trials in the traced window, want %v", delta("wt_sim_trials_total"), want)
	}
	s.out.op(problem)

	self := s.cfg.spans.selfTimeByOp()
	for _, name := range []string{"job", "cache_hit", "simulate", "journal_append"} {
		if xs := self["service.span."+name]; len(xs) > 0 {
			m.set("service.span."+name+"_ms", median(xs), len(xs))
		}
	}
}

// afterWindow runs what follows the measured window: the library check
// of fresh tables, on the traced run the direct calls into single
// layers, and on the durable workload the restart-and-recover check.
func (s *serveRun) afterWindow() error {
	// Every 10th fresh query against the library path.
	lib := &wtql.Engine{TrialWorkers: 1}
	for i := 0; i < len(s.fresh); i += 10 {
		rs, err := lib.Execute(s.fresh[i].text)
		if err != nil {
			return fmt.Errorf("library path: %w", err)
		}
		problem := ""
		if rs.Render() != s.fresh[i].table {
			problem = fmt.Sprintf("fresh query %d: table differs from the library path's", i)
		}
		s.out.op(problem)
	}
	if s.cfg.trace {
		if err := s.directCalls(); err != nil {
			return err
		}
	}
	if s.shape.durable {
		return s.durabilityCheck()
	}
	return nil
}

// directCalls times single layers on the workload's own data, outside
// the daemon: the query layer's entry points, Cache.Get on a resident
// key and, with a disk tier, Get after eviction, Put, and a journal
// point record. service.overhead_ms is what remains of a warm request
// after all of them: HTTP, NDJSON encoding, the job registry and the
// goroutine hand-offs.
func (s *serveRun) directCalls() error {
	m := s.out.metrics
	cache := s.d.srv.Cache()
	eng := &wtql.Engine{TrialWorkers: 1, Cache: cache}
	q, err := wtql.Parse(s.texts[0])
	if err != nil {
		return err
	}
	plan, err := eng.Plan(q)
	if err != nil {
		return err
	}
	keys, err := plan.PointKeys()
	if err != nil {
		return err
	}
	outcomes, err := explore(plan, nil)
	if err != nil {
		return err
	}
	m.set("design.points_per_sweep", float64(plan.NumPoints()), 0)
	if err := directWTQL(eng, s.texts[0], outcomes, m); err != nil {
		return err
	}

	const batch = 100
	get := perCall(50, batch, func(int) { cache.Get(keys[0]) })
	m.set("service.cache.get_us", get, 50*batch)
	pointUS := 0.0
	if s.shape.durable {
		res := outcomes[0].Result
		dir := filepath.Join(s.dir, "direct")
		// A one-entry memory tier: every Get of the other key is a disk
		// read plus a promotion.
		small, err := service.NewCache(1, filepath.Join(dir, "cache1"))
		if err != nil {
			return err
		}
		small.Put(keys[0], res)
		small.Put(keys[1], res)
		m.set("service.cache.get_disk_us", perCall(200, 1, func(i int) { small.Get(keys[i%2]) }), 200)
		big, err := service.NewCache(64, filepath.Join(dir, "cache2"))
		if err != nil {
			return err
		}
		m.set("service.cache.put_us", perCall(50, 1, func(i int) { big.Put(fakeKey(i), res) }), 50)

		jr, err := service.OpenJournal(filepath.Join(dir, "journal"))
		if err != nil {
			return err
		}
		jj, err := jr.Begin("job-1", s.texts[0], 0, time.Now())
		if err != nil {
			return err
		}
		po := outcomes[0]
		line, err := json.Marshal(service.PointEvent{Type: "point", Done: 1, Total: len(keys), Config: map[string]string{},
			Metrics: po.Result.Metrics, Trials: po.Result.Trials, Events: po.Result.EventsTotal, Cached: true, AllMet: po.AllMet})
		if err != nil {
			return err
		}
		var perr error
		pointUS = perCall(50, 1, func(i int) {
			if err := jj.Point(i, keys[0], line); err != nil {
				perr = err
			}
		})
		jj.Close()
		if perr != nil {
			return fmt.Errorf("journal point: %w", perr)
		}
		m.set("service.journal.point_us", pointUS, 50)
	}

	v := func(name string) float64 { return m[name].Value }
	points := float64(len(keys))
	accounted := v("wtql.parse_us") + v("wtql.plan_us") + points*(v("core.cache_key_us")+get+pointUS) +
		v("wtql.assemble_us") + v("wtql.render_us")
	m.set("service.overhead_ms", v("service.warm_p50_ms")-accounted/1000, 0)

	var took []float64
	series := 0
	for i := 0; i < 5; i++ {
		sc, err := s.d.scrape()
		if err != nil {
			return err
		}
		took = append(took, ms(sc.took))
		series = sc.series
	}
	m.set("obs.scrape_ms", median(took), len(took))
	m.set("obs.series", float64(series), 0)
	return nil
}

// perCall returns the median time of one call to fn, in microseconds,
// over n timed batches of batch calls each.
func perCall(n, batch int, fn func(i int)) float64 {
	var took []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn(i*batch + j)
		}
		took = append(took, us(time.Since(t0))/float64(batch))
	}
	return median(took)
}

// fakeKey is a well-formed cache key no real scenario hashes to.
func fakeKey(i int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("bench-put-%d", i)))
	return hex.EncodeToString(h[:])
}

// durabilityCheck closes the daemon and starts a new one on the same
// journal and cache directories. After Recover, every job the first
// daemon acknowledged and still retained must replay its stream byte
// for byte, and re-sending fresh queries must be answered from the disk
// cache without simulating a single trial.
func (s *serveRun) durabilityCheck() error {
	m := s.out.metrics
	s.d.stop()
	s.d = nil

	t0 := time.Now()
	srv, err := service.New(s.svc)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	resumed, _, err := srv.Recover()
	if err != nil {
		srv.Close()
		return fmt.Errorf("recover: %w", err)
	}
	recoverMS := ms(time.Since(t0))
	ts := httptest.NewServer(srv.Handler())
	s.d = &daemon{srv: srv, ts: ts, client: ts.Client()}

	problem := ""
	if resumed != 0 {
		problem = fmt.Sprintf("recover resumed %d job(s); every job had been acknowledged as done", resumed)
	}
	s.out.op(problem)

	// The registry keeps the newest 1024 finished jobs and deletes the
	// journals of older ones, so those are the jobs that can replay.
	const retained = 1000
	recent := s.acked[max(0, len(s.acked)-retained):]
	for _, job := range recent {
		got, err := s.d.replay(job)
		problem := ""
		switch {
		case err != nil:
			problem = fmt.Sprintf("%s: replay after restart: %v", job, err)
		case got != s.streams[job]:
			problem = fmt.Sprintf("%s: replayed stream differs from the one acknowledged", job)
		}
		s.out.op(problem)
	}

	before, err := s.d.scrape()
	if err != nil {
		return err
	}
	step := max(1, len(s.fresh)/100)
	for i := 0; i < len(s.fresh); i += step {
		r, err := s.d.query(s.fresh[i].text)
		problem := ""
		switch {
		case err != nil:
			problem = fmt.Sprintf("fresh query %d after restart: %v", i, err)
		case r.cacheHits != r.executed:
			problem = fmt.Sprintf("fresh query %d after restart: %d cache hits of %d points", i, r.cacheHits, r.executed)
		case r.table != s.fresh[i].table:
			problem = fmt.Sprintf("fresh query %d after restart: table differs", i)
		}
		s.out.op(problem)
	}
	after, err := s.d.scrape()
	if err != nil {
		return err
	}
	problem = ""
	if n := after.metrics["wt_sim_trials_total"] - before.metrics["wt_sim_trials_total"]; n != 0 {
		problem = fmt.Sprintf("restarted daemon simulated %v trials for queries already answered", n)
	}
	s.out.op(problem)

	if s.cfg.trace {
		jobs, journalBytes, err := dirUsage(s.svc.JournalDir, ".wtj")
		if err != nil {
			return err
		}
		entries, cacheBytes, err := dirUsage(s.svc.CacheDir, ".json")
		if err != nil {
			return err
		}
		if jobs > 0 {
			m.set("service.journal.recover_ms_per_job", recoverMS/float64(jobs), jobs)
			// Journals of evicted jobs are gone; the rest hold 8 points each.
			m.set("service.journal.bytes_per_point", float64(journalBytes)/float64(8*jobs), 8*jobs)
		}
		if entries > 0 {
			m.set("service.cache.disk_bytes_per_entry", float64(cacheBytes)/float64(entries), entries)
		}
	}
	return nil
}

// dirUsage counts the files with the given suffix directly under dir
// and their total size.
func dirUsage(dir, suffix string) (files int, bytes int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		files++
		bytes += info.Size()
	}
	return files, bytes, nil
}

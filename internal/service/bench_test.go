package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wtql"
)

// benchQuery is a 3-point sweep; after the first iteration every point
// is a trial-cache hit, so steady-state iterations measure the serving
// path (HTTP + NDJSON + job bookkeeping + cache lookups), not the
// simulator.
const benchQuery = `SIMULATE availability
VARY cluster.nodes IN (5, 6, 7)
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200
WHERE sla.availability >= 0.2`

// serveWarmQuery is the 8-point sweep bench/'s serve_warm workload sends
// (its k = 0 query for seed 1).
const serveWarmQuery = `SIMULATE availability
VARY storage.replication IN (2, 3), cluster.nodes_per_rack IN (4, 6), storage.placement IN ('random', 'roundrobin')
WITH cluster.racks = 2, users = 20, object_mb = 10, trials = 2, horizon_hours = 200,
     node.ttf = 'exp(mean=500)', node.repair = 'det(12)', seed = 1000
WHERE sla.availability >= 0.9 ORDER BY cost.total ASC`

// BenchmarkServiceQueryThroughput measures end-to-end queries/second of
// the daemon with a warm trial cache: the 3-point sweep the benchmark
// trajectory has always tracked, and the serve_warm shape, whose B/op and
// allocs/op (client side included) are what bench/'s alloc_kb_per_op
// follows.
func BenchmarkServiceQueryThroughput(b *testing.B) {
	for _, c := range []struct{ name, query string }{
		{"points=3", benchQuery},
		{"serve_warm", serveWarmQuery},
	} {
		b.Run(c.name, func(b *testing.B) {
			_, ts := newTestServer(b, Config{PoolSize: 4})
			body := mustJSON(b, QueryRequest{Query: c.query})
			postBench(b, ts.URL, body) // warm the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postBench(b, ts.URL, body)
			}
		})
	}
}

// postBench posts one query and drains the stream, requiring a
// terminal result event. It reads the stream as bench/daemon.go's client
// does — the scanner grows its buffer from 4 KB as lines need, and the
// terminal line is decoded into a struct holding the fields the client
// reads, not into a map of everything — so its B/op is bench's.
func postBench(b *testing.B, url string, body []byte) {
	b.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	resp.Body.Close()
	var final struct {
		Type  string `json:"type"`
		Table string `json:"table"`
	}
	if err := json.Unmarshal(last, &final); err != nil || final.Type != "result" || final.Table == "" {
		b.Fatalf("stream ended with %s (%v)", last, err)
	}
}

// BenchmarkFleetQueryThroughput measures end-to-end queries/second of a
// 2-worker fleet behind a coordinator with warm worker caches — the
// serving path plus the shard fan-out, stream merge and reassembly.
func BenchmarkFleetQueryThroughput(b *testing.B) {
	_, cts, _, _ := startFleet(b, 2, false)
	body := mustJSON(b, QueryRequest{Query: benchQuery})

	postBench(b, cts.URL, body) // warm the worker caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBench(b, cts.URL, body)
	}
}

// BenchmarkFleet100ConcurrentClients is the load-harness shape as a
// tracked benchmark: at least 100 concurrent closed-loop clients
// hammering a 2-worker fleet's coordinator with a cache-warm sweep.
// queries/s is reported as a custom metric.
func BenchmarkFleet100ConcurrentClients(b *testing.B) {
	_, cts, _, _ := startFleet(b, 2, false)
	body := mustJSON(b, QueryRequest{Query: benchQuery})
	postBench(b, cts.URL, body) // warm the worker caches

	// RunParallel spawns SetParallelism(p) * GOMAXPROCS goroutines;
	// round up so at least 100 clients run regardless of core count.
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((100 + procs - 1) / procs)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			postBench(b, cts.URL, body)
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkJournalAppend measures a durable commit of `records` points
// that arrive together: frame each (length + CRC) into the open batch,
// then wait for the last to reach the disk. records=1 is the old
// record-at-a-time cost — one write, one fsync; records=8 is a warm
// sweep's worth, and fsyncs/op says how many flushes they shared (the
// first may leave alone if the committer is idle, the rest follow in
// one). This is the number behind EXPERIMENTS.md E16's and E21's journal
// overhead claims.
func BenchmarkJournalAppend(b *testing.B) {
	line := []byte(`{"type":"point","done":1,"total":3,"index":0,"config":{"cluster.nodes":"5"},"metrics":{"availability":0.9991},"trials":2,"all_met":true}`)
	const key = "0123456789abcdef0123456789abcdef"
	for _, records := range []int{1, 8} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			j, err := OpenJournal(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			fsyncs := obs.NewRegistry().Histogram("fsync_seconds", "Flushes.", obs.DurationBuckets)
			j.instrument(nil, fsyncs)
			jj, err := j.Begin("job-1", benchQuery, 2, time.Unix(1700000000, 0))
			if err != nil {
				b.Fatal(err)
			}
			defer jj.Close()
			jj.sync() // the begin record's flush is not a point's cost
			before, index := fsyncs.Count(), 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 1; r < records; r++ {
					jj.enqueue(pointRecord(index, key, line), logLine{'p', line}, nil)
					index++
				}
				if err := jj.Point(index, key, line); err != nil {
					b.Fatal(err)
				}
				index++
			}
			b.ReportMetric(float64(fsyncs.Count()-before)/float64(b.N), "fsyncs/op")
		})
	}
}

// BenchmarkDurableQueryThroughput is BenchmarkServiceQueryThroughput
// with journaling on: end-to-end queries/second of the durable path
// (detached execution, group-committed WAL records, stream replay from
// the job log) with a warm trial cache.
func BenchmarkDurableQueryThroughput(b *testing.B) {
	_, ts := newTestServer(b, Config{PoolSize: 4, JournalDir: b.TempDir()})
	body := mustJSON(b, QueryRequest{Query: benchQuery})

	postBench(b, ts.URL, body) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBench(b, ts.URL, body)
	}
}

// BenchmarkTrialCacheHit measures a full WTQL sweep served entirely from
// the memory tier of the trial cache — the cost of a 100%-hit repeat
// query without HTTP in the way.
func BenchmarkTrialCacheHit(b *testing.B) {
	cache, err := NewCache(64, "")
	if err != nil {
		b.Fatal(err)
	}
	mk := func() *wtql.Engine { return &wtql.Engine{Trials: 2, Cache: cache} }
	if _, err := mk().Execute(benchQuery); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := mk().Execute(benchQuery)
		if err != nil {
			b.Fatal(err)
		}
		if rs.CacheHits != rs.Executed {
			b.Fatalf("iteration missed the cache: %d/%d", rs.CacheHits, rs.Executed)
		}
	}
}

// Command wtload is a closed-loop load harness for windtunneld: N
// concurrent clients each issue WTQL queries back-to-back against a
// daemon (or a fleet coordinator) and the harness reports throughput,
// the latency distribution, and the server's cache statistics — the
// numbers behind the "wind tunnel as a shared service" claim: once the
// trial cache is warm, a hundred designers asking what-if questions at
// once are served from remembered trials, not fresh simulation.
//
// Usage:
//
//	wtload -server http://localhost:8866 -clients 100 -requests 300
//	wtload -server http://localhost:8866 -q "SIMULATE ..." -clients 100
//
// Each request POSTs the query to /v1/query and consumes the whole
// NDJSON stream; a request counts as successful only when the stream
// terminates with a result event, after up to -retries retried
// attempts. A stream that dies mid-flight after the server accepted the
// job is picked up again at the last event received (service.Client's
// resume protocol, shared with wtql) — a reconnect-then-success still
// counts as exactly one successful request, reported separately in the
// resumed-vs-fresh split. The
// report includes retry totals, an error breakdown and the slowest
// request; the exit status is non-zero when any request ultimately
// failed. The default query is a small replication sweep so every
// client resolves to the same cache keys — the worst case for lock
// contention and the best case for reuse.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
)

// defaultQuery is a 4-point sweep, small enough that a cold run
// finishes in seconds yet large enough to exercise streaming, sharding
// and the cache.
const defaultQuery = `SIMULATE availability
VARY storage.replication IN (2, 3), cluster.racks IN (4, 8)
WITH trials = 3, users = 20, seed = 7`

func main() {
	server := flag.String("server", "http://localhost:8866", "windtunneld (or coordinator) base URL")
	query := flag.String("q", defaultQuery, "WTQL query every client issues")
	clients := flag.Int("clients", 100, "concurrent clients")
	requests := flag.Int("requests", 0, "total requests across all clients (0 = one per client)")
	timeout := flag.Duration("timeout", 5*time.Minute, "abort the whole run after this duration")
	retries := flag.Int("retries", 2, "per-request retries before a request counts as failed")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	if !run(ctx, *server, *query, *clients, *requests, *retries, os.Stdout, os.Stderr) {
		os.Exit(1)
	}
}

// run drives the load and prints the report to stdout (banner lines to
// stderr), reporting whether every request ultimately succeeded.
func run(ctx context.Context, server, query string, clients, requests, retries int, stdout, stderr io.Writer) bool {
	if requests <= 0 {
		requests = clients
	}
	if requests < clients {
		clients = requests
	}
	base := strings.TrimRight(server, "/")
	var client service.Client

	fmt.Fprintf(stderr, "wtload: %d requests, %d concurrent clients -> %s\n", requests, clients, base)
	if v := serverVersion(ctx, client, base); v != "" {
		fmt.Fprintf(stderr, "wtload: server %s\n", v)
	}

	var (
		next        atomic.Int64
		okCount     atomic.Int64
		okResumed   atomic.Int64 // successes that needed a mid-stream reconnect
		failCount   atomic.Int64
		retryCount  atomic.Int64
		resumeCount atomic.Int64 // reconnects to a job already admitted (not full retries)
		mu          sync.Mutex
		latencies   []time.Duration
		errCounts   = map[string]int64{}
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if next.Add(1) > int64(requests) || ctx.Err() != nil {
					return
				}
				// One request = up to 1+retries attempts; it ultimately
				// fails only when every attempt did. Latency covers the
				// whole request including retried attempts — that is what
				// the caller experienced.
				t0 := time.Now()
				var err error
				var resumed bool
				for attempt := 0; attempt <= retries; attempt++ {
					if attempt > 0 {
						retryCount.Add(1)
					}
					var resumes int
					resumes, err = runOnce(ctx, client, base, query)
					resumeCount.Add(int64(resumes))
					if resumes > 0 {
						resumed = true
					}
					if err == nil || ctx.Err() != nil {
						break
					}
				}
				lat := time.Since(t0)
				if err != nil {
					failCount.Add(1)
					mu.Lock()
					errCounts[errKey(err)]++
					mu.Unlock()
					continue
				}
				okCount.Add(1)
				if resumed {
					// Reconnect-then-success is still exactly one
					// successful request; it is only reported separately.
					okResumed.Add(1)
				}
				mu.Lock()
				latencies = append(latencies, lat)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	ok, failed := okCount.Load(), failCount.Load()
	fmt.Fprintf(stdout, "requests:   %d ok, %d failed in %s\n", ok, failed, elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "resumed:    %d ok via reconnect, %d ok fresh (%d stream resumes)\n",
		okResumed.Load(), ok-okResumed.Load(), resumeCount.Load())
	fmt.Fprintf(stdout, "retries:    %d\n", retryCount.Load())
	if ok > 0 {
		fmt.Fprintf(stdout, "throughput: %.1f queries/s\n", float64(ok)/elapsed.Seconds())
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		fmt.Fprintf(stdout, "latency:    p50 %s  p95 %s  p99 %s\n",
			pct(latencies, 50), pct(latencies, 95), pct(latencies, 99))
		fmt.Fprintf(stdout, "slowest:    %s\n", latencies[len(latencies)-1].Round(time.Millisecond))
	}
	if len(errCounts) > 0 {
		keys := make([]string, 0, len(errCounts))
		for k := range errCounts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "error:      %dx %s\n", errCounts[k], k)
		}
	}
	printCacheStats(ctx, stdout, client, base)
	return failed == 0
}

// errKey buckets an error for the breakdown: the first line, truncated,
// so a thousand identical failures fold into one report row.
func errKey(err error) string {
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	if len(msg) > 120 {
		msg = msg[:120] + "..."
	}
	return msg
}

// runOnce issues one query and reads its stream to the result event.
// When the connection dies after the server admitted the job, the job is
// picked up again at the cursor (up to maxResumes times): its stream is
// resumed in place — on a journaling daemon the job runs on detached —
// or, if the daemon no longer holds it, the query is sent again with the
// cursor. The returned count is how many reconnects it took (0 = a clean
// single-connection run); the request is one request either way.
func runOnce(ctx context.Context, c service.Client, base, query string) (resumes int, err error) {
	const maxResumes = 3
	s := service.Session{Request: service.QueryRequest{Query: query}}
	for {
		_, err = c.Attempt(ctx, base, &s, func(*service.Event) error { return nil })
		if err == nil || service.Permanent(err) || ctx.Err() != nil || s.Job == "" || resumes >= maxResumes {
			return resumes, err
		}
		resumes++
	}
}

// pct returns the p-th percentile of sorted latencies.
func pct(sorted []time.Duration, p int) time.Duration {
	i := p * len(sorted) / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Round(time.Millisecond)
}

// printCacheStats fetches and prints the server's /v1/cache snapshot —
// on a fleet coordinator this is the coordinator's own (empty) cache,
// so point wtload at a worker to read per-worker hit and peering rates.
func printCacheStats(ctx context.Context, w io.Writer, c service.Client, base string) {
	var st service.CacheResponse
	if c.GetJSON(ctx, base+"/v1/cache", service.MaxReply, &st) != nil {
		return
	}
	fmt.Fprintf(w, "server cache: %d entries, %d hits (%d disk, %d peer), %d misses, %.1f%% hit rate, pool=%d\n",
		st.Entries, st.Hits, st.DiskHits, st.PeerHits, st.Misses, 100*st.HitRate, st.PoolCap)
}

// serverVersion reads the daemon's build identity from /v1/healthz
// ("" when the server predates the version field or is unreachable —
// the load run proceeds either way).
func serverVersion(ctx context.Context, c service.Client, base string) string {
	var hz service.HealthzResponse
	if c.GetJSON(ctx, base+"/v1/healthz", service.MaxReply, &hz) != nil || hz.Version == "" {
		return ""
	}
	v := "windtunneld " + hz.Version + " (" + hz.GoVersion
	if hz.Revision != "" {
		v += ", " + hz.Revision
	}
	return v + ")"
}

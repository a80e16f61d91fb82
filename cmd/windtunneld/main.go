// Command windtunneld is the wind tunnel daemon: a long-running HTTP
// server that executes WTQL queries as concurrent jobs on a shared
// bounded worker pool, streams per-design-point progress and results as
// NDJSON, and reuses completed trial statistics across queries and
// restarts via a content-addressed trial cache.
//
// Usage:
//
//	windtunneld -addr :8866 -pool 8 -cache-dir /var/cache/windtunnel
//
// API:
//
//	POST   /v1/query      {"query": "SIMULATE ...", "trials": 5} -> NDJSON stream
//	GET    /v1/jobs       job listing
//	GET    /v1/jobs/{id}  one job
//	GET    /v1/jobs/{id}/stream?from=N  replay a job's stream from point N, then tail live
//	DELETE /v1/jobs/{id}  cancel a running job
//	GET    /v1/cache      trial-cache and pool statistics
//	GET    /v1/fleet      fleet membership and per-member health
//	GET    /v1/healthz    liveness ("ok", or "draining" during shutdown) + build identity
//	GET    /v1/stats      operational snapshot (build, runtime, pool, cache, jobs)
//	GET    /metrics       Prometheus text exposition
//	GET    /v1/jobs/{id}/trace  the job's distributed trace tree (fleet-merged on a coordinator)
//	GET    /v1/metrics/fleet    merged fleet exposition from telemetry history (per-instance labels)
//	GET    /v1/metrics/history  JSON range query over retained samples (?name=&window=)
//	GET    /v1/alerts     alert rule instances (firing / pending / resolved)
//
// Observability: every serving path is instrumented into a zero-
// dependency metrics registry scraped at /metrics, and every job records
// a distributed trace (plan → shard → simulate/cache-hit → merge →
// journal) that a coordinator propagates to workers via the X-WT-Trace
// header. One telemetry round every -history-interval (default 2s)
// samples the registry into an in-process time-series history (bounded
// rings), probes the fleet members' /v1/healthz — on a coordinator also
// scraping each worker's /metrics into the history labelled per
// instance, so /v1/metrics/fleet serves one merged fleet view and
// /v1/metrics/history serves range queries — and evaluates the built-in
// SLO rules (worker down, sustained queue depth, cache hit ratio
// collapse, slow journal fsyncs, degraded jobs, failover bursts) over
// that history; instances are served at /v1/alerts, transitions are
// logged to stderr, and /v1/healthz carries the firing count.
// -pprof mounts net/http/pprof (plus /metrics and /v1/stats) on a
// separate listener kept off the serving port. cmd/wttop renders a live
// terminal dashboard from these endpoints.
//
// Durability: by default every client-facing query is write-ahead
// journaled under -journal (one record per committed design point,
// carrying its cache key; records are group-committed, and a point is
// fsync'd before any client sees it) and runs detached from the client
// connection. A crashed daemon (kill -9, OOM, power loss) replays the
// journal on restart, resurrects incomplete jobs under their original
// ids, and resumes only the undelivered points; clients reconnect with
// GET /v1/jobs/{id}/stream?from=N and see the committed prefix replayed
// byte-identically. -journal "" turns crash durability off and nothing
// else: a job then dies with the client connection that submitted it and
// is forgotten when the process exits, but it runs through the same
// pipeline, streams the same bytes, and its stream can still be followed
// again (GET /v1/jobs/{id}/stream?from=N) while the daemon retains it.
//
// Fleet mode: a set of workers plus one coordinator form a sharded wind
// tunnel. Every member gets the same -peers list (the worker URLs);
// each worker additionally names itself with -self, enabling cache
// peering, and the coordinator runs with -coordinator, running each
// sweep's design points — MONOTONE sweeps included — on the workers that
// own their cache keys, and committing the outcomes in point order:
//
//	windtunneld -addr :8867 -cache-dir /var/wt/w1 -peers http://h1:8867,http://h2:8867 -self http://h1:8867
//	windtunneld -addr :8867 -cache-dir /var/wt/w2 -peers http://h1:8867,http://h2:8867 -self http://h2:8867
//	windtunneld -addr :8866 -coordinator -peers http://h1:8867,http://h2:8867
//
// The coordinator tolerates worker failures: a torn stream, or one idle
// for two minutes, re-plans only that shard's undelivered points onto the
// surviving workers with exponential backoff, at most three times; when
// no worker can take a shard the coordinator executes the remainder
// itself and flags the job "degraded". A health monitor probes every
// member's /v1/healthz and routes shard planning and cache peering around
// suspect or down members.
//
// On SIGINT/SIGTERM the daemon drains gracefully: new queries are
// refused with 503, in-flight jobs stream to completion within the
// -drain window, then remaining jobs are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8866", "listen address")
	pool := flag.Int("pool", 0, "shared simulation worker slots (0 = GOMAXPROCS)")
	trials := flag.Int("trials", 5, "default trials per configuration (WITH trials overrides)")
	cacheEntries := flag.Int("cache-entries", service.DefaultCacheEntries, "trial cache memory-tier capacity (results)")
	cacheDir := flag.String("cache-dir", "", "trial cache disk tier directory (empty = memory only)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown window for in-flight jobs")
	peers := flag.String("peers", "", "comma-separated fleet worker URLs (same list on every member)")
	self := flag.String("self", "", "this worker's own URL within -peers (enables cache peering)")
	coordinator := flag.Bool("coordinator", false, "coordinator mode: shard queries across -peers workers")
	journal := flag.String("journal", "auto", `job journal directory for crash recovery ("auto" = wtjournal-<addr>; empty = no journal: jobs are not crash-durable)`)
	pprofAddr := flag.String("pprof", "", "mount net/http/pprof (and /metrics, /v1/stats) on this separate address (empty = off)")
	historyInterval := flag.Duration("history-interval", 0, "telemetry round period: history sample, fleet probe and scrape, alert evaluation (0 = 2s)")
	flag.Parse()

	journalDir := *journal
	if journalDir == "auto" {
		// Derive a per-daemon directory from the listen address so
		// multiple daemons sharing a working directory (CI smoke jobs,
		// local fleets) never replay each other's jobs.
		journalDir = "wtjournal-" + strings.NewReplacer(":", "_", "/", "_").Replace(strings.TrimPrefix(*addr, ":"))
	}

	cfg := service.Config{
		Trials:          *trials,
		PoolSize:        *pool,
		CacheEntries:    *cacheEntries,
		CacheDir:        *cacheDir,
		Peers:           splitPeers(*peers),
		Self:            *self,
		Coordinator:     *coordinator,
		JournalDir:      journalDir,
		HistoryInterval: *historyInterval,
	}
	svc, err := service.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer svc.Close()

	// Replay the journal before serving traffic: incomplete jobs from a
	// crashed run resurrect under their original ids and resume only
	// their undelivered points; their streams are resumable the moment
	// the listener is up.
	if journalDir != "" {
		resumed, warns, err := svc.Recover()
		if err != nil {
			fatal(err)
		}
		for _, w := range warns {
			log.Printf("windtunneld: %s", w)
		}
		if resumed > 0 {
			log.Printf("windtunneld: resumed %d interrupted job(s) from journal %s", resumed, journalDir)
		}
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("windtunneld diagnostics (pprof, metrics, stats) on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, svc.DebugHandler()); err != nil &&
				!errors.Is(err, http.ErrServerClosed) {
				log.Printf("windtunneld: diagnostics listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	switch {
	case *coordinator:
		log.Printf("windtunneld coordinating %d workers on %s: %s",
			len(cfg.Peers), *addr, strings.Join(cfg.Peers, ", "))
	case len(cfg.Peers) > 0:
		log.Printf("windtunneld listening on %s (pool=%d, cache=%d entries, disk=%q, peering as %s)",
			*addr, svc.Pool().Cap(), *cacheEntries, *cacheDir, *self)
	default:
		log.Printf("windtunneld listening on %s (pool=%d, cache=%d entries, disk=%q)",
			*addr, svc.Pool().Cap(), *cacheEntries, *cacheDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	log.Printf("windtunneld draining (up to %s)...", *drain)
	svc.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// Drain window expired: cancel whatever is still running so the
		// streams terminate, then force-close.
		log.Printf("drain window expired, cancelling remaining jobs: %v", err)
		svc.CancelAll()
		httpSrv.Close()
	}
	// Durable jobs run detached from their client connections, so
	// Shutdown returning does not mean the work is done — wait for the
	// jobs themselves (their journals record completion), then cancel
	// stragglers.
	if !svc.WaitJobs(shutdownCtx) {
		log.Printf("drain window expired with detached jobs still running, cancelling")
		svc.CancelAll()
		waitCtx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
		svc.WaitJobs(waitCtx)
		wcancel()
	}
	st := svc.Cache().Stats()
	log.Printf("windtunneld stopped (cache: %d entries, %.1f%% hit rate, %d evictions)",
		st.Entries, 100*st.HitRate(), st.Evictions)
}

// splitPeers parses the -peers list, dropping empty segments so a
// trailing comma is harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "windtunneld:", err)
	os.Exit(1)
}

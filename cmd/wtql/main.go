// Command wtql executes Wind Tunnel Query Language queries — the
// declarative what-if interface of §4.1 of the paper — either locally or
// against a running windtunneld daemon.
//
// Usage:
//
//	wtql -q "SIMULATE availability VARY storage.replication IN (3,5) ..."
//	wtql -f query.wtql -timeout 2m
//	echo "SIMULATE ..." | wtql
//	wtql -server http://localhost:8866 -q "SIMULATE ..."   # daemon mode
//
// In daemon mode the query is POSTed to /v1/query; per-design-point
// progress events stream to stderr and the final table (byte-identical
// to a local run) prints to stdout. -server accepts a comma-separated
// failover list (e.g. two fleet coordinators); a dropped connection —
// daemon restart, coordinator death — is retried within the -reconnect
// window with exponential backoff: first by resuming the same job's
// stream (GET /v1/jobs/{id}/stream?from=<received>), else by
// re-submitting the query to the next server with from=<received> so
// already-delivered points are not replayed. A mid-stream daemon
// restart is invisible except for latency. SIGINT/SIGTERM and -timeout
// cancel the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/wtql"
)

func main() {
	query := flag.String("q", "", "query text")
	file := flag.String("f", "", "file containing the query")
	trials := flag.Int("trials", 5, "default trials per configuration")
	workers := flag.Int("workers", 0, "point-level parallelism (0 = GOMAXPROCS)")
	server := flag.String("server", "", "windtunneld base URL(s), comma-separated failover list (empty = execute locally)")
	timeout := flag.Duration("timeout", 0, "abort the query after this duration (0 = no limit)")
	progress := flag.Bool("progress", false, "print per-point progress to stderr (daemon mode)")
	reconnect := flag.Duration("reconnect", 45*time.Second, "daemon mode: keep reconnecting/resuming a dropped stream for up to this long (0 = fail fast)")
	trace := flag.Bool("trace", false, "daemon mode: after the result, print the job's distributed-trace waterfall to stderr")
	flag.Parse()

	text, err := queryText(*query, *file, os.Stdin)
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the run; -timeout bounds it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *server != "" {
		// Send trials only when the flag was given explicitly: the
		// daemon has its own -trials default, and the client's flag
		// default must not silently override it. Flags that only make
		// sense locally are refused rather than silently ignored.
		remoteTrials := 0
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "trials":
				remoteTrials = *trials
			case "workers":
				fatal(fmt.Errorf("-workers has no effect with -server: the daemon owns its worker pool"))
			}
		})
		servers := splitServers(*server)
		if len(servers) == 0 {
			fatal(fmt.Errorf("-server given but empty"))
		}
		if err := runRemote(ctx, servers, text, remoteTrials, *progress, *reconnect, *trace); err != nil {
			fatal(err)
		}
		return
	}
	if *trace {
		fatal(fmt.Errorf("-trace has no effect without -server: tracing lives in the daemon"))
	}

	rs, err := (&wtql.Engine{Trials: *trials, Workers: *workers}).ExecuteContext(ctx, text)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rs.Render())
}

// queryText is the query named by -q, by -f or, with neither, on stdin.
// Naming two, or a file with no query in it, is an error: falling through
// to the other would run a query other than the one named.
func queryText(query, file string, stdin io.Reader) (string, error) {
	switch {
	case query != "" && file != "":
		return "", fmt.Errorf("-q and -f both name a query: give one")
	case query != "":
		return query, nil
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return "", err
		}
		if strings.TrimSpace(string(data)) == "" {
			return "", fmt.Errorf("-f %s holds no query", file)
		}
		return string(data), nil
	}
	data, err := io.ReadAll(stdin)
	if err != nil {
		return "", err
	}
	if len(data) == 0 {
		return "", fmt.Errorf("no query given: use -q, -f or stdin")
	}
	return string(data), nil
}

// splitServers parses the comma-separated -server list.
func splitServers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runRemote executes the query against a windtunneld daemon (or a
// failover list of them), streaming progress to stderr and the final
// table to stdout. A dropped connection is retried within the reconnect
// window; service.Client.Attempt keeps the cursor, so the client never
// sees a point event twice and the table prints exactly once. trials == 0
// leaves the daemon's default in force.
func runRemote(ctx context.Context, servers []string, text string, trials int, progress bool, reconnect time.Duration, trace bool) error {
	var c service.Client
	s := &service.Session{Request: service.QueryRequest{Query: text, Trials: trials}}
	start := time.Now()
	on := func(ev *service.Event) error { return printEvent(ev, progress, start) }

	si := 0 // current server
	deadline := time.Now().Add(reconnect)
	backoff := 200 * time.Millisecond
	for {
		got, err := c.Attempt(ctx, servers[si], s, on)
		if err == nil {
			if trace && s.Job != "" {
				printTrace(ctx, c, s)
			}
			return nil
		}
		if service.Permanent(err) || ctx.Err() != nil {
			// A bad query, a failed job, a caller who has given up:
			// retrying would just repeat it.
			return err
		}
		if got > 0 {
			// The stream made progress before dying: a live server is out
			// there, so restart the reconnect window and the backoff.
			deadline = time.Now().Add(reconnect)
			backoff = 200 * time.Millisecond
		} else if len(servers) > 1 {
			// Nothing at all from this server: fail over to the next one.
			si = (si + 1) % len(servers)
		}
		if reconnect <= 0 || time.Now().After(deadline) {
			return fmt.Errorf("stream lost and not recovered within %s: %w", reconnect, err)
		}
		fmt.Fprintf(os.Stderr, "wtql: connection lost (%v); retrying %s in %s\n",
			err, servers[si], backoff.Round(time.Millisecond))
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// printEvent renders one stream event: progress on stderr, the result's
// table on stdout.
func printEvent(ev *service.Event, progress bool, start time.Time) error {
	switch ev.Type {
	case "job":
		if progress {
			j, err := ev.Job()
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "job %s accepted\n", j.ID)
		}
	case "point":
		if progress {
			p, err := ev.Point()
			if err != nil {
				return err
			}
			note := ""
			if p.Cached {
				note = " (cached)"
			}
			if p.Worker != "" {
				// Coordinator-merged streams name the worker that served
				// each point.
				note += " @" + p.Worker
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %v%s\n", p.Done, p.Total, p.Config, note)
		}
	case "result":
		r, err := ev.Result()
		if err != nil {
			return err
		}
		fmt.Print(r.Table)
		if r.Degraded {
			// The table is still exact — degraded means the fleet did
			// not serve part of the sweep, the coordinator did. Warn on
			// stderr so scripted runs (and CI) can grep for it without
			// disturbing the table bytes on stdout.
			fmt.Fprintln(os.Stderr, "wtql: warning: job ran degraded (coordinator executed part of the sweep locally)")
		}
		if progress {
			fmt.Fprintf(os.Stderr, "%d executed, %d cache hits, %s elapsed\n",
				r.Executed, r.CacheHits, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wtql:", err)
	os.Exit(1)
}

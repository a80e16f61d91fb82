package service

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FaultConfig configures the chaos-injection harness: per-request
// probabilities for each fault class, driven by one seeded RNG so a
// chaos run is reproducible. All probabilities are in [0, 1]; zero
// disables that fault. Health probes (GET /v1/healthz) are exempt —
// chaos targets the data plane, and a lying liveness endpoint would
// test the monitor's patience, not the failover paths.
type FaultConfig struct {
	// Seed makes the fault sequence deterministic (0 = seed 1).
	Seed int64
	// ErrProb responds 500 before the handler runs.
	ErrProb float64
	// DelayProb sleeps a uniform [0, DelayMax) before handling.
	DelayProb float64
	// DelayMax bounds an injected delay (default 100ms).
	DelayMax time.Duration
	// DropProb ends the response body cleanly partway through — an
	// NDJSON stream that stops before its result event.
	DropProb float64
	// ResetProb aborts the connection mid-body — the client sees a
	// connection reset, not a clean EOF.
	ResetProb float64
	// CutEvery, when > 0, deterministically aborts every streaming
	// response (POST /v1/query and GET /v1/jobs/{id}/stream) after that
	// many body writes — no RNG involved. It exists to exercise the
	// durable-job resume path: a client that reconnects with
	// from=<received> advances a few points per attempt and still
	// finishes, so `cut=3` proves end-to-end resume without a single
	// byte of the final table changing.
	CutEvery int
}

// FaultStats counts injected faults.
type FaultStats struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Delays   uint64 `json:"delays"`
	Drops    uint64 `json:"drops"`
	Resets   uint64 `json:"resets"`
	Cuts     uint64 `json:"cuts"`
}

// FaultInjector injects configured faults into an http.Handler — the
// seam that lets ordinary `go test` (and the CI chaos-smoke job)
// exercise the fleet's failover paths instead of trusting them to
// manual testing. Wrap the server's handler; every request draws its
// faults from the shared seeded RNG.
type FaultInjector struct {
	mu  sync.Mutex
	rng *rand.Rand
	cfg FaultConfig
	st  FaultStats
}

// NewFaultInjector builds an injector for cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DelayMax <= 0 {
		cfg.DelayMax = 100 * time.Millisecond
	}
	return &FaultInjector{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// Stats returns the injected-fault counters.
func (f *FaultInjector) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// faultPlan is the set of faults drawn for one request.
type faultPlan struct {
	err   bool
	delay time.Duration
	drop  bool // clean early EOF after dropAfter writes
	reset bool // connection abort after dropAfter writes
	after int  // body writes before the drop/reset fires
}

// plan draws one request's faults under the lock, keeping the RNG
// sequence deterministic however many requests race.
func (f *FaultInjector) plan() faultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.st.Requests++
	var p faultPlan
	if f.cfg.ErrProb > 0 && f.rng.Float64() < f.cfg.ErrProb {
		p.err = true
		f.st.Errors++
		return p
	}
	if f.cfg.DelayProb > 0 && f.rng.Float64() < f.cfg.DelayProb {
		p.delay = time.Duration(f.rng.Int63n(int64(f.cfg.DelayMax)))
		f.st.Delays++
	}
	// Drop and reset are exclusive: both truncate the body, they differ
	// only in how the connection dies.
	switch {
	case f.cfg.DropProb > 0 && f.rng.Float64() < f.cfg.DropProb:
		p.drop = true
		p.after = 1 + f.rng.Intn(8)
		f.st.Drops++
	case f.cfg.ResetProb > 0 && f.rng.Float64() < f.cfg.ResetProb:
		p.reset = true
		p.after = 1 + f.rng.Intn(8)
		f.st.Resets++
	}
	return p
}

// errChaosDrop is the sentinel the chaos writer panics with to end a
// response body cleanly partway through; Wrap recovers it so the
// truncation looks like a handler that simply stopped streaming.
var errChaosDrop = fmt.Errorf("chaos: stream dropped")

// chaosExempt lists the control-plane paths chaos never touches: the
// liveness endpoint (a lying healthz tests the monitor's patience, not
// failover), and the observability surface — an operator debugging a
// chaos run needs /metrics, /v1/stats and the profiler to tell the
// truth about it.
func chaosExempt(r *http.Request) bool {
	switch r.URL.Path {
	case "/v1/healthz", "/v1/stats", "/metrics",
		"/v1/metrics/fleet", "/v1/metrics/history", "/v1/alerts":
		return true
	}
	return strings.HasPrefix(r.URL.Path, "/debug/pprof")
}

// Wrap returns next with fault injection in front of it.
func (f *FaultInjector) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if chaosExempt(r) {
			next.ServeHTTP(w, r)
			return
		}
		p := f.plan()
		if p.err {
			writeJSON(w, http.StatusInternalServerError,
				ErrorEvent{Type: "error", Error: "chaos: injected server error"})
			return
		}
		if p.delay > 0 {
			select {
			case <-time.After(p.delay):
			case <-r.Context().Done():
				return
			}
		}
		if !p.drop && !p.reset && f.cfg.CutEvery > 0 && streamingPath(r) {
			// Deterministic stream cut: independent of the RNG so a
			// resume exercise does not disturb the seeded fault sequence.
			f.mu.Lock()
			f.st.Cuts++
			f.mu.Unlock()
			p.reset, p.after = true, f.cfg.CutEvery
		}
		if p.drop || p.reset {
			defer func() {
				if rec := recover(); rec != nil && rec != errChaosDrop {
					panic(rec)
				}
			}()
			w = &chaosWriter{ResponseWriter: w, after: p.after, reset: p.reset}
		}
		next.ServeHTTP(w, r)
	})
}

// streamingPath reports whether a request answers with an NDJSON job
// stream — the only responses a cut=N fault targets (cutting a one-shot
// JSON endpoint would test nothing resumable).
func streamingPath(r *http.Request) bool {
	return r.URL.Path == "/v1/query" || strings.HasSuffix(r.URL.Path, "/stream")
}

// chaosWriter truncates a response body after a configured number of
// writes: a drop panics with errChaosDrop (recovered by Wrap, so the
// chunked body ends cleanly mid-stream), a reset panics with
// http.ErrAbortHandler (net/http aborts the connection). What it let
// through is flushed first, so "after N writes" means the client received
// exactly N of them however the handler batches its own flushes.
type chaosWriter struct {
	http.ResponseWriter
	writes int
	after  int
	reset  bool
}

func (c *chaosWriter) Write(p []byte) (int, error) {
	if c.writes >= c.after {
		c.Flush()
		if c.reset {
			panic(http.ErrAbortHandler)
		}
		panic(errChaosDrop)
	}
	c.writes++
	return c.ResponseWriter.Write(p)
}

// Flush keeps the NDJSON streaming path working under chaos — the
// handler's flusher type-assertion must still see a Flusher.
func (c *chaosWriter) Flush() {
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// ParseFaultConfig parses the -chaos flag grammar: a comma-separated
// k=v list, e.g.
//
//	seed=7,err=0.05,delay=0.1,delay-max=200ms,drop=0.05,reset=0.05
//
// Unknown keys and out-of-range probabilities are errors — a chaos run
// with a silently-ignored knob tests nothing.
func ParseFaultConfig(s string) (FaultConfig, error) {
	var cfg FaultConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("service: chaos spec %q wants key=value", part)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "err":
			err = parseProb(&cfg.ErrProb, v)
		case "delay":
			err = parseProb(&cfg.DelayProb, v)
		case "delay-max":
			cfg.DelayMax, err = time.ParseDuration(v)
		case "drop":
			err = parseProb(&cfg.DropProb, v)
		case "reset":
			err = parseProb(&cfg.ResetProb, v)
		case "cut":
			cfg.CutEvery, err = strconv.Atoi(v)
			if err == nil && cfg.CutEvery < 0 {
				err = fmt.Errorf("cut wants a non-negative write count, got %d", cfg.CutEvery)
			}
		default:
			keys := []string{"seed", "err", "delay", "delay-max", "drop", "reset", "cut"}
			sort.Strings(keys)
			return cfg, fmt.Errorf("service: unknown chaos key %q (want one of %s)", k, strings.Join(keys, ", "))
		}
		if err != nil {
			return cfg, fmt.Errorf("service: chaos %s: %w", k, err)
		}
	}
	return cfg, nil
}

func parseProb(dst *float64, v string) error {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return err
	}
	if p < 0 || p > 1 {
		return fmt.Errorf("probability %v outside [0, 1]", p)
	}
	*dst = p
	return nil
}

package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/service"
)

func startDaemon(t *testing.T, cfg service.Config) string {
	t.Helper()
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestLoadSurvivesStreamCuts: 20 requests from 4 clients against a
// journaled daemon that resets every stream after three lines. The default
// query's stream is six lines long, so every request loses its connection
// twice, resumes the job it was admitted under, and still counts as one
// successful request.
func TestLoadSurvivesStreamCuts(t *testing.T) {
	url := startDaemon(t, service.Config{
		PoolSize: 2, JournalDir: t.TempDir(),
		Chaos: service.NewFaultInjector(service.FaultConfig{CutEvery: 3}),
	})
	var stdout, stderr bytes.Buffer
	if !run(context.Background(), url+"/", defaultQuery, 4, 20, 2, &stdout, &stderr) {
		t.Fatalf("run reported failed requests:\n%s", stdout.String())
	}
	for _, want := range []string{
		`(?m)^requests:   20 ok, 0 failed in `,
		`(?m)^resumed:    20 ok via reconnect, 0 ok fresh \(40 stream resumes\)$`,
		`(?m)^retries:    0$`,
		`(?m)^throughput: [0-9.]+ queries/s$`,
		`(?m)^latency:    p50 \S+  p95 \S+  p99 \S+$`,
		`(?m)^slowest:    `,
		`(?m)^server cache: 4 entries, \d+ hits \(0 disk, 0 peer\), \d+ misses, \d+\.\d% hit rate, pool=2$`,
	} {
		if !regexp.MustCompile(want).MatchString(stdout.String()) {
			t.Errorf("report lacks %s:\n%s", want, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "error:") {
		t.Errorf("report lists errors:\n%s", stdout.String())
	}
	banner := stderr.String()
	if !strings.Contains(banner, "wtload: 20 requests, 4 concurrent clients -> "+url+"\n") ||
		!strings.Contains(banner, "wtload: server windtunneld "+service.Version+" (go") {
		t.Errorf("banner reads:\n%s", banner)
	}
}

// TestLoadReportsFailures: a query the daemon cannot run fails every
// request after its retries; the report buckets the error and run says so.
func TestLoadReportsFailures(t *testing.T) {
	url := startDaemon(t, service.Config{PoolSize: 2})
	var stdout, stderr bytes.Buffer
	if run(context.Background(), url, "SIMULATE nonsense", 8, 3, 1, &stdout, &stderr) {
		t.Fatalf("run reported success:\n%s", stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "requests:   0 ok, 3 failed in ") || !strings.Contains(out, "retries:    3\n") ||
		!strings.Contains(out, `error:      3x server: wtql: unsupported SIMULATE target "nonsense"`) {
		t.Fatalf("report reads:\n%s", out)
	}
	if strings.Contains(out, "throughput:") || !strings.Contains(stderr.String(), "3 requests, 3 concurrent clients") {
		t.Fatalf("no request succeeded, and 8 clients for 3 requests is 3:\n%s%s", stderr.String(), out)
	}
}

func TestErrKeyFoldsLongAndMultilineErrors(t *testing.T) {
	long := strings.Repeat("x", 200)
	if got := errKey(errors.New(long + "\nsecond line")); got != long[:120]+"..." {
		t.Fatalf("errKey = %q", got)
	}
}

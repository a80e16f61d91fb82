package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// daemon is an in-process windtunneld: service.New behind an httptest
// server with default telemetry, which is what users run. Everything the
// benchmark learns about it comes over its public HTTP endpoints.
type daemon struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func startDaemon(cfg service.Config) (*daemon, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	// Every closed-loop client keeps its connection.
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 16
	return &daemon{srv: srv, ts: ts, client: client}, nil
}

// stop shuts the listener down, waiting for requests in flight, and
// stops the server's background goroutines.
func (d *daemon) stop() {
	d.ts.Close()
	d.srv.Close()
}

// reply is one completed POST /v1/query as the client saw it.
type reply struct {
	job       string
	start     time.Time
	admit     time.Duration // POST sent -> job line
	total     time.Duration // POST sent -> terminal result line
	executed  int
	cacheHits int
	table     string
	stream    [sha256.Size]byte // hash of the whole NDJSON stream
}

// terminalEvent is the part of a stream's last line the client reads.
type terminalEvent struct {
	Type      string `json:"type"`
	ID        string `json:"id"`
	Executed  int    `json:"executed"`
	CacheHits int    `json:"cache_hits"`
	Table     string `json:"table"`
	Error     string `json:"error"`
}

// query POSTs one WTQL query and reads its NDJSON stream to the end. Any
// transport error or non-result terminal line is an error.
func (d *daemon) query(text string) (reply, error) {
	r := reply{start: time.Now()}
	resp, err := d.client.Post(d.ts.URL+"/v1/query", "text/plain", strings.NewReader(text))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	last, err := readStream(resp, &r)
	if err != nil {
		return r, err
	}
	r.total = time.Since(r.start)
	var ev terminalEvent
	if err := json.Unmarshal(last, &ev); err != nil {
		return r, fmt.Errorf("terminal line: %w", err)
	}
	if ev.Type != "result" {
		return r, fmt.Errorf("terminal line is %q: %s", ev.Type, ev.Error)
	}
	r.job, r.executed, r.cacheHits, r.table = ev.ID, ev.Executed, ev.CacheHits, ev.Table
	return r, nil
}

// replay fetches a durable job's recorded stream from the start and
// returns its hash.
func (d *daemon) replay(job string) ([sha256.Size]byte, error) {
	var r reply
	resp, err := d.client.Get(d.ts.URL + "/v1/jobs/" + job + "/stream?from=0")
	if err != nil {
		return r.stream, err
	}
	defer resp.Body.Close()
	_, err = readStream(resp, &r)
	return r.stream, err
}

// readStream consumes an NDJSON response, filling in the reply's admit
// time and stream hash, and returns the last line.
func readStream(resp *http.Response, r *reply) ([]byte, error) {
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	br := bufio.NewReader(resp.Body)
	h := sha256.New()
	var last []byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if last == nil {
				r.admit = time.Since(r.start)
			}
			h.Write(line)
			last = line
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if last == nil {
		return nil, fmt.Errorf("empty stream")
	}
	h.Sum(r.stream[:0])
	return last, nil
}

// getJSON decodes a GET endpoint's JSON body into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobSpans fetches the daemon's own spans for one job.
func (d *daemon) jobSpans(job string) ([]obs.Span, error) {
	var tr service.TraceResponse
	err := d.getJSON("/v1/jobs/"+job+"/trace", &tr)
	return tr.Spans, err
}

// scrape is one reading of the daemon's counters: /v1/cache, /v1/stats
// and every un-labelled series of /metrics.
type scrape struct {
	cache   service.Stats
	heap    uint64
	metrics map[string]float64
	series  int
	took    time.Duration // the /metrics request alone
}

func (d *daemon) scrape() (scrape, error) {
	s := scrape{metrics: map[string]float64{}}
	if err := d.getJSON("/v1/cache", &s.cache); err != nil {
		return s, err
	}
	var stats struct {
		Runtime obs.RuntimeStats `json:"runtime"`
	}
	if err := d.getJSON("/v1/stats", &stats); err != nil {
		return s, err
	}
	s.heap = stats.Runtime.HeapAllocBytes

	t0 := time.Now()
	resp, err := d.client.Get(d.ts.URL + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return s, err
	}
	s.took = time.Since(t0)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		s.series++
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			s.metrics[name] = v
		}
	}
	return s, nil
}

package service

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// federator is the coordinator's fleet-metrics scraper: a background
// loop that GETs every worker's /metrics on the history interval,
// parses the exposition text and ingests it into the server's History
// labelled with the worker's URL as `instance`. The coordinator's own
// sampler feeds the same History (instance="coordinator"), so
// GET /v1/metrics/fleet renders one merged, per-instance view of the
// whole fleet — and GET /v1/metrics/history range-queries it.
//
// Each round also synthesizes wt_fleet_member_up, a per-instance gauge
// that is 1 when the member's scrape succeeded and 0 when it failed.
// That makes "a worker is gone" an ordinary series in history — the
// worker_down alert rule is a plain threshold over it, and it flips
// within one round of a kill because a dead worker fails the scrape
// immediately (connection refused), no health-monitor hysteresis in
// the path.
type federator struct {
	peers    []string
	hist     *obs.History
	client   Client
	interval time.Duration

	mu      sync.Mutex
	partial bool // any scrape failed in the last completed round

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// maxScrapeBody bounds one worker /metrics response (a full registry is
// a few tens of KB; 8 MB is paranoia, not a limit anyone should hit).
const maxScrapeBody = 8 << 20

// startFederator launches the scrape loop. One round runs immediately
// so the fleet view (and the member-up series) exists as soon as the
// coordinator is up.
func startFederator(hist *obs.History, peers []string, interval time.Duration) *federator {
	if interval <= 0 {
		interval = obs.DefaultSampleInterval
	}
	f := &federator{
		peers:    peers,
		hist:     hist,
		client:   Client{HTTP: &http.Client{Timeout: 2 * time.Second}},
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go func() {
		defer close(f.done)
		ticker := time.NewTicker(f.interval)
		defer ticker.Stop()
		f.round()
		for {
			select {
			case <-f.stop:
				return
			case <-ticker.C:
				f.round()
			}
		}
	}()
	return f
}

// Stop ends the scrape loop (idempotent) and waits for it.
func (f *federator) Stop() {
	if f == nil {
		return
	}
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// Partial reports whether the last completed round failed to scrape at
// least one member — the fleet view is being served, but it is missing
// somebody. Surfaced as the X-WT-Partial header on /v1/metrics/fleet.
func (f *federator) Partial() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.partial
}

// round scrapes every member once, concurrently, then ingests the
// synthesized member-up gauge for the round. A failed scrape ingests
// nothing for that member — its last good samples age out of the rings
// naturally — but always lands a member_up=0 sample, so absence is
// itself observable.
func (f *federator) round() {
	type result struct {
		peer string
		fams []obs.FamilySnapshot
		err  error
	}
	results := make([]result, len(f.peers))
	var wg sync.WaitGroup
	for i, peer := range f.peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			fams, err := f.scrape(peer)
			results[i] = result{peer: peer, fams: fams, err: err}
		}(i, peer)
	}
	wg.Wait()

	now := time.Now()
	up := obs.FamilySnapshot{
		Name: "wt_fleet_member_up",
		Help: "1 when the coordinator's last /metrics scrape of the fleet member succeeded, 0 when it failed.",
		Type: "gauge",
	}
	anyDown := false
	for _, res := range results {
		v := 1.0
		if res.err != nil {
			v, anyDown = 0, true
		}
		up.Samples = append(up.Samples, obs.SeriesSample{
			Labels: [][2]string{{"instance", res.peer}},
			Value:  v,
		})
	}
	f.mu.Lock()
	f.partial = anyDown
	f.mu.Unlock()

	for _, res := range results {
		if res.err == nil {
			f.hist.Ingest(res.fams, res.peer, now)
		}
	}
	f.hist.Ingest([]obs.FamilySnapshot{up}, "", now)
}

// scrape fetches and parses one member's exposition.
func (f *federator) scrape(peer string) ([]obs.FamilySnapshot, error) {
	body, err := f.client.Get(context.Background(), strings.TrimRight(peer, "/")+"/metrics", maxScrapeBody)
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(body)
}

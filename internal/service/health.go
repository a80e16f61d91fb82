package service

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// MemberState is a fleet member's health as seen by this process.
type MemberState string

const (
	// StateUp: the member answers probes (or real traffic) normally.
	StateUp MemberState = "up"
	// StateSuspect: recent failures below the down threshold, or the
	// member reports itself draining. Suspect members receive no *new*
	// shard assignments but in-flight streams are left alone and cache
	// peering still tries them — a suspect is slow or leaving, not gone.
	StateSuspect MemberState = "suspect"
	// StateDown: consecutive failures reached downAfter. Down members are
	// skipped everywhere — shard planning routes around them and cache
	// peering misses immediately instead of eating a connect timeout per
	// key. Recovery probes keep running; successes bring the member back.
	StateDown MemberState = "down"
)

// The poller's thresholds and bounds. Consecutive failures make a member
// suspect (suspectAfter) and then down (downAfter); a *down* member needs
// upAfter straight successes back — hysteresis so a flapping member does
// not oscillate into the shard planner — while a suspect recovers on the
// first. A full registry scrape is a few tens of KB; maxScrapeBody is
// paranoia, not a limit anyone should hit.
const (
	suspectAfter  = 1
	downAfter     = 3
	upAfter       = 2
	probeTimeout  = time.Second     // one GET /v1/healthz
	scrapeTimeout = 2 * time.Second // one GET /metrics
	maxScrapeBody = 8 << 20
)

// MemberHealth is the externally-visible state of one member, served at
// GET /v1/fleet.
type MemberHealth struct {
	URL   string      `json:"url"`
	State MemberState `json:"state"`
	// Draining is set when the member's healthz reports it is refusing
	// new work; it probes as suspect, not failed.
	Draining  bool      `json:"draining,omitempty"`
	Failures  int       `json:"consecutive_failures,omitempty"`
	LastError string    `json:"last_error,omitempty"`
	LastProbe time.Time `json:"last_probe,omitzero"`
	LastOK    time.Time `json:"last_ok,omitzero"`
}

type memberHealth struct {
	MemberHealth
	successes int // consecutive, for down→up hysteresis
}

// Health is the fleet's one member poller. Each telemetry round calls
// Probe, which GETs every member's /v1/healthz with a short timeout and,
// when scrape is set (on a coordinator), the member's /metrics
// too; the round ingests those under instance=<member URL>. The serving
// paths feed passive observations (a torn worker stream, a refused peer
// fetch) through ReportFailure/ReportSuccess so real traffic detects
// failures faster than the round period. Shard planning and cache peering
// consult the resulting up/suspect/down state; membership is exposed at
// GET /v1/fleet, and the scrapes at GET /v1/metrics/fleet.
//
// A scraping round also synthesizes wt_fleet_member_up, a per-instance
// gauge that is 1 when the member's scrape answered and 0
// when it failed. That makes "a worker is gone" an ordinary series in
// history — the worker_down alert rule is a plain threshold over it, and
// it fires in the round whose scrape failed, because a dead worker fails
// the scrape immediately (connection refused), no state-machine
// hysteresis in the path.
type Health struct {
	client Client
	urls   []string // members in configuration order
	scrape bool     // rounds also fetch each member's /metrics

	mu      sync.Mutex
	members map[string]*memberHealth
	partial bool // a scrape failed in the last completed round
	now     func() time.Time
}

// NewHealth builds a poller over the given member URLs. Members start
// up (optimistic: an unprobed fleet must accept work immediately) until
// a round probes them.
func NewHealth(members []string) *Health {
	h := &Health{
		members: make(map[string]*memberHealth, len(members)),
		now:     time.Now,
	}
	for _, m := range members {
		if m == "" {
			continue
		}
		if _, dup := h.members[m]; !dup {
			h.members[m] = &memberHealth{MemberHealth: MemberHealth{URL: m, State: StateUp}}
			h.urls = append(h.urls, m)
		}
	}
	return h
}

// Partial reports whether the last completed round failed to scrape at
// least one member — the fleet view is being served, but it is missing
// somebody. Surfaced as the X-WT-Partial header on /v1/metrics/fleet.
func (h *Health) Partial() bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.partial
}

// Probe runs one synchronous round over all members, including down
// ones — those probes are the recovery path — and returns each member's
// scrape when scrape is set. A round cut short by ctx records nothing and
// returns nil.
func (h *Health) Probe(ctx context.Context) []scraped {
	var scrapes []scraped
	if h.scrape {
		scrapes = make([]scraped, len(h.urls))
	}
	var wg sync.WaitGroup
	for i, u := range h.urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			draining, err := h.probeOne(ctx, u)
			switch {
			case ctx.Err() != nil:
			case err != nil:
				h.observe(u, true, nil, err.Error())
			default:
				h.observe(u, false, &draining, "")
			}
		}()
		if h.scrape {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scrapes[i].fams, scrapes[i].err = h.fetchMetrics(ctx, u)
			}()
		}
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil
	}
	return scrapes
}

// probeOne GETs one member's healthz and reports whether it is
// draining. Any transport error, non-200, or unparseable body is a
// probe failure.
func (h *Health) probeOne(ctx context.Context, u string) (draining bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	var hz HealthzResponse
	if err := h.client.GetJSON(ctx, u+"/v1/healthz", 4096, &hz); err != nil {
		return false, err
	}
	switch hz.Status {
	case "ok":
		return false, nil
	case "draining":
		return true, nil
	default:
		return false, fmt.Errorf("healthz status %q", hz.Status)
	}
}

// scraped is one member's /metrics in a round.
type scraped struct {
	fams []obs.FamilySnapshot
	err  error
}

// fetchMetrics fetches and parses one member's exposition.
func (h *Health) fetchMetrics(ctx context.Context, u string) ([]obs.FamilySnapshot, error) {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	body, err := h.client.Get(ctx, strings.TrimRight(u, "/")+"/metrics", maxScrapeBody)
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(body)
}

// memberUpFamily is the gauge a scraping round synthesizes per member.
const memberUpFamily = "wt_fleet_member_up"

// ingest lands one round's scrapes in hist at now, then the synthesized
// member-up gauge. A failed scrape ingests nothing for that member — its
// last good samples age out of the rings naturally — but always lands a
// member_up=0 sample, so absence is itself observable.
func (h *Health) ingest(hist *obs.History, scrapes []scraped, now time.Time) {
	up := obs.FamilySnapshot{
		Name: memberUpFamily,
		Help: "1 when the coordinator's last /metrics scrape of the fleet member succeeded, 0 when it failed.",
		Type: "gauge",
	}
	anyDown := false
	for i, u := range h.urls {
		v := 0.0
		if scrapes[i].err == nil {
			v = 1
			hist.Ingest(scrapes[i].fams, u, now)
		} else {
			anyDown = true
		}
		up.Samples = append(up.Samples, obs.SeriesSample{Labels: [][2]string{{"instance", u}}, Value: v})
	}
	h.mu.Lock()
	h.partial = anyDown // before member_up lands, so a reader of 0 sees partial
	h.mu.Unlock()
	hist.Ingest([]obs.FamilySnapshot{up}, "", now)
}

// ReportFailure records a passive failure observation for a member — a
// torn worker stream, a refused peer fetch. Unknown members are ignored
// (traffic to a non-member is not fleet state).
func (h *Health) ReportFailure(u string, err error) {
	msg := "failure reported"
	if err != nil {
		msg = err.Error()
	}
	h.observe(u, true, nil, msg)
}

// ReportSuccess records a passive success observation: real traffic is
// the best probe, so a completed stream or served peer fetch recovers a
// suspect member without waiting for the next round. It cannot tell
// whether the member is draining — a draining worker still finishes its
// in-flight shards — so a draining member stays suspect.
func (h *Health) ReportSuccess(u string) {
	h.observe(u, false, nil, "")
}

// observe folds one observation (probe or passive) into the member's
// state machine. draining is what a successful probe's healthz said; nil
// for a passive observation, which leaves Draining as the last probe saw
// it.
func (h *Health) observe(u string, failed bool, draining *bool, errMsg string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.members[u]
	if !ok {
		return
	}
	now := h.now()
	m.LastProbe = now
	if failed {
		m.successes = 0
		m.Failures++
		m.LastError = errMsg
		switch {
		case m.Failures >= downAfter:
			m.State = StateDown
		case m.Failures >= suspectAfter:
			m.State = StateSuspect
		}
		return
	}
	m.LastOK = now
	m.LastError = ""
	m.Failures = 0
	if draining != nil {
		m.Draining = *draining
	}
	if m.Draining {
		// A draining member answers but is leaving: suspect, so planners
		// stop assigning it new shards without treating it as failed.
		m.successes = 0
		m.State = StateSuspect
		return
	}
	m.successes++
	if m.State == StateDown && m.successes < upAfter {
		return // hysteresis: a down member needs upAfter straight successes
	}
	m.State = StateUp
}

// State returns a member's current state. Unknown members are up —
// health never vetoes traffic to an address it was not asked to watch.
func (h *Health) State(u string) MemberState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if m, ok := h.members[u]; ok {
		return m.State
	}
	return StateUp
}

// Reachable reports whether traffic to the member is worth attempting
// at all (anything but down). Cache peering uses this: a down peer is
// an immediate local miss, not a connect timeout per key.
func (h *Health) Reachable(u string) bool {
	return h.State(u) != StateDown
}

// Assignable reports whether the member should receive new shard
// assignments: up, and not draining. Suspect and draining members keep
// their in-flight streams but get nothing new.
func (h *Health) Assignable(u string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.members[u]
	if !ok {
		return true
	}
	return m.State == StateUp && !m.Draining
}

// Snapshot returns every member's state, sorted by URL — the body of
// GET /v1/fleet.
func (h *Health) Snapshot() []MemberHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]MemberHealth, 0, len(h.members))
	for _, m := range h.members {
		out = append(out, m.MemberHealth)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

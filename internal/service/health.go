package service

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
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
	// StateDown: consecutive failures reached DownAfter. Down members are
	// skipped everywhere — shard planning routes around them and cache
	// peering misses immediately instead of eating a connect timeout per
	// key. Recovery probes keep running; successes bring the member back.
	StateDown MemberState = "down"
)

// HealthConfig tunes the monitor. Zero values mean the defaults.
type HealthConfig struct {
	// ProbeInterval is the period of the background probe loop
	// (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one GET /v1/healthz (default 1s).
	ProbeTimeout time.Duration
	// SuspectAfter is the consecutive-failure count that moves an up
	// member to suspect (default 1: the first failure makes it suspect).
	SuspectAfter int
	// DownAfter is the consecutive-failure count that moves a member to
	// down (default 3).
	DownAfter int
	// UpAfter is the consecutive-success count a *down* member needs to
	// return to up (default 2) — hysteresis so a flapping member does not
	// oscillate into the shard planner every other probe. Suspect members
	// recover on the first success.
	UpAfter int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 2
	}
	return c
}

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

// Health monitors fleet membership: a background loop probes every
// member's GET /v1/healthz with a short timeout, and the serving paths
// feed passive observations (a torn worker stream, a refused peer
// fetch) through ReportFailure/ReportSuccess so real traffic detects
// failures faster than the probe period. Shard planning and cache
// peering consult the resulting up/suspect/down state; membership is
// exposed at GET /v1/fleet.
type Health struct {
	cfg    HealthConfig
	client Client

	mu      sync.Mutex
	members map[string]*memberHealth
	now     func() time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewHealth builds a monitor over the given member URLs. Members start
// up (optimistic: an unprobed fleet must accept work immediately); call
// Start to begin background probing, or Probe for one synchronous round.
func NewHealth(members []string, cfg HealthConfig) *Health {
	cfg = cfg.withDefaults()
	h := &Health{
		cfg:     cfg,
		client:  Client{HTTP: &http.Client{Timeout: cfg.ProbeTimeout}},
		members: make(map[string]*memberHealth, len(members)),
		now:     time.Now,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, m := range members {
		if m == "" {
			continue
		}
		if _, dup := h.members[m]; !dup {
			h.members[m] = &memberHealth{MemberHealth: MemberHealth{URL: m, State: StateUp}}
		}
	}
	return h
}

// Start launches the background probe loop. Stop ends it.
func (h *Health) Start() {
	go func() {
		defer close(h.done)
		ticker := time.NewTicker(h.cfg.ProbeInterval)
		defer ticker.Stop()
		h.Probe()
		for {
			select {
			case <-h.stop:
				return
			case <-ticker.C:
				h.Probe()
			}
		}
	}()
}

// Stop terminates the probe loop (idempotent) and waits for it to exit.
func (h *Health) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

// Probe runs one synchronous probe round over all members, including
// down ones — those probes are the recovery path.
func (h *Health) Probe() {
	h.mu.Lock()
	urls := make([]string, 0, len(h.members))
	for u := range h.members {
		urls = append(urls, u)
	}
	h.mu.Unlock()

	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			draining, err := h.probeOne(u)
			if err != nil {
				h.observe(u, true, nil, err.Error())
				return
			}
			h.observe(u, false, &draining, "")
		}(u)
	}
	wg.Wait()
}

// probeOne GETs one member's healthz and reports whether it is
// draining. Any transport error, non-200, or unparseable body is a
// probe failure.
func (h *Health) probeOne(u string) (draining bool, err error) {
	var hz HealthzResponse
	if err := h.client.GetJSON(context.Background(), u+"/v1/healthz", 4096, &hz); err != nil {
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
// suspect member without waiting for the probe loop. It cannot tell
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
		case m.Failures >= h.cfg.DownAfter:
			m.State = StateDown
		case m.Failures >= h.cfg.SuspectAfter:
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
	if m.State == StateDown && m.successes < h.cfg.UpAfter {
		return // hysteresis: a down member needs UpAfter straight successes
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

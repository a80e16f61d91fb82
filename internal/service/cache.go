package service

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// Cache is the content-addressed trial cache: completed (SLA-free) trial
// statistics keyed by core.CacheKey fingerprints. It has two tiers:
//
//   - an LRU memory tier bounded at maxEntries results,
//   - an optional disk tier, the durable log (log.go) in its directory:
//     every Put appends the entry and returns once it is durable, so
//     results survive daemon restarts; an in-memory index from key to
//     frame, rebuilt by the scan at open, serves a memory miss, which
//     promotes the entry back into memory, and
//   - an optional peer tier (EnablePeering): on a memory+disk miss the
//     key's consistent-hash owner peer is asked over GET /v1/cache/{key}
//     before the caller falls back to simulating, so a re-sharded or
//     restarted fleet reuses every trial ever computed anywhere. A
//     fetched entry is promoted into the local memory and disk tiers.
//     Peer fetches are best-effort: an unreachable or missing peer just
//     degrades to a local miss.
//
// Determinism contract: a Get hit returns exactly the statistics a fresh
// run of the same key would produce — runs are deterministic functions
// of the key, the stored result is immutable, and the disk tier's JSON
// float encoding round-trips float64 exactly — so a served sweep is
// byte-identical whether it was simulated or remembered.
//
// The memory bound is on entry count, not bytes: one entry holds a
// run's aggregate metric and CI maps, a few dozen floats whatever its
// trials or users. The disk tier is unbounded; evicting from memory never
// deletes the disk copy.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	disk       *segLog // nil = memory-only

	// Peer tier (nil ring = disabled). The ring spans the whole fleet
	// including this worker; self is this worker's URL on it, excluded
	// from fetch targets so an owner's genuine miss never loops back.
	peers      *Ring
	self       string
	peerClient Client
	// health, when non-nil, short-circuits fetches to peers the monitor
	// has marked down: a dead peer costs a map lookup per key, not a
	// connect timeout.
	health *Health

	hits, diskHits, peerHits, misses, puts, evictions uint64
	peerRetries, peerSkips                            uint64
}

type cacheEntry struct {
	key string
	res *core.RunResult
}

// DefaultCacheEntries bounds the memory tier when no capacity is given.
const DefaultCacheEntries = 512

// NewCache returns a cache holding at most maxEntries results in memory
// (<= 0 means DefaultCacheEntries), persisting to dir when non-empty.
func NewCache(maxEntries int, dir string) (*Cache, error) {
	if err := mkdirs(dir); err != nil {
		return nil, err
	}
	return newCache(maxEntries, dir, osDisk)
}

func newCache(maxEntries int, dir string, d disk) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	c := &Cache{
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
	if dir == "" {
		return c, nil
	}
	var err error
	c.disk, err = openDiskTier(d, dir)
	return c, err
}

// openDiskTier opens dir's log and indexes every entry it holds. Each
// <key>.json file an older build wrote is imported, and removed once its
// copy is durable; the put-* files its writers left behind are removed.
func openDiskTier(d disk, dir string) (*segLog, error) {
	l, names, _, err := openLog(d, dir, "", func(l *segLog, e extent, rec *journalRecord) {
		if rec.Kind == "entry" && rec.Key != "" {
			l.own(rec.Key, e, true)
		}
	})
	for _, name := range names {
		path := filepath.Join(dir, name)
		if strings.HasPrefix(name, "put-") {
			d.fs.Remove(path)
		} else if key, ok := strings.CutSuffix(name, ".json"); ok {
			if res, ok := readLegacyEntry(d.fs, path); ok && l.put(key, entryRecord(key, res)) {
				d.fs.Remove(path)
			}
		}
	}
	return l, err
}

// EnablePeering turns on the peer tier: peers is the full fleet member
// list (every worker passes the same list, so the fleet agrees on key
// ownership) and self is this worker's URL within it. client is the
// HTTP client used for peer fetches; nil gets a short-timeout default —
// a slow peer must degrade to a local simulate, not stall the sweep.
func (c *Cache) EnablePeering(peers []string, self string, client *http.Client) {
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	c.mu.Lock()
	c.peers = NewRing(peers)
	c.self = self
	c.peerClient = Client{HTTP: client}
	c.mu.Unlock()
}

// SetHealth attaches a health monitor consulted before peer fetches.
func (c *Cache) SetHealth(h *Health) {
	c.mu.Lock()
	c.health = h
	c.mu.Unlock()
}

// Get is GetContext with no sweep to cancel the peer fetch.
func (c *Cache) Get(key string) (*core.RunResult, bool) {
	return c.GetContext(context.Background(), key)
}

// GetContext implements core.TrialCache: the sweep's context flows into
// the peer-fetch tier, so a cancelled job abandons an in-flight peer
// fetch immediately instead of riding out the fetch client's own timeout.
func (c *Cache) GetContext(ctx context.Context, key string) (*core.RunResult, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, true
	}
	c.mu.Unlock()

	if res, ok := c.fromDisk(key); ok {
		return c.promote(key, res, &c.diskHits), true
	}
	if res, ok := c.fetchPeer(ctx, key); ok {
		res = c.promote(key, res, &c.peerHits)
		// Re-replicate onto the local disk tier so the next restart (or
		// the next re-shard) finds it without another hop.
		c.toDisk(key, res)
		return res, true
	}

	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// promote inserts an entry recovered from a lower tier (disk or peer)
// into the memory tier, counting a hit plus the tier counter. It
// re-checks for the key under the re-acquired lock: a concurrent Get or
// Put for the same key may have inserted it already, and a second
// element for one key would orphan the first in the LRU list and later
// evict the live map entry — the existing entry always wins.
func (c *Cache) promote(key string, res *core.RunResult, tier *uint64) *core.RunResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
	*tier++
	if el, dup := c.items[key]; dup {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).res
	}
	c.insert(key, res)
	return res
}

// fetchPeer asks the key's hash-owner peer for the entry. It never
// recurses (peers answer from their memory+disk tiers only, via Peek)
// and treats every terminal failure — no peering, no eligible peer,
// connection refused, 404, corrupt body — as a plain miss. Two
// robustness refinements on top:
//
//   - a peer the health monitor holds down is skipped outright, so a
//     dead fleet member costs a map lookup per key instead of a connect
//     timeout per key;
//   - a transient answer (429 or any 5xx) gets one short retry before
//     degrading to a miss, so a peer momentarily overloaded mid-sweep
//     still hands the entry to the LRU promotion path. The retry is
//     counted in peer_retries; peer_hits only ever counts entries
//     actually served, so transient errors never poison the hit stats.
//
// ctx is the calling sweep's context: a cancelled job aborts the fetch
// (and the retry backoff) immediately.
func (c *Cache) fetchPeer(ctx context.Context, key string) (*core.RunResult, bool) {
	c.mu.Lock()
	ring, self, client, health := c.peers, c.self, c.peerClient, c.health
	c.mu.Unlock()
	if ring == nil {
		return nil, false
	}
	owner, ok := ring.OwnerExcluding(key, self)
	if !ok {
		return nil, false
	}
	if health != nil && !health.Reachable(owner) {
		c.mu.Lock()
		c.peerSkips++
		c.mu.Unlock()
		return nil, false
	}

	// attempt returns the decoded entry, the HTTP status (0 on transport
	// error) and whether the fetch succeeded.
	attempt := func() (*core.RunResult, int, bool) {
		data, err := client.Get(ctx, owner+"/v1/cache/"+key, maxCacheEntryBytes)
		var se *StatusError
		switch {
		case errors.As(err, &se):
			return nil, se.Status, false
		case err != nil:
			if health != nil && ctx.Err() == nil {
				health.ReportFailure(owner, err)
			}
			return nil, 0, false
		}
		res, err := decodeRecord(data)
		if err != nil || !producible(res) {
			return nil, http.StatusOK, false
		}
		return res, http.StatusOK, true
	}

	res, code, ok := attempt()
	if !ok && transientPeerStatus(code) && ctx.Err() == nil {
		c.mu.Lock()
		c.peerRetries++
		c.mu.Unlock()
		select {
		case <-time.After(peerRetryDelay):
		case <-ctx.Done():
			return nil, false
		}
		res, _, ok = attempt()
	}
	if !ok {
		return nil, false
	}
	if health != nil {
		health.ReportSuccess(owner)
	}
	return res, true
}

// transientPeerStatus reports whether a peer's HTTP status is worth one
// retry: overload (429) and server-side errors (5xx) are momentary; a
// 404 is a genuine miss and anything else won't improve in 50ms.
func transientPeerStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// peerRetryDelay spaces the single transient-status retry. Short on
// purpose: the alternative to retrying is simulating the point locally,
// so waiting longer than a few tens of milliseconds loses the trade.
const peerRetryDelay = 50 * time.Millisecond

// maxCacheEntryBytes bounds a peer response: an entry holds aggregate
// metric maps, far below this.
const maxCacheEntryBytes = 64 << 20

// Peek returns the entry from the local memory+disk tiers only — the
// peer-serving path behind GET /v1/cache/{key}. It never triggers a
// peer fetch (no fetch loops between mutually-peered workers) and
// leaves the hit/miss counters alone: a peer's lookup is not this
// worker's workload. Memory recency and disk promotion still apply.
func (c *Cache) Peek(key string) (*core.RunResult, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, true
	}
	c.mu.Unlock()
	res, ok := c.fromDisk(key)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, dup := c.items[key]; dup {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).res, true
	}
	c.insert(key, res)
	return res, true
}

// Put implements core.TrialCache. The result must be treated as
// immutable from this point on.
func (c *Cache) Put(key string, r *core.RunResult) {
	c.mu.Lock()
	c.puts++
	if el, ok := c.items[key]; ok {
		// Same key means same content; just refresh recency.
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.insert(key, r)
	c.mu.Unlock()
	c.toDisk(key, r)
}

// insert adds an entry and evicts the LRU tail past capacity. Caller
// holds c.mu.
func (c *Cache) insert(key string, r *core.RunResult) {
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: r})
	for c.ll.Len() > c.maxEntries {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Stats is a point-in-time cache counter snapshot. PeerHits counts the
// subset of Hits served by fetching the entry from the key's hash-owner
// peer (DiskHits likewise counts local-disk promotions); both are
// included in Hits.
type Stats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	DiskHits  uint64 `json:"disk_hits"`
	PeerHits  uint64 `json:"peer_hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	// PeerRetries counts transient-status (429/5xx) peer-fetch retries;
	// PeerSkips counts fetches short-circuited because the health
	// monitor held the owner peer down.
	PeerRetries uint64 `json:"peer_retries"`
	PeerSkips   uint64 `json:"peer_skips"`
}

// HitRate returns hits / lookups, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:     c.ll.Len(),
		Capacity:    c.maxEntries,
		Hits:        c.hits,
		DiskHits:    c.diskHits,
		PeerHits:    c.peerHits,
		Misses:      c.misses,
		Puts:        c.puts,
		Evictions:   c.evictions,
		PeerRetries: c.peerRetries,
		PeerSkips:   c.peerSkips,
	}
}

// diskRecord is the persisted form of a cached result, and equally the
// GET /v1/cache/{key} peer wire format. Cached results are SLA-free by
// construction (verdicts are recomputed on every hit), so only the
// aggregate statistics are stored. encoding/json encodes float64 with
// the shortest representation that parses back exactly, so both the
// disk round trip and a peer hop preserve every bit. Entries written
// before the per-tenant pool was retired carry it under tenant_ones,
// tenant_below or tenant_availability; the decoder skips those keys.
type diskRecord struct {
	Scenario    string             `json:"scenario"`
	Trials      int                `json:"trials"`
	Metrics     map[string]float64 `json:"metrics"`
	CI          map[string]float64 `json:"ci"`
	EventsTotal uint64             `json:"events_total"`
}

// recordFrom projects a result onto its persisted/wire form.
func recordFrom(r *core.RunResult) diskRecord {
	return diskRecord{
		Scenario:    r.Scenario,
		Trials:      r.Trials,
		Metrics:     r.Metrics,
		CI:          r.CI,
		EventsTotal: r.EventsTotal,
	}
}

// decodeRecord rebuilds the (SLA-free) cached result from a disk entry or
// a peer's reply. An entry that does not parse is corrupt, and the caller
// treats it as a miss.
func decodeRecord(data []byte) (*core.RunResult, error) {
	var rec diskRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	return &core.RunResult{
		Scenario:    rec.Scenario,
		Trials:      rec.Trials,
		Metrics:     rec.Metrics,
		CI:          rec.CI,
		EventsTotal: rec.EventsTotal,
	}, nil
}

// producible reports whether some run could have made res. A peer's entry
// is outside input, and one that no run could have made — a metric every
// run records missing, a value not finite, a fraction outside [0, 1], no
// trial — is a miss, so the point runs here instead.
func producible(res *core.RunResult) bool {
	for i, name := range [...]string{"availability", "unavail_fraction", "zero_copy_fraction", "loss_prob",
		"mean_unavail_objects", "repairs", "repair_bytes_mb", "node_failures", "repair_makespan", "events"} {
		if v, ok := res.Metrics[name]; !ok || i < 4 && (v < 0 || v > 1) {
			return false
		}
	}
	for _, m := range [...]map[string]float64{res.Metrics, res.CI} {
		for _, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return res.Trials >= 1
}

// entryRecord is the log record of key's disk-tier entry, or nil for a
// result that cannot be encoded (a non-finite metric): memory-only.
func entryRecord(key string, r *core.RunResult) *journalRecord {
	data, err := json.Marshal(recordFrom(r))
	if err != nil {
		return nil
	}
	return &journalRecord{Kind: "entry", Key: key, Entry: data}
}

// toDisk appends key's entry to the disk tier, if there is one, and
// returns once it is durable.
func (c *Cache) toDisk(key string, r *core.RunResult) {
	if c.disk != nil {
		if rec := entryRecord(key, r); rec != nil {
			c.disk.put(key, rec)
		}
	}
}

// fromDisk reads key's entry from the disk tier. A frame that does not
// read back whole, or does not decode, is a miss.
func (c *Cache) fromDisk(key string) (*core.RunResult, bool) {
	if c.disk == nil {
		return nil, false
	}
	payload, ok := c.disk.read(key)
	head := appendString([]byte(`{"kind":"entry","key":`), key)
	head = append(head, `,"entry":`...)
	if !ok || len(payload) <= len(head) || !bytes.HasPrefix(payload, head) {
		return nil, false
	}
	res, err := decodeRecord(payload[len(head) : len(payload)-1])
	return res, err == nil
}

// readLegacyEntry reads a <key>.json file an older build wrote.
func readLegacyEntry(fs logFS, path string) (*core.RunResult, bool) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	data, err := io.ReadAll(io.NewSectionReader(f, 0, math.MaxInt64))
	if err != nil {
		return nil, false
	}
	res, err := decodeRecord(data)
	return res, err == nil
}

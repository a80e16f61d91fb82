package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"strconv"
	"sync"

	"repro/internal/dist"
	"repro/internal/repair"
)

// TrialCache memoizes completed trial statistics by content address. The
// Explorer consults it before simulating a design point and fills it
// afterwards, so overlapping sweeps — across queries, sessions and (with
// a disk-backed implementation) process restarts — reuse work instead of
// re-simulating. Implementations must be safe for concurrent use and
// must treat cached results as immutable.
//
// Correctness contract: a cached result is the byte-identical statistics
// of a fresh run of the same key. That holds because (a) CacheKey covers
// every input that can influence a run's output — the full scenario, the
// seed and every engine knob that changes the aggregation path — while
// excluding only Workers (runs are Workers-independent by construction)
// and the SLA list (checked after simulation, against cached results
// too), and (b) runs themselves are deterministic functions of that key.
type TrialCache interface {
	// GetContext returns the cached result for key, or ok=false. A lookup
	// that does remote I/O (the serving layer's peer tier) is bounded by
	// ctx, the sweep's: a cancelled sweep abandons the fetch and misses.
	GetContext(ctx context.Context, key string) (*RunResult, bool)
	// Put stores a completed (SLA-free) result under key.
	Put(key string, r *RunResult)
}

// Gate bounds simulation concurrency across independently-running
// sweeps. The serving layer injects one shared gate into every job's
// Explorer so the whole daemon respects a single worker budget, however
// many queries are in flight.
type Gate interface {
	// Acquire blocks until a slot is free or ctx is done.
	Acquire(ctx context.Context) error
	// Release frees a slot taken by Acquire.
	Release()
}

// CacheKey returns the content address of one (scenario, runner) trial
// batch: a fingerprint over a normalized key/value encoding of every
// field that determines the run's output. Scenario.Name and
// Runner.Workers are deliberately excluded (cosmetic / result-invariant),
// as are the SLAs (applied after simulation). Distributions enter via
// their spec-grammar String() form plus exact-formatted moments and
// quantiles (see appendDistKey), so parameters differing below String()'s
// 6-significant-digit rounding still produce distinct keys.
//
// The digest is SHA-256 over the fields sorted by name, each name and
// value length-prefixed — persisted disk caches, journal records and
// fleet ring ownership all hold these keys, so it must never change. The
// fields are written in that sorted order straight into one buffer and
// hashed once. A new field goes in at its sorted position
// (TestCacheKeyMatchesFingerprint compares against the sort-a-map form
// this replaced, kept in cachekey_test.go as the oracle).
func CacheKey(sc Scenario, r Runner) string {
	return cacheKey(&sc, &r, nil)
}

// cacheKey is CacheKey with the sweep's remembered distribution
// encodings, when there is a sweep.
func cacheKey(sc *Scenario, r *Runner, dists *distKeys) string {
	return walkKeys(sc, r, dists, nil)
}

// walkKeys is cacheKey that, when world is non-nil, also writes the
// point's worldKey there from the same walk: the digest of the same
// encoding with the three fields that do not shape a world — seed,
// runner.trials and runner.target_ci — cut out. The cache key's bytes are
// hashed first and do not change.
func walkKeys(sc *Scenario, r *Runner, dists *distKeys, world *worldKey) string {
	// The encoding (~2.2 KB for the default scenario) is handed to the
	// hash through an interface, so a local array would move to the heap
	// on every call; a pooled buffer does not.
	bufp := keyBufs.Get().(*[]byte)
	w := keyWriter{buf: (*bufp)[:0], dists: dists}
	w.bool("cluster.component_failures", sc.Cluster.ComponentFailures)
	w.str("cluster.cpu_spec", sc.Cluster.CPUSpec)
	w.str("cluster.disk_spec", sc.Cluster.DiskSpec)
	w.int("cluster.disks_per_node", sc.Cluster.DisksPerNode)
	w.float("cluster.link_latency", sc.Cluster.LinkLatency)
	w.str("cluster.mem_spec", sc.Cluster.MemSpec)
	w.str("cluster.nic_spec", sc.Cluster.NICSpec)
	w.dist("cluster.node_repair", sc.Cluster.NodeRepair)
	w.dist("cluster.node_ttf", sc.Cluster.NodeTTF)
	w.int("cluster.nodes_per_rack", sc.Cluster.NodesPerRack)
	w.int("cluster.racks", sc.Cluster.Racks)
	w.bool("cluster.switch_failures", sc.Cluster.SwitchFailures)
	w.str("cluster.switch_spec", sc.Cluster.SwitchSpec)
	w.float("cluster.uplink_mbps", sc.Cluster.UplinkMBps)
	w.float("horizon_hours", sc.HorizonHours)
	w.float("object_mb", sc.ObjectSizeMB)
	w.str("placement", sc.Placement)
	w.float("power.cap", sc.Power.CapFraction)
	w.float("power.cap_duration", sc.Power.CapDurationHours)
	w.float("power.cap_start", sc.Power.CapStartHours)
	w.float("power.carbon_intensity", sc.Power.CarbonKgPerKWh)
	w.bool("power.enabled", sc.Power.Enabled)
	w.float("power.generator_hours", sc.Power.GeneratorStartHours)
	w.float("power.generator_prob", sc.Power.GeneratorStartProb)
	w.float("power.idle_fraction", sc.Power.IdleFraction)
	w.str("power.pdu_spec", sc.Power.PDUSpec)
	w.int("power.pdus", sc.Power.PDUs)
	w.float("power.pue", sc.Power.PUE)
	w.float("power.ups_minutes", sc.Power.UPSMinutes)
	w.str("power.ups_spec", sc.Power.UPSSpec)
	w.dist("power.utility_repair", sc.Power.UtilityRepair)
	w.dist("power.utility_ttf", sc.Power.UtilityTTF)
	w.float("power.utilization", sc.Power.Utilization)
	w.dist("repair.detection", sc.Repair.Detection)
	w.int("repair.max_concurrent", repairSlots(sc.Repair))
	w.int("repair.mode", int(sc.Repair.Mode))
	// Empty since the runner lost its early-abort rule, and still written:
	// every persisted digest was hashed with it.
	w.str("runner.abort", "")
	w.bool("runner.antithetic", r.Antithetic)
	w.bool("runner.crn", r.CRN)
	w.float("runner.failure_bias", r.FailureBias)
	runStart := len(w.buf) // runner.target_ci and runner.trials, adjacent
	// 0 since the runner lost its early-stop rule, and still written:
	// every persisted digest was hashed with it.
	w.float("runner.target_ci", 0)
	w.int("runner.trials", r.Trials)
	runEnd := len(w.buf)
	w.open("scheme")
	w.buf = sc.Scheme.Append(w.buf)
	w.close()
	seedStart := len(w.buf)
	w.open("seed")
	w.buf = strconv.AppendUint(w.buf, sc.Seed, 10)
	w.close()
	seedEnd := len(w.buf)
	w.int("users", sc.Users)

	sum := sha256.Sum256(w.buf)
	if world != nil {
		// Cut the later field out first, so the earlier one's offsets hold.
		w.buf = append(w.buf[:seedStart], w.buf[seedEnd:]...)
		w.buf = append(w.buf[:runStart], w.buf[runEnd:]...)
		*world = sha256.Sum256(w.buf)
	}
	*bufp = w.buf
	keyBufs.Put(bufp)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:])
}

var keyBufs = sync.Pool{New: func() any {
	buf := make([]byte, 0, 4096)
	return &buf
}}

// keyWriter appends fields in the key's canonical encoding:
// name and value each prefixed with their length as 8 little-endian
// bytes. The value's length is filled in once the value has been
// appended, so no field needs a string of its own.
type keyWriter struct {
	buf   []byte
	value int // where the open field's value starts
	dists *distKeys
}

func (w *keyWriter) open(name string) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(len(name)))
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	w.value = len(w.buf)
}

func (w *keyWriter) close() {
	binary.LittleEndian.PutUint64(w.buf[w.value-8:], uint64(len(w.buf)-w.value))
}

func (w *keyWriter) str(name, v string) {
	w.open(name)
	w.buf = append(w.buf, v...)
	w.close()
}

func (w *keyWriter) int(name string, v int) {
	w.open(name)
	w.buf = strconv.AppendInt(w.buf, int64(v), 10)
	w.close()
}

func (w *keyWriter) float(name string, v float64) {
	w.open(name)
	if v == 0 && !math.Signbit(v) {
		w.buf = append(w.buf, '0') // half a key's floats are unset knobs
	} else {
		w.buf = strconv.AppendFloat(w.buf, v, 'g', -1, 64)
	}
	w.close()
}

func (w *keyWriter) bool(name string, v bool) {
	w.open(name)
	w.buf = strconv.AppendBool(w.buf, v)
	w.close()
}

func (w *keyWriter) dist(name string, d dist.Dist) {
	w.open(name)
	w.buf = w.dists.appendKey(w.buf, d)
	w.close()
}

// appendDistKey canonically encodes a distribution for fingerprinting
// (nil encodes as nothing). The spec-grammar String() form alone is not
// enough: it rounds parameters to 6 significant digits, so two
// distributions differing only beyond that (e.g. MLE fits of slightly
// different traces) would collide and the cache would serve one
// scenario's statistics for the other. Appending the exact
// (shortest-round-trip float64) encodings of the mean, variance and three
// quantiles makes a collision require the two distributions to agree
// bit-exactly on five functionals *and* share a family and 6-digit
// parameters — at which point they are the same sampler for every
// practical purpose.
func appendDistKey(dst []byte, d dist.Dist) []byte {
	if d == nil {
		return dst
	}
	dst = append(dst, d.String()...)
	for _, f := range [...]struct {
		tag string
		v   float64
	}{
		{"|m=", d.Mean()}, {"|v=", d.Variance()},
		{"|q25=", d.Quantile(0.25)}, {"|q50=", d.Quantile(0.5)}, {"|q90=", d.Quantile(0.9)},
	} {
		dst = append(dst, f.tag...)
		dst = strconv.AppendFloat(dst, f.v, 'g', -1, 64)
	}
	return dst
}

// distKeys remembers the appendDistKey encoding of the distributions a
// sweep's points have in common — the base scenario's, which every point
// copies — so each is encoded (a String() and three quantile inversions)
// once per sweep instead of once per point. A nil *distKeys remembers
// nothing. Safe for concurrent use.
type distKeys struct {
	mu   sync.Mutex
	seen []distKey
}

type distKey struct {
	d   dist.Dist
	key []byte
}

// maxDistKeys bounds the remembered set: a sweep that varies a
// distribution per point gains nothing from remembering them all, and
// the lookup is a linear scan.
const maxDistKeys = 16

func (m *distKeys) appendKey(dst []byte, d dist.Dist) []byte {
	// Only comparable distributions can be looked up with ==; an
	// Empirical or a Mixture holds slices and is encoded every time.
	if m == nil || d == nil || !reflect.TypeOf(d).Comparable() {
		return appendDistKey(dst, d)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.seen {
		if m.seen[i].d == d {
			return append(dst, m.seen[i].key...)
		}
	}
	start := len(dst)
	dst = appendDistKey(dst, d)
	if len(m.seen) < maxDistKeys {
		m.seen = append(m.seen, distKey{d, bytes.Clone(dst[start:])})
	}
	return dst
}

// repairSlots normalizes the concurrency knob: in Serial mode
// MaxConcurrent is ignored by the repair manager, so two configs that
// differ only there are the same run.
func repairSlots(c repair.Config) int {
	if c.Mode == repair.Serial {
		return 1
	}
	return c.MaxConcurrent
}

// cloneForSLA returns a copy whose SLA verdict fields can be written
// without mutating the (shared, immutable) cached result. Metric maps
// are shared read-only.
func (r *RunResult) cloneForSLA() *RunResult {
	c := *r
	c.Verdicts = nil
	c.AllMet = false
	return &c
}

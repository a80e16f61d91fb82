package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/wtql"
)

// dummyResult is a result some run could have made: it records the ten
// metrics every run does, so a peer may serve it.
func dummyResult(name string, avail float64) *core.RunResult {
	return &core.RunResult{
		Scenario: name,
		Trials:   4,
		Metrics: map[string]float64{"availability": avail, "unavail_fraction": 1 - avail, "zero_copy_fraction": 0,
			"loss_prob": 0, "mean_unavail_objects": 0.5, "repairs": 3, "repair_bytes_mb": 96, "node_failures": 2,
			"repair_makespan": 0.25, "events": 123},
		CI:          map[string]float64{"availability": 0.001},
		EventsTotal: 4321,
	}
}

func TestCacheLRUEvictionBounds(t *testing.T) {
	c, err := NewCache(4, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("key-%d", i), dummyResult("s", float64(i)))
	}
	st := c.Stats()
	if st.Entries != 4 {
		t.Fatalf("cache holds %d entries, want 4", st.Entries)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", st.Evictions)
	}
	// The four most recent survive; the rest are gone.
	for i := 0; i < 6; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%d", i)); ok {
			t.Fatalf("key-%d should have been evicted", i)
		}
	}
	for i := 6; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("key-%d should be cached", i)
		}
	}
}

func TestCacheLRURecencyOrder(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", dummyResult("a", 1))
	c.Put("b", dummyResult("b", 2))
	c.Get("a")                      // refresh a
	c.Put("c", dummyResult("c", 3)) // must evict b, not a
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("least-recently-used entry survived")
	}
}

// TestCacheDiskTierSurvivesRestart persists through one cache, then
// reads bit-identical results through a fresh cache on the same dir —
// the restart scenario.
func TestCacheDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab12", 16) // 64 hex chars like a real fingerprint
	want := dummyResult("persisted", 0.99912345678901234)
	c1.Put(key, want)

	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("restarted cache missed a persisted entry")
	}
	if got.Scenario != want.Scenario || got.Trials != want.Trials ||
		got.EventsTotal != want.EventsTotal {
		t.Fatalf("disk round trip changed scalars: %+v vs %+v", got, want)
	}
	for k, v := range want.Metrics {
		if got.Metrics[k] != v {
			t.Fatalf("metric %s: %v != %v (float not bit-exact through JSON)", k, got.Metrics[k], v)
		}
	}
	st := c2.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.DiskHits)
	}
	// The promoted entry now serves from memory.
	if _, ok := c2.Get(key); !ok {
		t.Fatal("promoted entry missing from memory tier")
	}
	if st2 := c2.Stats(); st2.DiskHits != 1 || st2.Hits != 2 {
		t.Fatalf("promotion stats wrong: %+v", st2)
	}
}

// TestCacheConcurrentDiskPromotion hammers one disk-tier key from many
// goroutines after a "restart": the promotion path must not insert
// duplicate LRU elements for the key (which would desync the list from
// the map and later evict the live entry).
func TestCacheConcurrentDiskPromotion(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ef56", 16)
	c1.Put(key, dummyResult("hot", 0.9))

	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := c2.Get(key); !ok {
				t.Error("disk-tier entry missed")
			}
		}()
	}
	wg.Wait()
	st := c2.Stats()
	if st.Entries != 1 {
		t.Fatalf("one key promoted into %d entries", st.Entries)
	}
	// Fill to capacity: the promoted key must survive exactly as one
	// entry and the map/list must stay in sync through evictions.
	for i := 0; i < 7; i++ {
		c2.Put(fmt.Sprintf("fill-%d", i), dummyResult("f", 0.5))
	}
	if _, ok := c2.Get(key); !ok {
		t.Fatal("promoted key lost after fills below capacity")
	}
	if st := c2.Stats(); st.Entries != 8 || st.Evictions != 0 {
		t.Fatalf("map/list desync: %+v", st)
	}
}

// TestStalePutTempFilesSweptOnOpen pins the temp-file-leak fix: a
// daemon killed between CreateTemp and Rename leaves a put-* file in
// the cache dir, and nothing else ever deletes it. NewCache must sweep
// them while leaving committed entries untouched.
func TestStalePutTempFilesSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("beef", 16)
	c1.Put(key, dummyResult("kept", 0.9))

	// Plant the wreckage of a writer that died mid-Put.
	stale := filepath.Join(dir, "put-1234567890")
	if err := os.WriteFile(stale, []byte(`{"torn":`), 0o600); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale put-* temp file survived reopen: stat err = %v", err)
	}
	if _, ok := c2.Get(key); !ok {
		t.Fatal("sweep removed a committed cache entry")
	}
}

// TestCacheCorruptDiskEntryIsAMiss: an entry whose frame no longer reads
// back whole — bytes flipped under an open cache, or found damaged by the
// scan at open — is a miss, and so is a <key>.json file from an older
// build that does not parse, which is left where it is.
func TestCacheCorruptDiskEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	key := strings.Repeat("cd34", 16)
	c1, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key, dummyResult("kept", 0.9))
	c2, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := segments(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); ok {
		t.Fatal("an entry whose CRC fails was served")
	}
	c3, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get(key); ok {
		t.Fatal("a damaged entry was indexed at open")
	}
	torn := filepath.Join(dir, strings.Repeat("ab12", 16)+".json")
	if err := os.WriteFile(torn, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	c4, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c4.Get(strings.Repeat("ab12", 16)); ok {
		t.Fatal("corrupt legacy entry served as a hit")
	}
	if _, err := os.Stat(torn); err != nil {
		t.Fatalf("a legacy entry that was not imported is gone: %v", err)
	}
}

// TestCacheImportsLegacyEntries: the <key>.json files an older build
// wrote are imported into the log at open and removed; each then serves
// from the disk tier as the result its file holds.
func TestCacheImportsLegacyEntries(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent_be31c54", "cache"), dir)
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 7 {
		t.Fatalf("fixture holds %d entries (%v)", len(files), err)
	}
	want := map[string]*core.RunResult{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if want[strings.TrimSuffix(filepath.Base(f), ".json")], err = decodeRecord(data); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(left) != 0 || len(segments(t, dir)) != 1 {
		t.Fatalf("after the import: %v left, segments %v", left, segments(t, dir))
	}
	for key, res := range want {
		got, ok := c.Get(key)
		if !ok || got.Trials != res.Trials || got.EventsTotal != res.EventsTotal || !sameBits(got.Metrics, res.Metrics) || !sameBits(got.CI, res.CI) {
			t.Fatalf("%s serves %+v, its file held %+v", key, got, res)
		}
	}
	if st := c.Stats(); st.DiskHits != 7 {
		t.Fatalf("%d disk hits, want 7", st.DiskHits)
	}
}

// parentCacheEntries returns the disk-tier entries earlier commits wrote,
// each with a per-tenant pool this build no longer reads: seven by
// be31c54, which hold it dense (tenant_availability), then one by
// d181683, which holds it split (tenant_ones, tenant_below).
func parentCacheEntries(t testing.TB) [][]byte {
	t.Helper()
	var files []string
	for _, parent := range []string{"parent_be31c54", "parent_d181683"} {
		more, err := filepath.Glob(filepath.Join("testdata", parent, "cache", "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, more...)
	}
	if len(files) != 8 {
		t.Fatalf("parent cache entries: %d files, want 8", len(files))
	}
	var entries [][]byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, data)
	}
	return entries
}

// TestReadsParentTenantPool: an entry an earlier commit wrote with a
// per-tenant pool, dense or split, decodes to the metrics, intervals,
// trial count and event total it holds, bit for bit, and is written
// back without the pool.
func TestReadsParentTenantPool(t *testing.T) {
	for i, data := range parentCacheEntries(t) {
		var want struct {
			Trials      int                `json:"trials"`
			Metrics     map[string]float64 `json:"metrics"`
			CI          map[string]float64 `json:"ci"`
			EventsTotal uint64             `json:"events_total"`
			Ones        int64              `json:"tenant_ones"`
			Below       []float64          `json:"tenant_below"`
			Dense       []float64          `json:"tenant_availability"`
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if dense, split := len(want.Dense) > 0, want.Ones > 0 && len(want.Below) > 0; dense == split || dense != (i < 7) {
			t.Fatalf("entry %d holds %d dense values, %d ones and %d others: not the pool its commit wrote", i, len(want.Dense), want.Ones, len(want.Below))
		}
		res, err := decodeRecord(data)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if res.Trials != want.Trials || res.EventsTotal != want.EventsTotal || len(want.Metrics) == 0 ||
			!sameBits(res.Metrics, want.Metrics) || !sameBits(res.CI, want.CI) {
			t.Fatalf("entry %d decodes to %+v, the file holds %+v", i, res, want)
		}
		enc, err := json.Marshal(recordFrom(res))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(enc), "tenant_") {
			t.Fatalf("entry %d re-encodes as %s", i, enc)
		}
	}
}

// FuzzCacheRecord: arbitrary bytes through the disk-tier and peer decoder
// never panic. They give a miss, or a result whose re-encoding decodes to
// the same result.
func FuzzCacheRecord(f *testing.F) {
	for _, data := range parentCacheEntries(f) {
		f.Add(data)
	}
	current, err := json.Marshal(recordFrom(dummyResult("current", 0.5)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(current)
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeRecord(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(recordFrom(res))
		if err != nil {
			t.Fatalf("decoded result does not encode: %v", err)
		}
		again, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoding %s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("re-encoding changed the result:\n%+v\n%+v", res, again)
		}
	})
}

// TestEngineDiskCacheRestartGolden is the end-to-end restart check: a
// sweep served entirely from a previous process's disk tier renders
// byte-identical output to the cold run that populated it.
func TestEngineDiskCacheRestartGolden(t *testing.T) {
	dir := t.TempDir()
	query := `SIMULATE availability
VARY cluster.nodes IN (5, 7)
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200
WHERE sla.availability >= 0.2`

	run := func() (*wtql.ResultSet, *Cache) {
		cache, err := NewCache(8, dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := &wtql.Engine{Trials: 2, Cache: cache}
		rs, err := eng.Execute(query)
		if err != nil {
			t.Fatal(err)
		}
		return rs, cache
	}

	cold, _ := run()
	warm, cache := run()
	if cold.Render() != warm.Render() {
		t.Fatalf("restart-warm render differs:\n--- cold ---\n%s--- warm ---\n%s",
			cold.Render(), warm.Render())
	}
	if warm.CacheHits != warm.Executed {
		t.Fatalf("warm run hit %d/%d points across restart", warm.CacheHits, warm.Executed)
	}
	if st := cache.Stats(); st.DiskHits != uint64(warm.Executed) {
		t.Fatalf("expected all %d hits from disk, stats %+v", warm.Executed, st)
	}
}

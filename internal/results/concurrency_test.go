package results

import (
	"fmt"
	"sync"
	"testing"
)

// TestStoreConcurrentAccess exercises parallel Add/Get/NearestK/Filter so
// `go test -race` proves the store is safe when the serving layer shares
// one archive across many query jobs.
func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	// Pre-seed so readers have something to find immediately.
	for i := 0; i < 16; i++ {
		if _, err := s.Add(Record{
			Scenario: "seed",
			Config:   map[string]string{"cluster.nodes": fmt.Sprint(10 + i), "storage.replication": "3"},
			Metrics:  map[string]float64{"availability": 0.999},
		}); err != nil {
			t.Fatalf("seed add: %v", err)
		}
	}

	const writers, readers, rounds = 4, 4, 200
	var wg sync.WaitGroup
	ids := make(chan int, writers*rounds)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id, err := s.Add(Record{
					Scenario: "w",
					Config: map[string]string{
						"cluster.nodes":       fmt.Sprint(10 + (w*rounds+i)%50),
						"storage.replication": fmt.Sprint(3 + i%3),
					},
					Metrics: map[string]float64{"availability": 0.99},
				})
				if err != nil {
					t.Errorf("add: %v", err)
					return
				}
				ids <- id
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := map[string]string{"cluster.nodes": "20", "storage.replication": "3"}
			for i := 0; i < rounds; i++ {
				if _, err := s.Get(i % 16); err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if n := s.NearestK(q, 3); len(n) == 0 {
					t.Error("nearestk: empty result on non-empty store")
					return
				}
				s.Filter(map[string]string{"storage.replication": "3"})
				_ = s.Len()
			}
		}()
	}
	wg.Wait()
	close(ids)

	seen := make(map[int]bool)
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d issued under concurrency", id)
		}
		seen[id] = true
	}
	if want := 16 + writers*rounds; s.Len() != want {
		t.Fatalf("store has %d records, want %d", s.Len(), want)
	}
}

// TestFingerprintInsertionOrder checks the canonical encoding: maps built
// in different insertion orders fingerprint identically.
func TestFingerprintInsertionOrder(t *testing.T) {
	keys := []string{"cluster.racks", "users", "seed", "node.ttf", "runner.trials"}
	vals := []string{"3", "1000", "1", "weibull(shape=0.7, scale=12000)", "20"}

	forward := make(map[string]string)
	for i, k := range keys {
		forward[k] = vals[i]
	}
	backward := make(map[string]string)
	for i := len(keys) - 1; i >= 0; i-- {
		backward[keys[i]] = vals[i]
	}
	if a, b := Fingerprint(forward), Fingerprint(backward); a != b {
		t.Fatalf("fingerprint depends on insertion order: %s vs %s", a, b)
	}
}

// TestFingerprintDistinguishes checks that the length-prefixed encoding
// cannot confuse adjacent fields or near-miss configs.
func TestFingerprintDistinguishes(t *testing.T) {
	cases := []map[string]string{
		{"a": "bc"},
		{"ab": "c"},
		{"a": "b", "c": ""},
		{"a": "", "c": "b"},
		{"a": "b"},
		{"a": "b", "c": "d"},
		{"cluster.nodes": "30", "rep": "3"},
		{"cluster.nodes": "303", "rep": ""},
		{"cluster.nodes": "3", "rep": "03"},
	}
	seen := make(map[string]int)
	for i, kv := range cases {
		fp := Fingerprint(kv)
		if j, dup := seen[fp]; dup {
			t.Fatalf("configs %d and %d collide: %v vs %v", i, j, cases[i], cases[j])
		}
		seen[fp] = i
	}
}

// TestFingerprintStable pins the encoding: any change to it invalidates
// every persisted cache entry, so it must be a deliberate one.
func TestFingerprintStable(t *testing.T) {
	got := Fingerprint(map[string]string{"k": "v"})
	if len(got) != 64 {
		t.Fatalf("fingerprint should be 64 hex chars, got %d (%s)", len(got), got)
	}
	if got2 := Fingerprint(map[string]string{"k": "v"}); got2 != got {
		t.Fatalf("fingerprint not deterministic: %s vs %s", got, got2)
	}
	// A literal taken from the commit before Fingerprint stopped copying
	// each field into the hash (be31c54): the digest of a given map is
	// what every persisted cache entry is filed under.
	const pinned = "a91e630d207b257efa4fa5ecc51c896351925bfe1377c157887c4eda5660357d"
	if got := Fingerprint(map[string]string{
		"k": "v", "cluster.racks": "3", "node.ttf": "weibull(shape=0.7, scale=12000)",
		"": "empty key", "empty value": "",
	}); got != pinned {
		t.Fatalf("fingerprint changed: %s, pinned %s", got, pinned)
	}
	if got, want := Fingerprint(nil), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"; got != want {
		t.Fatalf("fingerprint of no fields = %s, want SHA-256 of nothing %s", got, want)
	}
}

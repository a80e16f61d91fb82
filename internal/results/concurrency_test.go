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

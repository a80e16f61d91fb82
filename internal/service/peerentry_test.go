package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/wtql"
)

// peerQuery is a two-point sweep, every point of which a peer may serve.
const peerQuery = `SIMULATE availability
VARY cluster.nodes IN (5, 7)
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200`

// fakePeer is a fleet member that answers every GET /v1/cache/{key} with
// the same body.
type fakePeer struct {
	*httptest.Server
	body atomic.Pointer[[]byte]
}

func newFakePeer(t testing.TB) *fakePeer {
	p := &fakePeer{}
	p.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/cache/") {
			http.NotFound(w, r)
			return
		}
		w.Write(*p.body.Load())
	}))
	t.Cleanup(p.Close)
	return p
}

// sweep runs peerQuery on a cache in dir (memory-only when dir is empty),
// peered with p answering body, and returns the rendered table and the
// cache's counters.
func (p *fakePeer) sweep(t testing.TB, dir string, body []byte) (string, Stats) {
	t.Helper()
	p.body.Store(&body)
	cache, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	self := "http://self.invalid"
	cache.EnablePeering([]string{p.URL, self}, self, nil)
	return runPeerQuery(t, cache), cache.Stats()
}

// runPeerQuery runs peerQuery on cache, nil for none, and renders it.
func runPeerQuery(t testing.TB, cache *Cache) string {
	t.Helper()
	eng := &wtql.Engine{Trials: 2}
	if cache != nil {
		eng.Cache = cache
	}
	rs, err := eng.Execute(peerQuery)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Render()
}

// TestPeerEntryOutsideInput: a peer's entry that no run could have made
// is a counted miss, neither promoted nor written to disk, and the point
// runs here: the sweep renders the table it renders with no peer, byte
// for byte. Each body below, served for every point, used to be taken:
// the first failed the job, the other two rendered their availability.
func TestPeerEntryOutsideInput(t *testing.T) {
	want := runPeerQuery(t, nil)
	p := newFakePeer(t)
	for _, body := range []string{
		`{}`,
		`{"metrics":{"availability":2}}`,
		`{"trials":3,"metrics":{"availability":0.5,"events":1}}`,
	} {
		dir := t.TempDir()
		got, st := p.sweep(t, dir, []byte(body))
		if got != want {
			t.Errorf("peer body %s renders\n%s\nwithout a peer\n%s", body, got, want)
		}
		if st.PeerHits != 0 || st.Hits != 0 || st.Misses != 2 {
			t.Errorf("peer body %s: %+v, want 2 misses and no hit", body, st)
		}
		// What the disk tier holds is what this worker ran.
		fresh, err := NewCache(8, dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := runPeerQuery(t, fresh); got != want || fresh.Stats().DiskHits != 2 {
			t.Errorf("peer body %s: the disk tier renders\n%s\n(%+v)", body, got, fresh.Stats())
		}
	}
	// The fake peer is reached: an entry some run could have made is served.
	served, err := json.Marshal(recordFrom(dummyResult("served", 0.75)))
	if err != nil {
		t.Fatal(err)
	}
	if _, st := p.sweep(t, "", served); st.PeerHits != 2 {
		t.Fatalf("a producible peer entry: %+v, want 2 peer hits", st)
	}
}

// FuzzPeerEntry: arbitrary bytes served as GET /v1/cache/{key} never
// panic. A sweep either misses at the peer and renders the no-peer table
// byte for byte, or is served entries that some run could have made.
func FuzzPeerEntry(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"metrics":{"availability":2}}`,
		`{"trials":3,"metrics":{"availability":0.5,"events":1}}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	served, err := json.Marshal(recordFrom(dummyResult("served", 0.75)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(served)
	want := runPeerQuery(f, nil)
	p := newFakePeer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		got, st := p.sweep(t, "", body)
		if st.PeerHits == 0 {
			if got != want {
				t.Fatalf("a missed peer entry renders\n%s\nwithout a peer\n%s", got, want)
			}
			return
		}
		var rec struct {
			Trials  int                `json:"trials"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatalf("served an entry that does not decode: %v", err)
		}
		if rec.Trials < 1 || len(rec.Metrics) < 10 {
			t.Fatalf("served an entry of %d trials and %d metrics", rec.Trials, len(rec.Metrics))
		}
		for _, name := range []string{"availability", "unavail_fraction", "zero_copy_fraction", "loss_prob"} {
			if v, ok := rec.Metrics[name]; !ok || !(v >= 0 && v <= 1) {
				t.Fatalf("served an entry whose %s is %v", name, v)
			}
		}
	})
}

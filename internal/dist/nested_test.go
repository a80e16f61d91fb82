package dist_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/service"
)

// depthLimit is how deep Parse lets a spec nest. The limit is unexported;
// the refusal checked below must name this number.
const depthLimit = 200

// nested is a spec depth levels deep: depth-1 mixtures around an
// exponential.
func nested(depth int) string {
	return strings.Repeat("mix(1*", depth-1) + "exp(mean=500)" + strings.Repeat(")", depth-1)
}

// within runs f and fails t if it has not returned after d. f keeps running
// past a failure: nothing here can stop it.
func within(t *testing.T, what string, d time.Duration, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s took longer than %v", what, d)
	}
}

// TestNestedMixtureIsCheap: a mixture spec costs its length, not 2^depth.
// Every cache key encodes each distribution's variance (core.CacheKey), so
// when a mixture asked each component for its variance twice, a
// depth-40 spec in a query kept the daemon computing for hours, past any
// cancellation. A spec at the nesting limit parses, prints and answers
// Mean, Variance and Quantile at once; one level deeper is refused; and a
// daemon answers a one-trial query carrying a depth-40 spec within a
// second. The variances are the ones the two-call form computed, bit for
// bit, and the printed spec is the one fmt printed.
func TestNestedMixtureIsCheap(t *testing.T) {
	within(t, fmt.Sprintf("a spec %d deep", depthLimit), time.Second, func() error {
		s := nested(depthLimit)
		d, err := dist.Parse(s)
		if err != nil {
			return err
		}
		if got := d.String(); got != s {
			return fmt.Errorf("prints %.40q…, want the spec it was parsed from", got)
		}
		if m, v, q := d.Mean(), d.Variance(), d.Quantile(0.9); math.Abs(m-500) > 1e-9 || math.Abs(v-250000) > 1e-6 || math.Abs(q-500*math.Log(10)) > 1e-6 {
			return fmt.Errorf("mean %v, variance %v, q90 %v; want the exponential's", m, v, q)
		}
		return nil
	})
	if _, err := dist.Parse(nested(depthLimit + 1)); err == nil || !strings.Contains(err.Error(), fmt.Sprint(depthLimit)) {
		t.Fatalf("a spec %d deep: %v, want a refusal naming the limit %d", depthLimit+1, err, depthLimit)
	}

	// Uneven weights at every level, so each level's variance carries
	// rounding the two-call form would have to reproduce.
	spec := "exp(mean=7)"
	for i := 1; i <= 12; i++ {
		spec = fmt.Sprintf("mix(0.%d*%s, 0.%d*weibull(shape=0.%d, scale=%d))", i%9+1, spec, 9-i%9, i%7+3, 100*i)
		d, err := dist.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.Variance(), twoCallVariance(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("depth %d: variance %v, the two-call form gives %v", i+1, got, want)
		}
		if got, want := d.String(), sprintfString(d); got != want {
			t.Fatalf("depth %d: prints %q, fmt printed %q", i+1, got, want)
		}
	}

	srv, err := service.New(service.Config{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	query := `SIMULATE availability VARY cluster.nodes IN (5)
WITH users = 10, object_mb = 10, trials = 1, horizon_hours = 100, node.ttf = '` + nested(40) + `'`
	// The deadline rides the request: a client gone at one second is what
	// lets this test end on a daemon that is still computing.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/query", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("a one-trial query with a spec 40 deep: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("a one-trial query with a spec 40 deep: %v", err)
	}
	if !strings.Contains(string(body), `{"type":"result"`) {
		t.Fatalf("a one-trial query with a spec 40 deep answered\n%s", body)
	}
}

// twoCallVariance is Mixture.Variance as it was: each component asked for
// its variance twice (and so, nested, 2^depth times).
func twoCallVariance(d dist.Dist) float64 {
	m, ok := d.(dist.Mixture)
	if !ok {
		return d.Variance()
	}
	mu := m.Mean()
	var second float64
	for _, c := range m.Components() {
		cm := c.Dist.Mean()
		if math.IsInf(cm, 0) || math.IsInf(twoCallVariance(c.Dist), 0) {
			return math.Inf(1)
		}
		second += c.Weight * (twoCallVariance(c.Dist) + cm*cm)
	}
	return second - mu*mu
}

// sprintfString is Mixture.String as it was, for weights that sum to 1:
// fmt's %.6g of each normalized weight.
func sprintfString(d dist.Dist) string {
	m, ok := d.(dist.Mixture)
	if !ok {
		return d.String()
	}
	var parts []string
	for _, c := range m.Components() {
		parts = append(parts, fmt.Sprintf("%.6g*%s", c.Weight, sprintfString(c.Dist)))
	}
	return "mix(" + strings.Join(parts, ", ") + ")"
}

package hardware

import (
	"math"
	"strings"
	"testing"
)

func TestLoadJSONRegistersSpecs(t *testing.T) {
	c := NewCatalog()
	data := `[
	  {
	    "name": "hdd-archive", "kind": "disk",
	    "capacity_gb": 8000, "throughput_mbps": 180, "iops": 100,
	    "cost_usd": 250, "power_watts": 9,
	    "ttf": "weibull(shape=0.7, scale=250000)",
	    "repair": "lognormal(mean=16, cv=1.2)"
	  },
	  {
	    "name": "nic-100g", "kind": "nic",
	    "throughput_mbps": 12500,
	    "cost_usd": 1500, "power_watts": 20,
	    "ttf": "exp(mean=500000)",
	    "repair": "mix(0.9*det(2), 0.1*det(24))"
	  }
	]`
	if err := c.LoadJSON([]byte(data)); err != nil {
		t.Fatal(err)
	}
	sp, err := c.Get("hdd-archive")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != KindDisk || sp.CapacityGB != 8000 {
		t.Errorf("spec fields wrong: %+v", sp)
	}
	if err := sp.Validate(); err != nil {
		t.Errorf("loaded spec invalid: %v", err)
	}
	nic, err := c.Get("nic-100g")
	if err != nil {
		t.Fatal(err)
	}
	// 0.9*2 + 0.1*24 = 4.2 hour mean repair.
	if got := nic.Repair.Mean(); math.Abs(got-4.2) > 1e-9 {
		t.Errorf("mixture repair mean = %v, want 4.2", got)
	}
}

// negativeInts is a spec whose only fault is its negative integer
// attributes.
const negativeInts = `[{"name": "cpu-neg", "kind": "cpu", "cores": -4, "ports": -2, "cost_usd": 100,
  "power_watts": 50, "ttf": "exp(mean=500)", "repair": "det(2)"}]`

func TestLoadJSONRejectsBadEntries(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"not json", `{`, "parsing"},
		{"unknown kind", `[{"name": "x", "kind": "quantum", "ttf": "det(1)", "repair": "det(1)"}]`, "kind"},
		{"bad dist spec", `[{"name": "x", "kind": "disk", "ttf": "frechet(1)", "repair": "det(1)"}]`, "frechet"},
		{"missing dists", `[{"name": "x", "kind": "disk"}]`, "missing TTF"},
		{"empty name", `[{"kind": "disk", "ttf": "det(1)", "repair": "det(1)"}]`, "empty name"},
		{"negative cores and ports", negativeInts, "negative attribute"},
		{"negative cores", `[{"name": "x", "kind": "cpu", "cores": -1, "ttf": "det(1)", "repair": "det(1)"}]`, "negative attribute"},
		{"negative ports", `[{"name": "x", "kind": "switch", "ports": -1, "ttf": "det(1)", "repair": "det(1)"}]`, "negative attribute"},
	}
	for _, c := range cases {
		err := NewCatalog().LoadJSON([]byte(c.data))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// Duplicate against an existing entry.
	c := DefaultCatalog()
	dup := `[{"name": "hdd-7200", "kind": "disk", "ttf": "det(1)", "repair": "det(1)"}]`
	if err := c.LoadJSON([]byte(dup)); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestLoadJSONIsAtomic(t *testing.T) {
	c := NewCatalog()
	// Entry 2 is broken; entry 1 must NOT be registered.
	data := `[
	  {"name": "good", "kind": "disk", "ttf": "det(1)", "repair": "det(1)"},
	  {"name": "bad", "kind": "quantum", "ttf": "det(1)", "repair": "det(1)"}
	]`
	if err := c.LoadJSON([]byte(data)); err == nil {
		t.Fatal("broken catalog accepted")
	}
	if _, err := c.Get("good"); err == nil {
		t.Error("failed load left entries behind (not atomic)")
	}
	// Retry with the fixed file succeeds.
	fixed := `[
	  {"name": "good", "kind": "disk", "ttf": "det(1)", "repair": "det(1)"},
	  {"name": "bad", "kind": "cpu", "ttf": "det(1)", "repair": "det(1)"}
	]`
	if err := c.LoadJSON([]byte(fixed)); err != nil {
		t.Fatalf("retry after fix failed: %v", err)
	}
	// Intra-batch duplicates are caught up front too.
	dup := `[
	  {"name": "twin", "kind": "disk", "ttf": "det(1)", "repair": "det(1)"},
	  {"name": "twin", "kind": "disk", "ttf": "det(1)", "repair": "det(1)"}
	]`
	if err := NewCatalog().LoadJSON([]byte(dup)); err == nil {
		t.Error("intra-batch duplicate accepted")
	}
}

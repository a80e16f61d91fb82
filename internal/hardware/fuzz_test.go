package hardware

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/dist"
)

// FuzzCatalogLoadJSON: any input either fails and leaves the catalog's
// names as they were — the load is atomic — or adds exactly the names it
// lists, each of which validates, is what Get returns under its name, and
// has failure and repair models whose String() parses back to the same
// String(). The catalog loaded into is the default one, so a name it
// already holds is a duplicate.
func FuzzCatalogLoadJSON(f *testing.F) {
	for _, s := range []string{
		// catalog_json_test.go
		`[
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
]`,
		`{`,
		`[{"name": "x", "kind": "quantum", "ttf": "det(1)", "repair": "det(1)"}]`,
		`[{"name": "x", "kind": "disk", "ttf": "frechet(1)", "repair": "det(1)"}]`,
		`[{"name": "x", "kind": "disk"}]`,
		`[{"kind": "disk", "ttf": "det(1)", "repair": "det(1)"}]`,
		negativeInts,
		`[{"name": "x", "kind": "cpu", "cores": -1, "ttf": "det(1)", "repair": "det(1)"}]`,
		`[{"name": "x", "kind": "switch", "ports": -1, "ttf": "det(1)", "repair": "det(1)"}]`,
		`[{"name": "hdd-7200", "kind": "disk", "ttf": "det(1)", "repair": "det(1)"}]`,
		`[
  {"name": "good", "kind": "disk", "ttf": "det(1)", "repair": "det(1)"},
  {"name": "bad", "kind": "quantum", "ttf": "det(1)", "repair": "det(1)"}
]`,
		`[
  {"name": "good", "kind": "disk", "ttf": "det(1)", "repair": "det(1)"},
  {"name": "bad", "kind": "cpu", "ttf": "det(1)", "repair": "det(1)"}
]`,
		`[
  {"name": "twin", "kind": "disk", "ttf": "det(1)", "repair": "det(1)"},
  {"name": "twin", "kind": "disk", "ttf": "det(1)", "repair": "det(1)"}
]`,
		// edges
		`[]`, `null`, `[null]`, `[{"name": "x", "kind": "ups", "ttf": null, "repair": "det(1)"}]`,
		`[{"name": "x", "NAME": "y", "kind": "pdu", "ttf": "det(1)", "repair": "det(1)"}]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := DefaultCatalog()
		before := c.Names()
		if err := c.LoadJSON(data); err != nil {
			if after := c.Names(); !slices.Equal(after, before) {
				t.Fatalf("a failed load (%v) changed the names %v to %v", err, before, after)
			}
			return
		}
		var listed []struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(data, &listed); err != nil {
			t.Fatalf("a load succeeded on input that is not a list of named entries: %v", err)
		}
		want := slices.Clone(before)
		for _, e := range listed {
			want = append(want, e.Name)
		}
		slices.Sort(want)
		if after := c.Names(); !slices.Equal(after, want) {
			t.Fatalf("the load turned the names %v into %v, want %v", before, after, want)
		}
		for _, e := range listed {
			sp, err := c.Get(e.Name)
			if err != nil {
				t.Fatal(err)
			}
			if sp.Name != e.Name {
				t.Fatalf("Get(%q) returned %q", e.Name, sp.Name)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("loaded spec %q does not validate: %v", e.Name, err)
			}
			for _, d := range []dist.Dist{sp.TTF, sp.Repair} {
				printed := d.String()
				back, err := dist.Parse(printed)
				if err != nil {
					t.Fatalf("spec %q's model prints %q, which does not parse: %v", e.Name, printed, err)
				}
				if again := back.String(); again != printed {
					t.Fatalf("spec %q's model prints %q, which parses back to %q", e.Name, printed, again)
				}
			}
		}
	})
}

package wtql

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// planOutcome is everything e's planning decides about a query, in one
// line: its points' cache keys and scenarios (digested), the runner and
// explorer settings the WITH overlay resolved to — or the error, verbatim.
// The retired early-stop rule's target_ci is printed as the 0 every query
// that still plans runs at, so the pinned lines of those queries match.
func planOutcome(e *Engine, query string) string {
	q, err := Parse(query)
	if err != nil {
		return "error: " + err.Error()
	}
	plan, err := e.Plan(q)
	if err != nil {
		return "error: " + err.Error()
	}
	keys, err := plan.PointKeys()
	if err != nil {
		return "error: " + err.Error()
	}
	scenarios := sha256.New()
	for i := range keys {
		sc, err := plan.ex.Scenario(i)
		if err != nil {
			return "error: " + err.Error()
		}
		fmt.Fprintf(scenarios, "%+v\n", sc)
	}
	r := plan.runner
	margin := "off"
	if plan.ex.Screen != nil {
		margin = fmt.Sprint(plan.ex.Screen.Margin)
	}
	return fmt.Sprintf("points=%d keys=%x scenarios=%x trials=%d target_ci=0 crn=%t antithetic=%t failure_bias=%g workers=%d screen=%s prune=%t slas=%d",
		len(keys), sha256.Sum256([]byte(strings.Join(keys, "\n"))), scenarios.Sum(nil)[:8],
		r.Trials, r.CRN, r.Antithetic, r.FailureBias, plan.ex.Workers, margin, plan.prune, len(plan.slas))
}

// TestPlansMeanWhatTheyMeant: nothing a query meant at 7ca0849 — the
// commit before the parameter table replaced the map of closures — means
// something else now. testdata/plans_7ca0849.ndjson holds planOutcome, as
// that commit computed it, for every query text in the repository's tests,
// README, CI and bench/workloads.go's rendered workloads, and for each of
// the 38 parameters and 8 execution settings that existed then against a
// spread of good and bad values, in WITH and in VARY: the same keys, the
// same scenarios (every field, printed), the same settings, the same error
// text. There are two exceptions. The retired target_ci row: each of the
// 13 pinned queries that names it — in WITH at good and bad values, and in
// VARY — is now refused with the retired-row error, and no other is. And a
// query without VARY, which 7ca0849 refused, is now the one point its WITH
// clause describes: each of the 2 pinned ones plans to one point keyed as
// its VARY form is, the query that varies one value it already has.
func TestPlansMeanWhatTheyMeant(t *testing.T) {
	pinned := pinnedPlans(t)
	retired := "error: " + retiredParams["target_ci"].Error()
	onePoint := map[string]string{
		"SIMULATE availability":                 "SIMULATE availability VARY users IN (1000)",
		"SIMULATE availability WITH users = 10": "SIMULATE availability VARY users IN (10)",
	}
	namesIt, noVary := 0, 0
	for _, p := range pinned {
		if p[1] == "error: wtql: query needs at least one VARY clause" {
			noVary++
			form, ok := onePoint[p[0]]
			if !ok {
				t.Errorf("%s: a query without VARY that is not one of the two named", p[0])
				continue
			}
			_, key, plan := planned(t, p[0])
			if _, formKey, _ := planned(t, form); plan.NumPoints() != 1 || key != formKey {
				t.Errorf("%s: %d points keyed %s, want one keyed as %s is, %s", p[0], plan.NumPoints(), key, form, formKey)
			}
			continue
		}
		want := p[1]
		if strings.Contains(p[0], "target_ci") {
			namesIt++
			want = retired
		}
		if got := planOutcome(&Engine{}, p[0]); got != want {
			t.Errorf("%s\n   now: %s\nparent: %s", p[0], got, want)
		}
	}
	if namesIt != 13 {
		t.Errorf("%d pinned queries name target_ci, want the 13 the file was written with", namesIt)
	}
	if noVary != len(onePoint) {
		t.Errorf("%d pinned queries have no VARY, want the %d named", noVary, len(onePoint))
	}
	if len(pinned) < 700 {
		t.Fatalf("only %d pinned queries read", len(pinned))
	}
}

// pinnedPlans reads testdata/plans_7ca0849.ndjson: [query, outcome] pairs.
func pinnedPlans(tb testing.TB) [][2]string {
	return readLines[[2]string](tb, "testdata/plans_7ca0849.ndjson")
}

// readLines decodes an NDJSON file, one T a line.
func readLines[T any](tb testing.TB, path string) (out []T) {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	lines := bufio.NewScanner(f)
	for lines.Scan() {
		var v T
		if err := json.Unmarshal(lines.Bytes(), &v); err != nil {
			tb.Fatal(err)
		}
		out = append(out, v)
	}
	if err := lines.Err(); err != nil {
		tb.Fatal(err)
	}
	return out
}

// withForm is README's "SET → WITH" table: for every SET statement in
// testdata/set_84db149.ndjson, the WITH assignments that say the same. Two
// are not a rename: a session cap of 0 was no cap, and a carbon intensity
// without a cap left power off — assigning any power.* switches it on, so
// power.enabled = FALSE must come last.
var withForm = map[string]string{
	"SET explore.screen = on":                            "screen = TRUE",
	"SET explore.screen = off":                           "screen = FALSE",
	"SET explore.screen = TRUE":                          "screen = TRUE",
	"SET explore.screen = 'false'":                       "screen = FALSE",
	"SET explore.screen_margin = 0":                      "screen_margin = 0",
	"SET explore.screen_margin = 1.5":                    "screen_margin = 1.5",
	"SET explore.screen = on, explore.screen_margin = 0": "screen = TRUE, screen_margin = 0",
	"SET explore.screen = on, explore.screen_margin = 2": "screen = TRUE, screen_margin = 2",
	"SET runner.crn = on":                                "crn = TRUE",
	"SET runner.crn = off":                               "crn = FALSE",
	"SET runner.crn = TRUE":                              "crn = TRUE",
	"SET runner.antithetic = on":                         "antithetic = TRUE",
	"SET runner.antithetic = off":                        "antithetic = FALSE",
	"SET runner.failure_bias = 3":                        "failure_bias = 3",
	"SET runner.failure_bias = 1.5":                      "failure_bias = 1.5",
	"SET runner.failure_bias = 0":                        "failure_bias = 0",
	"SET power.cap = 0":                                  "",
	"SET power.cap = 0.3":                                "power.cap = 0.3",
	"SET power.cap = 0.3, power.cap = 0":                 "",
	"SET power.carbon_intensity = 0.2":                   "power.carbon_intensity = 0.2, power.enabled = FALSE",
	"SET power.carbon_intensity = 0":                     "power.carbon_intensity = 0, power.enabled = FALSE",
	"SET power.cap = 0.3, power.carbon_intensity = 0.2":  "power.cap = 0.3, power.carbon_intensity = 0.2",
	"SET power.cap = 0, power.carbon_intensity = 0.5":    "power.carbon_intensity = 0.5, power.enabled = FALSE",
	"SET runner.crn = on, runner.antithetic = on":        "crn = TRUE, antithetic = TRUE",
	"SET explore.screen = on, runner.crn = on, runner.antithetic = on, runner.failure_bias = 2, power.cap = 0.2":                                                          "screen = TRUE, crn = TRUE, antithetic = TRUE, failure_bias = 2, power.cap = 0.2",
	"SET explore.screen = on, explore.screen_margin = 0, runner.crn = on, runner.antithetic = on, runner.failure_bias = 3, power.cap = 0.3, power.carbon_intensity = 0.2": "screen = TRUE, screen_margin = 0, crn = TRUE, antithetic = TRUE, failure_bias = 3, power.cap = 0.3, power.carbon_intensity = 0.2",
}

// TestSetHasAWITHForm: nothing SET could say was lost with it.
// testdata/set_84db149.ndjson holds [set, query, outcome] lines computed at
// 84db149, the last commit with SET: for 26 SET statements covering its
// seven settings, and 15 queries, planOutcome(e, query) on an e := &Engine{}
// that had run e.Execute(set) first. Regenerate it only from a checkout of
// that commit, never from HEAD. Each SET's WITH form, put first in the
// query's own WITH clause (so the query's assignments still win, as they
// did over a session setting), plans identically on a fresh engine.
func TestSetHasAWITHForm(t *testing.T) {
	pinned := readLines[[3]string](t, "testdata/set_84db149.ndjson")
	for _, p := range pinned {
		set, query, want := p[0], p[1], p[2]
		form, ok := withForm[set]
		if !ok {
			t.Fatalf("%q has no WITH form", set)
		}
		if form != "" {
			if !strings.Contains(query, " WITH ") {
				t.Fatalf("%q has no WITH clause to put %q in", query, form)
			}
			query = strings.Replace(query, " WITH ", " WITH "+form+", ", 1)
		}
		if got := planOutcome(&Engine{}, query); got != want {
			t.Errorf("%s\nthen %s\n   WITH form: %s\nparent SET: %s", set, p[1], got, want)
		}
	}
	if len(pinned) < len(withForm)*15 {
		t.Fatalf("only %d pinned SET states read", len(pinned))
	}
}

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

// planOutcome is everything planning decides about a query, in one line:
// its points' cache keys and scenarios (digested), the runner and explorer
// settings the WITH overlay resolved to — or the error, verbatim.
func planOutcome(query string) string {
	q, err := Parse(query)
	if err != nil {
		return "error: " + err.Error()
	}
	plan, err := (&Engine{}).Plan(q)
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
	return fmt.Sprintf("points=%d keys=%x scenarios=%x trials=%d target_ci=%g crn=%t antithetic=%t failure_bias=%g workers=%d screen=%s prune=%t slas=%d",
		len(keys), sha256.Sum256([]byte(strings.Join(keys, "\n"))), scenarios.Sum(nil)[:8],
		r.Trials, r.TargetCI, r.CRN, r.Antithetic, r.FailureBias, plan.ex.Workers, margin, plan.prune, len(plan.slas))
}

// TestPlansMeanWhatTheyMeant: nothing a query meant at 7ca0849 — the
// commit before the parameter table replaced the map of closures — means
// something else now. testdata/plans_7ca0849.ndjson holds planOutcome, as
// that commit computed it, for every query text in the repository's tests,
// README, CI and bench/workloads.go's rendered workloads, and for each of
// the 38 parameters and 8 execution settings that existed then against a
// spread of good and bad values, in WITH and in VARY: the same keys, the
// same scenarios (every field, printed), the same settings, the same error
// text.
func TestPlansMeanWhatTheyMeant(t *testing.T) {
	pinned := pinnedPlans(t)
	for _, p := range pinned {
		if got := planOutcome(p[0]); got != p[1] {
			t.Errorf("%s\n   now: %s\nparent: %s", p[0], got, p[1])
		}
	}
	if len(pinned) < 700 {
		t.Fatalf("only %d pinned queries read", len(pinned))
	}
}

// pinnedPlans reads testdata/plans_7ca0849.ndjson: [query, outcome] pairs.
func pinnedPlans(tb testing.TB) (pinned [][2]string) {
	tb.Helper()
	f, err := os.Open("testdata/plans_7ca0849.ndjson")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	lines := bufio.NewScanner(f)
	for lines.Scan() {
		var p [2]string
		if err := json.Unmarshal(lines.Bytes(), &p); err != nil {
			tb.Fatal(err)
		}
		pinned = append(pinned, p)
	}
	if err := lines.Err(); err != nil {
		tb.Fatal(err)
	}
	return pinned
}

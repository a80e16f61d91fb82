package wtql

import (
	"strings"
	"testing"
)

// TestParseErrorsReportLineColumn pins the error-position format: server
// clients receive parse errors as JSON and need line:column, not byte
// offsets.
func TestParseErrorsReportLineColumn(t *testing.T) {
	cases := []struct {
		name  string
		query string
		want  string // expected line:column substring
	}{
		{
			name:  "bad keyword on line 1",
			query: "SIMULATE",
			want:  "at 1:9", // EOF position after the keyword
		},
		{
			name: "missing IN on line 2",
			query: "SIMULATE availability\n" +
				"VARY cluster.nodes (10, 20)",
			want: "at 2:20",
		},
		{
			name: "bad WHERE operand on line 3",
			query: "SIMULATE availability\n" +
				"VARY cluster.nodes IN (10, 20)\n" +
				"WHERE AND",
			want: "at 3:7",
		},
		{
			name: "unexpected character line 2",
			query: "SIMULATE availability\n" +
				"VARY cluster.nodes IN (10 # 20)",
			want: "at 2:27",
		},
		{
			name: "unterminated string",
			query: "SIMULATE availability\n" +
				"VARY storage.placement IN ('random",
			want: "at 2:28",
		},
		// WITH power.* assignments: parse errors must carry line:column
		// too — clients of windtunneld see these as JSON error strings.
		{
			name:  "WITH power.cap missing '='",
			query: "SIMULATE availability VARY cluster.nodes IN (5) WITH power.cap 0.2",
			want:  "at 1:64",
		},
		{
			name: "WITH power.cap missing value on line 3",
			query: "SIMULATE availability VARY cluster.nodes IN (5)\n" +
				"WITH power.carbon_intensity = 0.4,\n" +
				"     power.cap =",
			want: "at 3:17", // EOF position after '='
		},
		{
			name: "WITH power.carbon_intensity bad token on line 4",
			query: "SIMULATE availability VARY cluster.nodes IN (5)\n" +
				"WITH power.cap = 0.2,\n" +
				"     power.carbon_intensity\n" +
				"     # 0.4",
			want: "at 4:6",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.query)
			if err == nil {
				t.Fatalf("query unexpectedly parsed: %q", tc.query)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain position %q", err, tc.want)
			}
			if strings.Contains(err.Error(), "offset") {
				t.Fatalf("error still reports a byte offset: %q", err)
			}
		})
	}
}

package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wtql"
)

// referenceLine is what the daemon wrote for an event before it had an
// encoder of its own: json.NewEncoder(w).Encode(ev) — json.Marshal plus
// '\n' — or nothing and an error.
func referenceLine(ev any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ev); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeWith runs the append encoder on any of the four stream events.
func encodeWith(enc *eventEncoder, ev any) ([]byte, error) {
	switch ev := ev.(type) {
	case JobEvent:
		return enc.encodeJob(ev), nil
	case ErrorEvent:
		return enc.encodeError(ev), nil
	case PointEvent:
		return enc.encodePoint(&ev)
	case ResultEvent:
		return enc.encodeResult(&ev)
	}
	panic(fmt.Sprintf("not a stream event: %T", ev))
}

// sameAsEncodingJSON fails unless the append encoder and encoding/json
// agree on ev: the same bytes, or the same refusal with nothing written.
func sameAsEncodingJSON(t testing.TB, enc *eventEncoder, ev any) {
	t.Helper()
	want, wantErr := referenceLine(ev)
	got, gotErr := encodeWith(enc, ev)
	switch {
	case wantErr != nil || gotErr != nil:
		var unsupported *json.UnsupportedValueError
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() || !errors.As(gotErr, &unsupported) || got != nil {
			t.Fatalf("refusal differs for %+v:\n got %q, %v\nwant %q, %v", ev, got, gotErr, want, wantErr)
		}
	case !bytes.Equal(got, want):
		t.Fatalf("line differs for %+v:\n got %s\nwant %s", ev, got, want)
	}
}

// hostileStrings are the cases encoding/json's string escaping has rules
// for, plus neighbours of each.
var hostileStrings = []string{
	"", "plain", "storage.replication", `quote"back\slash`, "<script>&amp;</script>", "a<b>c&d",
	"line\u2028sep\u2029para", "\u2027\u202a", "tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f ", "nul\x00mid",
	"é", "日本語", "😀", "\xff", "a\xc3", "\xe2\x80", "\xe2\x80\xa8", "\xed\xa0\x80", "\xf4\x90\x80\x80", "ok\xffok\xfe",
	"http://127.0.0.1:8867", "weibull(shape=0.7, scale=600)", strings.Repeat("x", 300) + "<",
}

// hostileFloats are the values encoding/json's float format has rules
// for: both zeros, the 1e-6 and 1e21 switches to exponent form from
// either side, exponents with one, two and three digits, subnormals,
// 17-digit shortest forms, integers past 2^53, and the three it refuses.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.1 + 0.2, 1.0 / 3, 100, 1e6, 123456789, 9007199254740993,
	1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100, 2.2250738585072014e-308, 5e-324, 1.234e-320,
	1e20, 999999999999999934463, 1e21, -1e21, 1.5e22, 1e100, 1e300, math.MaxFloat64,
	0.9999999999999999, 0.30000000000000004, 5e-05, 123456789012345680000,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// TestEventEncoding holds the append encoder to encoding/json over every
// omitempty combination of every event, every hostile string in every
// string position and every hostile float as a metric. One encoder serves
// the whole test, so a stale buffer or key scratch would show.
func TestEventEncoding(t *testing.T) {
	var enc eventEncoder

	for _, s := range hostileStrings {
		sameAsEncodingJSON(t, &enc, JobEvent{Type: s, ID: s})
		sameAsEncodingJSON(t, &enc, ErrorEvent{Type: "error", Error: s})
		sameAsEncodingJSON(t, &enc, PointEvent{Type: s, Config: map[string]string{s: s, "k": s}, Metrics: map[string]float64{s: 1, "z": 2}, Worker: s})
		sameAsEncodingJSON(t, &enc, ResultEvent{
			Type: s, ID: s, Columns: []string{s, "c"}, Table: s,
			Rows: []wtql.Row{{Config: map[string]string{s: s}, Metrics: map[string]float64{s: 0.5}}},
		})
	}
	for _, f := range hostileFloats {
		metrics := map[string]float64{"availability": 0.999, "m": f}
		sameAsEncodingJSON(t, &enc, PointEvent{Type: "point", Config: map[string]string{}, Metrics: metrics})
		sameAsEncodingJSON(t, &enc, ResultEvent{Type: "result", Rows: []wtql.Row{{Metrics: metrics}, {Metrics: metrics}}})
	}
	// Sorted keys: more than a handful, sharing prefixes, one the empty string.
	many := map[string]float64{}
	for i := 0; i < 40; i++ {
		many[fmt.Sprintf("cost.%d", i*7%40)] = float64(i) / 7
		many[strings.Repeat("a", i%5)] = float64(i)
	}
	sameAsEncodingJSON(t, &enc, PointEvent{Type: "point", Metrics: many})

	// PointEvent: config nil / empty / set, metrics nil / empty / set, and
	// the eight omitempty fields in every combination.
	configs := []map[string]string{nil, {}, {"storage.replication": "3", "cluster.nodes": "6"}}
	metrics := []map[string]float64{nil, {}, {"availability": 0.99999, "loss_prob": 0, "events": 3184.5}}
	for mask := 0; mask < 1<<8; mask++ {
		bit := func(i int) bool { return mask&(1<<i) != 0 }
		ev := PointEvent{Type: "point", Done: mask, Total: 256, Index: mask - 1,
			Config: configs[mask%3], Metrics: metrics[(mask/3)%3],
			Pruned: bit(0), Screened: bit(1), Cached: bit(2), AllMet: bit(3), Degraded: bit(4)}
		if bit(5) {
			ev.Trials = 7
		}
		if bit(6) {
			ev.Events = math.MaxUint64
		}
		if bit(7) {
			ev.Worker = "http://127.0.0.1:8868"
		}
		sameAsEncodingJSON(t, &enc, ev)
	}

	// ResultEvent: columns and rows nil / empty / set, a row's maps nil /
	// empty / set, its three flags in every combination.
	var rows []wtql.Row
	for mask := 0; mask < 1<<3; mask++ {
		rows = append(rows, wtql.Row{Config: configs[mask%3], Metrics: metrics[(mask+1)%3],
			Passed: mask&1 != 0, Pruned: mask&2 != 0, Screened: mask&4 != 0})
	}
	for _, columns := range [][]string{nil, {}, {"storage.replication", "availability", "cost.total"}} {
		for _, rs := range [][]wtql.Row{nil, {}, rows[:1], rows} {
			sameAsEncodingJSON(t, &enc, ResultEvent{Type: "result", ID: "job-12", Columns: columns, Rows: rs,
				Executed: 8, Pruned: 1, Screened: 2, CacheHits: 3,
				Table: "a  b\n-  -\n1  <2>\n(1 rows)\n", Degraded: len(rs)%2 == 1})
		}
	}
}

// goldenLines returns event lines the parent commit wrote: the recorded
// stream of a finished durable job, and the lines inside both parent
// journals' records.
func goldenLines(t testing.TB) [][]byte {
	t.Helper()
	var lines [][]byte
	stream, err := os.ReadFile(filepath.Join("testdata", "parent_be31c54", "job-1.stream"))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(stream))
	for sc.Scan() {
		lines = append(lines, bytes.Clone(sc.Bytes()))
	}
	for _, name := range []string{"journal_v1_parent.wtj", filepath.Join("parent_be31c54", "journal", "job-2.wtj")} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "job-1"+journalExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, _ := recoverDir(t, dir)
		if len(jobs) != 1 {
			t.Fatalf("%s did not recover", name)
		}
		job := jobs[0]
		for _, p := range job.Points {
			lines = append(lines, p.Line)
		}
		if job.EndLine != nil {
			lines = append(lines, job.EndLine)
		}
	}
	return lines
}

// decodeEvent reads a stream line back into the event it is, or nil.
func decodeEvent(line []byte) any {
	var head struct {
		Type string `json:"type"`
	}
	if json.Unmarshal(line, &head) != nil {
		return nil
	}
	switch head.Type {
	case "job":
		var e JobEvent
		if json.Unmarshal(line, &e) == nil {
			return e
		}
	case "point":
		var e PointEvent
		if json.Unmarshal(line, &e) == nil {
			return e
		}
	case "result":
		var e ResultEvent
		if json.Unmarshal(line, &e) == nil {
			return e
		}
	case "error":
		var e ErrorEvent
		if json.Unmarshal(line, &e) == nil {
			return e
		}
	}
	return nil
}

// TestGoldenLinesReencode: every line the parent commit streamed or
// journaled decodes to an event that encodes back to that very line.
func TestGoldenLinesReencode(t *testing.T) {
	var enc eventEncoder
	lines := goldenLines(t)
	if len(lines) < 10 {
		t.Fatalf("only %d golden lines", len(lines))
	}
	for _, line := range lines {
		ev := decodeEvent(line)
		if ev == nil {
			t.Fatalf("golden line does not decode: %s", line)
		}
		got, err := encodeWith(&enc, ev)
		if err != nil || !bytes.Equal(got, append(bytes.Clone(line), '\n')) {
			t.Fatalf("re-encoded line differs (%v):\n got %s\nwant %s", err, got, line)
		}
	}
}

// FuzzEventEncoding: whatever event a line decodes to — seeded with the
// parent's golden lines — and whatever string and float are then pushed
// into it, the append encoder and encoding/json write the same bytes or
// refuse alike.
func FuzzEventEncoding(f *testing.F) {
	for i, line := range goldenLines(f) {
		f.Add(line, hostileStrings[i%len(hostileStrings)], math.Float64bits(hostileFloats[i%len(hostileFloats)]))
	}
	f.Add([]byte(`{"type":"point","config":null,"metrics":{"a":1e-7,"b":1e21},"worker":"w"}`), "\xff<\u2028", math.Float64bits(math.NaN()))
	// A result line from before SET was retired: it decodes with "settings"
	// dropped.
	f.Add([]byte(`{"type":"result","columns":null,"rows":[{"config":null,"metrics":null,"passed":true}],"settings":{"a":"b"}}`), "", uint64(1))
	f.Add([]byte(`{"type":"error","error":"core: running point x: context canceled"}`), "&", uint64(0))
	f.Fuzz(func(t *testing.T, line []byte, s string, bits uint64) {
		var enc eventEncoder
		x := math.Float64frombits(bits)
		ev := decodeEvent(line)
		switch e := ev.(type) {
		case nil:
			ev = PointEvent{Type: s, Config: map[string]string{s: s}, Metrics: map[string]float64{s: x}, Worker: s}
		case JobEvent:
			sameAsEncodingJSON(t, &enc, e)
			ev = JobEvent{Type: e.Type, ID: s}
		case ErrorEvent:
			sameAsEncodingJSON(t, &enc, e)
			ev = ErrorEvent{Type: e.Type, Error: s}
		case PointEvent:
			sameAsEncodingJSON(t, &enc, e)
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[s] = x
			e.Worker = s
			ev = e
		case ResultEvent:
			sameAsEncodingJSON(t, &enc, e)
			e.Table = s
			e.Rows = append(e.Rows, wtql.Row{Config: map[string]string{s: s}, Metrics: map[string]float64{s: x}})
			ev = e
		}
		sameAsEncodingJSON(t, &enc, ev)
	})
}

// TestPointEventEncodeAllocs: once its buffer and key scratch have grown
// to fit, encoding a point event allocates nothing.
func TestPointEventEncodeAllocs(t *testing.T) {
	ev := benchPointEvent()
	var enc eventEncoder
	if _, err := enc.encodePoint(&ev); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { enc.encodePoint(&ev) }); allocs != 0 {
		t.Fatalf("encoding a point event into a reused buffer allocates %.0f times, want 0", allocs)
	}
}

// benchPointEvent is a cached point of the serve_warm shape: three
// config entries, the simulator's eleven metrics.
func benchPointEvent() PointEvent {
	return PointEvent{
		Type: "point", Done: 3, Total: 8, Index: 2,
		Config: map[string]string{"storage.replication": "2", "cluster.nodes_per_rack": "6", "storage.placement": "random"},
		Metrics: map[string]float64{
			"availability": 0.9987654321, "unavail_fraction": 0.0012345679, "zero_copy_fraction": 0,
			"mean_unavail_objects": 0.024691358, "loss_prob": 0, "repairs": 12.5, "repair_bytes_mb": 125,
			"node_failures": 4.5, "events": 318.5, "repair_makespan_h": 1.25e-7, "availability_ci": 0.0004,
		},
		Trials: 2, Events: 637, Cached: true, AllMet: true,
	}
}

func BenchmarkEventEncode(b *testing.B) {
	ev := benchPointEvent()
	b.Run("append", func(b *testing.B) {
		var enc eventEncoder
		b.ReportAllocs()
		for b.Loop() {
			if _, err := enc.encodePoint(&ev); err != nil {
				b.Fatal(err)
			}
		}
	})
	// What the stream paid per point before: the reference, kept for scale.
	b.Run("encoding-json", func(b *testing.B) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		b.ReportAllocs()
		for b.Loop() {
			buf.Reset()
			if err := enc.Encode(ev); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestJournalRecordEncoding holds the journal's framing to format v1: a
// frame is its payload's length and CRC-32, then json.Marshal(journalRecord)
// — those bytes define the payload — and a record that does not encode
// leaves the buffer as it was. Lines that are not already compact, carry
// characters RawMessage escapes, or are not JSON at all are the
// interesting ones.
func TestJournalRecordEncoding(t *testing.T) {
	lines := []string{
		"", `{}`, `{"type":"point","done":1}`, ` { "a" : [ 1 , 2 ] , "b" : "x y\t" } `, "[1,\n2,\r\n3]\n",
		`{"s":"<&>"}`, "{\"s\":\"\u2028 \u2029\"}", `{"s":"quote \" and \\ backslash \\\" end"}`, `"\\"`, `"a\\" `,
		`{"s":"` + "\xe2\x80" + `"}`, `nope`, `{"open":`, `{"a":1}}`, "\xff",
	}
	for _, line := range goldenLines(t) {
		lines = append(lines, string(line))
	}
	created := time.Date(2026, 9, 29, 3, 4, 5, 678901234, time.FixedZone("x", 3600))
	for _, line := range lines {
		for _, s := range hostileStrings[:12] {
			for _, rec := range []journalRecord{
				{Kind: "begin", V: journalVersion, Job: "job-7", Query: s + bigQuery, Trials: 3, Created: created.UTC()},
				{Kind: "begin", V: 2, Job: s, Created: created},
				{Kind: "point", Index: 0, Key: "k", Line: json.RawMessage(line)},
				{Kind: "point", Index: 11, Key: s, Line: json.RawMessage(line)},
				{Kind: "end", Status: "failed", Error: s, Line: json.RawMessage(line)},
				{Kind: s},
			} {
				want, wantErr := json.Marshal(rec)
				got, gotErr := appendFrame([]byte("frame"), &rec)
				if (wantErr != nil) != (gotErr != nil) {
					t.Fatalf("record %+v: appendFrame error %v, json.Marshal error %v", rec, gotErr, wantErr)
				}
				if wantErr != nil {
					if string(got) != "frame" {
						t.Fatalf("record %+v: a refused record left %q", rec, got)
					}
					continue
				}
				payload := got[len("frame")+8:]
				if !bytes.Equal(payload, want) || binary.LittleEndian.Uint32(got[5:]) != uint32(len(want)) ||
					binary.LittleEndian.Uint32(got[9:]) != crc32.ChecksumIEEE(want) {
					t.Fatalf("record %+v:\n got %q\nwant a frame of %s", rec, got, want)
				}
			}
		}
	}
	// A year encoding/json refuses, the appender refuses.
	far := journalRecord{Kind: "begin", Created: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}
	if _, err := appendFrame(nil, &far); err == nil {
		t.Fatal("appendFrame framed a year-10000 timestamp")
	}
}

// nonFiniteQuery has no WHERE, so a row with a poisoned metric stays in
// the result.
const nonFiniteQuery = `SIMULATE availability VARY storage.replication IN (2, 3)
WITH users = 20, object_mb = 10, trials = 2, horizon_hours = 200`

// poisonFirstPoint runs nonFiniteQuery once and then sets a metric of
// its first point's cached result to NaN, as a broken simulator (or a
// hand-edited cache file) would leave it.
func poisonFirstPoint(t *testing.T, srv *Server, post func()) {
	t.Helper()
	post()
	q, err := wtql.Parse(nonFiniteQuery)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := srv.engine().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := plan.PointKeys()
	if err != nil {
		t.Fatal(err)
	}
	res, ok := srv.Cache().Get(keys[0])
	if !ok {
		t.Fatal("first point is not cached")
	}
	res.Metrics["repairs"] = math.NaN()
}

// TestNonFiniteMetrics pins what each stream does with an event the
// encoder refuses. A point event with a NaN metric is left out — inline
// and durable alike, as it was when encoding/json's error was dropped —
// and the other points still stream. A result that cannot be encoded ends
// the stream with an error event naming the value: until PR 15 the inline
// stream simply stopped, and a durable job never got its terminal line,
// so its followers (and a draining daemon's WaitJobs) waited for ever.
func TestNonFiniteMetrics(t *testing.T) {
	check := func(t *testing.T, lines []map[string]any) {
		t.Helper()
		var kinds []string
		for _, ev := range lines {
			kind, _ := ev["type"].(string)
			if kind == "point" {
				kind += fmt.Sprint(ev["index"])
			}
			kinds = append(kinds, kind)
		}
		if got := strings.Join(kinds, " "); got != "job point1 error" {
			t.Fatalf("stream is %q, want the job line, the clean point and an error line", got)
		}
		if msg, _ := lines[2]["error"].(string); msg != "json: unsupported value: NaN" {
			t.Fatalf("terminal error is %q", msg)
		}
	}
	t.Run("inline", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{PoolSize: 1})
		poisonFirstPoint(t, srv, func() { postQuery(t, ts, nonFiniteQuery) })
		check(t, postQuery(t, ts, nonFiniteQuery))
	})
	t.Run("durable", func(t *testing.T) {
		noLeakedCommitters(t)
		dir := t.TempDir()
		srv, ts := newTestServer(t, Config{PoolSize: 1, JournalDir: dir})
		poisonFirstPoint(t, srv, func() { postQuery(t, ts, nonFiniteQuery) })
		check(t, postQuery(t, ts, nonFiniteQuery))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if !srv.WaitJobs(ctx) {
			t.Fatal("the job with the unencodable result never settled")
		}
		// The journal agrees with the stream: the job failed, with that line.
		srv.Close()
		jobs, warns := recoverDir(t, dir)
		if len(jobs) != 2 {
			t.Fatalf("recovered %d jobs (warnings %v), want 2", len(jobs), warns)
		}
		if j := jobs[1]; j.Status != "failed" || j.Error != "json: unsupported value: NaN" || !bytes.Contains(j.EndLine, []byte(`"type":"error"`)) {
			t.Fatalf("journaled end of the poisoned job: status %q, error %q, line %s", j.Status, j.Error, j.EndLine)
		}
	})
}

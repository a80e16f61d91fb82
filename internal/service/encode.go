package service

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/wtql"
)

// eventEncoder writes stream events as NDJSON lines, byte for byte the
// lines json.NewEncoder(w).Encode(ev) writes for the same event: struct
// fields in declaration order under their json tags, omitempty honoured,
// map keys sorted, floats in encoding/json's ES6-style format, strings
// with its escaping (HTML characters, U+2028/9 and invalid UTF-8
// included), nil maps and slices as null. It exists because these four
// event shapes are everything a warm query sends, and reflection over
// them was a third of its CPU; encoding/json stays the reference the
// tests hold this to (TestEventEncoding, FuzzEventEncoding). A repeat of a
// kept plan's answer encodes only its result line's head (plans.go).
//
// Each method encodes into the encoder's one buffer and returns it, '\n'
// included: the line is valid until the next call, so a caller that
// keeps it copies it. A stream takes one encoder from encoders for as
// long as it runs and puts it back, so the buffer a result line grew is
// there for the next stream; an encoder is not for concurrent use.
type eventEncoder struct {
	buf  []byte
	keys []string // map keys being sorted
}

var encoders = sync.Pool{New: func() any { return new(eventEncoder) }}

func (e *eventEncoder) encodeJob(ev JobEvent) []byte {
	b := append(e.buf[:0], `{"type":`...)
	b = appendString(b, ev.Type)
	b = append(b, `,"id":`...)
	b = appendString(b, ev.ID)
	e.buf = append(b, '}', '\n')
	return e.buf
}

func (e *eventEncoder) encodeError(ev ErrorEvent) []byte {
	b := append(e.buf[:0], `{"type":`...)
	b = appendString(b, ev.Type)
	b = append(b, `,"error":`...)
	b = appendString(b, ev.Error)
	e.buf = append(b, '}', '\n')
	return e.buf
}

// encodePoint encodes a point event. A NaN or infinite metric is refused with
// the *json.UnsupportedValueError encoding/json reports, and no line.
func (e *eventEncoder) encodePoint(ev *PointEvent) ([]byte, error) {
	b := append(e.buf[:0], `{"type":`...)
	b = appendString(b, ev.Type)
	b = append(b, `,"done":`...)
	b = strconv.AppendInt(b, int64(ev.Done), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(ev.Total), 10)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(ev.Index), 10)
	b = append(b, `,"config":`...)
	b = e.appendStringMap(b, ev.Config)
	if len(ev.Metrics) > 0 {
		b = append(b, `,"metrics":`...)
		var err error
		if b, err = e.appendFloatMap(b, ev.Metrics); err != nil {
			e.buf = b[:0]
			return nil, err
		}
	}
	if ev.Trials != 0 {
		b = append(b, `,"trials":`...)
		b = strconv.AppendInt(b, int64(ev.Trials), 10)
	}
	if ev.Events != 0 {
		b = append(b, `,"events":`...)
		b = strconv.AppendUint(b, ev.Events, 10)
	}
	if ev.Pruned {
		b = append(b, `,"pruned":true`...)
	}
	if ev.Screened {
		b = append(b, `,"screened":true`...)
	}
	if ev.Cached {
		b = append(b, `,"cached":true`...)
	}
	b = append(b, `,"all_met":`...)
	b = strconv.AppendBool(b, ev.AllMet)
	if ev.Worker != "" {
		b = append(b, `,"worker":`...)
		b = appendString(b, ev.Worker)
	}
	if ev.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	e.buf = append(b, '}', '\n')
	return e.buf, nil
}

// encodeResult encodes a result event, refusing non-finite row metrics
// as encodePoint does.
func (e *eventEncoder) encodeResult(ev *ResultEvent) ([]byte, error) {
	b := append(e.buf[:0], `{"type":`...)
	b = appendString(b, ev.Type)
	b = append(b, `,"id":`...)
	b = appendString(b, ev.ID)
	b = append(b, `,"columns":`...)
	if ev.Columns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range ev.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows":`...)
	if ev.Rows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range ev.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = e.appendRow(b, &ev.Rows[i]); err != nil {
				e.buf = b[:0]
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"executed":`...)
	b = strconv.AppendInt(b, int64(ev.Executed), 10)
	b = append(b, `,"pruned":`...)
	b = strconv.AppendInt(b, int64(ev.Pruned), 10)
	b = append(b, `,"screened":`...)
	b = strconv.AppendInt(b, int64(ev.Screened), 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, int64(ev.CacheHits), 10)
	b = append(b, `,"table":`...)
	b = appendString(b, ev.Table)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, ev.Degraded)
	e.buf = append(b, '}', '\n')
	return e.buf, nil
}

// resultHead is what every result line encodeTerminal writes holds before
// its job id.
const resultHead = `{"type":"result","id":`

// encodeResent encodes a result line for job id from the tail — what
// follows the id — of another job's result line for the same answer.
func (e *eventEncoder) encodeResent(id string, tail []byte) []byte {
	b := appendString(append(e.buf[:0], resultHead...), id)
	e.buf = append(b, tail...)
	return e.buf
}

// maxResultLine is the longest result line encodeTerminal writes. A
// re-sent result (encodeResent) differs from the line it copies in its
// job id alone, so both stay under a reader's maxEventLine.
const maxResultLine = maxEventLine - 1<<10

// encodeTerminal encodes a finished job's last line: its result event,
// or its error event when the job failed (err non-nil) — or when the
// result cannot be encoded (a NaN or infinite row metric, or a line over
// maxResultLine), so that a stream always ends in a terminal line.
// failure is what the line reports: nil for a result.
func (e *eventEncoder) encodeTerminal(id string, rs *wtql.ResultSet, degraded bool, err error) (line []byte, failure error) {
	if err == nil {
		rows := rs.Rows
		if rows == nil {
			rows = []wtql.Row{}
		}
		line, err = e.encodeResult(&ResultEvent{
			Type: "result", ID: id,
			Columns:  rs.Columns,
			Rows:     rows,
			Executed: rs.Executed, Pruned: rs.Pruned, Screened: rs.Screened,
			CacheHits: rs.CacheHits,
			Table:     rs.Render(),
			Degraded:  degraded,
		})
		if err == nil && len(line) > maxResultLine {
			err = fmt.Errorf("service: the result line is %d bytes, over the stream's bound of %d", len(line), maxResultLine)
		}
		if err == nil {
			return line, nil
		}
	}
	return e.encodeError(ErrorEvent{Type: "error", Error: err.Error()}), err
}

func (e *eventEncoder) appendRow(b []byte, r *wtql.Row) ([]byte, error) {
	b = append(b, `{"config":`...)
	b = e.appendStringMap(b, r.Config)
	b = append(b, `,"metrics":`...)
	b, err := e.appendFloatMap(b, r.Metrics)
	if err != nil {
		return b, err
	}
	b = append(b, `,"passed":`...)
	b = strconv.AppendBool(b, r.Passed)
	if r.Pruned {
		b = append(b, `,"pruned":true`...)
	}
	if r.Screened {
		b = append(b, `,"screened":true`...)
	}
	return append(b, '}'), nil
}

// sortedKeys returns m's keys in ascending byte order, in the encoder's
// scratch: valid until the next call.
func sortedKeys[V any](e *eventEncoder, m map[string]V) []string {
	keys := e.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.keys = keys
	return keys
}

func (e *eventEncoder) appendStringMap(b []byte, m map[string]string) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	b = append(b, '{')
	for i, k := range sortedKeys(e, m) {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		b = appendString(b, m[k])
	}
	return append(b, '}')
}

func (e *eventEncoder) appendFloatMap(b []byte, m map[string]float64) ([]byte, error) {
	if m == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '{')
	for i, k := range sortedKeys(e, m) {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		var err error
		if b, err = appendFloat(b, m[k]); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// digits that parse back to f, exponent form below 1e-6 and from 1e21
// with a two-digit negative exponent's leading zero dropped.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json quotes a string with its
// default HTML escaping on: ", \ and control bytes escaped (\b \f \n \r
// \t by name, the rest as \u00XX), <, > and & as \u003c \u003e \u0026,
// U+2028 and U+2029 as \u2028 \u2029, and each byte of invalid UTF-8 as
// \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// This file is the one reader of what the daemon writes (http.go,
// encode.go, obs.go): wtql, wtload, wttop and the coordinator's shard
// fan-out, health probes, metric scrapes, cache peering and trace merge
// all go through Client, and decode into the types the handlers encode.
//
// Client is mechanism: one request, one bounded reply or one event
// stream, the errors told apart (StatusError — the daemon refused;
// JobError — the job failed; ErrTorn — the stream ended before its
// terminal event; anything else — the transport), and the resume cursor
// of a query followed across connections (Session). It never retries,
// waits or picks a server. That is the caller's policy and differs per
// caller: wtql's -reconnect window, backoff and server rotation;
// wtload's retry and resume budgets; the coordinator's idle deadline,
// failover and health reports; each one-shot GET's timeout (the ctx or
// the HTTP client's) and size limit.

// Client talks to one or more daemons. The zero value is ready to use.
type Client struct {
	// HTTP is the client requests are sent with; nil means
	// http.DefaultClient.
	HTTP *http.Client
	// Trace, when non-empty, is sent as X-WT-Trace: the coordinator's
	// shard span, which the worker's job span for a Query hangs under.
	Trace string
	// maxLine bounds a stream line; 0 means maxEventLine. Tests lower it.
	maxLine int
}

// maxEventLine bounds one line of a job's NDJSON stream, its newline
// included: a Client fails the stream at a longer one, and no daemon
// writes one. A job, point or error line holds one point's config and
// metrics or an error's text, each from a query body under maxQueryBody
// (1 MB). A result line holds every row and the rendered table, 0.6–0.8 KB
// a row for sweep_repair's shape and for a power sweep, so about 80 MB at
// wtql's ceiling of 100 000 points; encodeTerminal refuses a longer result
// than maxResultLine, which leaves room for a re-sent result's job id.
const maxEventLine = 256 << 20

// errLineTooLong fails a stream whose line outgrows the client's bound:
// a peer sending one endless line is a failed peer, not a reason to grow
// the reader's memory until the process is killed.
var errLineTooLong = errors.New("stream line over the line bound")

// MaxReply bounds a one-shot JSON reply for callers with no tighter
// limit of their own; the largest (a job listing, a merged trace, a
// history range) stay far below it.
const MaxReply = 8 << 20

// StatusError is a reply other than 200. Message is the daemon's own
// explanation when the body was one of its {"type":"error"} objects, else
// the start of whatever the body was (wrong port, a proxy's error page).
type StatusError struct {
	Status  int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server (HTTP %d): %s", e.Status, e.Message)
}

// JobError is a stream's terminal error event: the daemon admitted the
// job and the job failed (or was cancelled). Message is the event's text.
type JobError struct{ Message string }

func (e *JobError) Error() string { return "server: " + e.Message }

// ErrTorn is a stream that ended cleanly before its terminal event: the
// daemon went away, or something between cut the connection.
var ErrTorn = errors.New("stream ended without a result")

// Permanent reports whether err is the query's own failure — the job
// ran and failed, or the daemon refused the request as malformed or too
// large — which no other connection or server would answer differently.
func Permanent(err error) bool {
	var je *JobError
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status == http.StatusBadRequest || se.Status == http.StatusRequestEntityTooLarge
	}
	return errors.As(err, &je)
}

// do sends one request and returns its 200 response, body open. Any other
// status comes back as a *StatusError, body consumed and closed.
func (c Client) do(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Trace != "" {
		req.Header.Set(traceHeader, c.Trace)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // a short read still names the status
	se := &StatusError{Status: resp.StatusCode, Message: string(bytes.TrimSpace(msg))}
	var ev ErrorEvent
	if json.Unmarshal(msg, &ev) == nil && ev.Error != "" {
		se.Message = ev.Error
	}
	return nil, se
}

// Get returns the body of a 200 reply to GET url, refusing one longer
// than limit bytes rather than truncating it.
func (c Client) Get(ctx context.Context, url string, limit int64) ([]byte, error) {
	resp, err := c.do(ctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readBounded(resp.Body, limit)
	if errors.Is(err, errReplyTooLong) {
		return nil, fmt.Errorf("GET %s: reply exceeds %d bytes", url, limit)
	}
	return body, err
}

// errReplyTooLong is readBounded's refusal of a reply over its limit.
var errReplyTooLong = errors.New("reply over its limit")

// replyChunk is the largest piece readBounded reads into.
const replyChunk = 64 << 10

// readBounded returns all of r if it holds at most limit bytes, and
// errReplyTooLong once it has read limit+1. It reads into pieces that
// double from 512 bytes to replyChunk and are never copied to grow, and
// joins them once at the end, so refusing an endless reply allocates
// about limit bytes plus a piece, where io.ReadAll's regrown buffer
// allocates several times limit.
func readBounded(r io.Reader, limit int64) ([]byte, error) {
	var pieces [][]byte
	size, n := int64(512), int64(0)
	for {
		piece := make([]byte, min(size, limit+1-n))
		m, err := io.ReadFull(r, piece)
		pieces = append(pieces, piece[:m])
		n += int64(m)
		if n > limit {
			return nil, errReplyTooLong
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, err
		}
		size = min(2*size, replyChunk)
	}
	if len(pieces) == 1 {
		return pieces[0], nil
	}
	return bytes.Join(pieces, nil), nil
}

// GetJSON decodes the reply to GET url, at most limit bytes, into v.
func (c Client) GetJSON(ctx context.Context, url string, limit int64, v any) error {
	body, err := c.Get(ctx, url, limit)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// Event is one line of a job's NDJSON stream. Only its type has been
// looked at: the event shapes share field names with different types (a
// result's "pruned" is a count, a point's a bool), so the caller decodes
// the shape Type names, and a reader that wants only the points — the
// coordinator — never builds a result's rows. An Event is valid until the
// callback it was handed to returns.
type Event struct {
	Type string // "job", "point" or "result"
	line []byte
}

// Job decodes a "job" event.
func (e *Event) Job() (JobEvent, error) { return decode[JobEvent](e) }

// Point decodes a "point" event.
func (e *Event) Point() (PointEvent, error) { return decode[PointEvent](e) }

// Result decodes a "result" event.
func (e *Event) Result() (ResultEvent, error) { return decode[ResultEvent](e) }

func decode[T any](e *Event) (ev T, err error) {
	err = json.Unmarshal(e.line, &ev)
	return ev, err
}

// events sends one request and hands on each event of the reply's stream,
// a line at a time, each line at most the client's bound (maxEventLine).
// It returns nil once the result event has been delivered, a *JobError
// for an error event, on's error if it fails, ErrTorn at a clean end
// before any of those, an error wrapping errLineTooLong at a longer line,
// and the transport's error otherwise. A line counts when its newline has
// arrived: the daemon writes an event in one piece, so a cut lands
// between events. What follows the result is read on, up to the bound,
// so that the connection can be reused, and dropped: nothing after the
// result can fail the stream.
func (c Client) events(ctx context.Context, method, url string, body []byte, on func(*Event) error) error {
	resp, err := c.do(ctx, method, url, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	limit := c.maxLine
	if limit <= 0 {
		limit = maxEventLine
	}
	rd := bufio.NewReader(resp.Body)
	var line []byte // an Event's line is valid until on returns
	for {
		line, err = readLine(rd, line[:0], limit)
		switch {
		case err == io.EOF:
			return ErrTorn
		case err != nil:
			return err
		case len(bytes.TrimSpace(line)) == 0:
			continue
		}
		var head struct {
			Type  string `json:"type"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return fmt.Errorf("bad stream line %.200q: %w", line, err)
		}
		if head.Type == "error" {
			return &JobError{Message: head.Error}
		}
		if err := on(&Event{Type: head.Type, line: line}); err != nil {
			return err
		}
		if head.Type == "result" {
			_, _ = io.CopyN(io.Discard, rd, int64(limit)) // the tail is dropped whatever it holds
			return nil
		}
	}
}

// readLine appends rd's next line, its newline included, to dst. It
// fails with errLineTooLong once the line is longer than limit, having
// read at most one buffer past it, and returns what it has with the
// reader's error when the stream ends before a newline.
func readLine(rd *bufio.Reader, dst []byte, limit int) ([]byte, error) {
	for {
		frag, err := rd.ReadSlice('\n')
		if len(dst)+len(frag) > limit {
			return dst, fmt.Errorf("%w of %d bytes", errLineTooLong, limit)
		}
		dst = append(dst, frag...)
		if err != bufio.ErrBufferFull {
			return dst, err
		}
	}
}

// Query submits req to the daemon at base and reads the job's stream
// off the reply.
func (c Client) Query(ctx context.Context, base string, req QueryRequest, on func(*Event) error) error {
	body, _ := json.Marshal(req) // strings and ints: cannot fail
	return c.events(ctx, "POST", strings.TrimRight(base, "/")+"/v1/query", body, on)
}

// Stream follows a job the daemon at base already holds, leaving out the
// first `from` point events. A daemon that does not hold it (never did,
// evicted it, or restarted without a journal) answers 404.
func (c Client) Stream(ctx context.Context, base, job string, from int, on func(*Event) error) error {
	url := fmt.Sprintf("%s/v1/jobs/%s/stream?from=%d", strings.TrimRight(base, "/"), job, from)
	return c.events(ctx, "GET", url, nil, on)
}

// Session is one query followed across however many connections it takes:
// the resume cursor. A caller sets Request and leaves the rest to Attempt.
type Session struct {
	Request QueryRequest // From is overwritten with the cursor
	Job     string       // the id the job was admitted under, once known
	Owner   string       // base URL of the server that admitted it
	Points  int          // point events received so far
}

// Attempt makes one connection for s to the daemon at base and reads it
// to its end, so that across attempts the caller is handed every point
// event once, in order: the job's owner is asked to resume its stream at
// the cursor; an owner that no longer holds the job, or any other server,
// is sent the query again with "from" set to the cursor — it runs the
// sweep in full (what is already computed is cached) and streams only the
// rest. events is how many this connection delivered: zero with an error
// means the server had nothing for us.
func (c Client) Attempt(ctx context.Context, base string, s *Session, on func(*Event) error) (events int, err error) {
	track := func(ev *Event) error {
		events++
		switch ev.Type {
		case "job":
			j, err := ev.Job()
			if err != nil {
				return err
			}
			s.Job, s.Owner = j.ID, base
		case "point":
			s.Points++
		}
		return on(ev)
	}
	if s.Job != "" && s.Owner == base {
		err = c.Stream(ctx, base, s.Job, s.Points, track)
		var se *StatusError
		if !errors.As(err, &se) || se.Status != http.StatusNotFound {
			return events, err
		}
	}
	req := s.Request
	req.From = s.Points
	err = c.Query(ctx, base, req, track)
	return events, err
}

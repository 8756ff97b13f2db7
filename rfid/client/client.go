// Package client is the typed Go SDK for the serving layer's v1 API
// (rfidserve). It speaks only the stable public wire schema (rfid/api) —
// create sessions, ingest raw record batches, register continuous queries,
// iterate results with long-polling, and read snapshots — with structured
// errors surfaced as *api.Error values.
//
// The package deliberately has no dependency on the engine's internal
// packages, so it can be vendored into external services unchanged.
//
// Every response body is read to its end before it is closed, so a Client
// keeps its keep-alive connections across large reads such as a time-travel
// snapshot of every tracked object.
//
// Typical use:
//
//	c := client.New("http://localhost:8080")
//	sess, err := c.CreateSession(ctx, api.CreateSessionRequest{Source: api.SourceSynthetic})
//	s := c.Session(sess.ID)
//	_, err = s.Ingest(ctx, api.IngestRequest{Readings: ...})
//	info, err := s.RegisterQuery(ctx, api.QuerySpec{Kind: api.QueryLocationUpdates})
//	it := s.Results(info.ID, client.PollOptions{After: client.FromStart, Wait: 30 * time.Second})
//	for {
//		rows, err := it.Next(ctx) // long-polls; empty only on wait timeout
//		...
//	}
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/rfid/api"
)

// Client talks to one rfidserve process.
type Client struct {
	base    string
	replica string
	hc      *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client (timeouts, transport,
// instrumentation). The default client has no overall timeout, which is what
// long-polled result reads want; apply per-request deadlines via context.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithReadReplica routes GET requests (snapshots, time-travel reads, query
// results, listings) to a read replica at base while writes keep going to the
// primary. Replica-served responses carry the Rfid-Role, Rfid-Applied-Epoch
// and Rfid-Replication-Lag-Seconds staleness headers; replicated reads are
// eventually consistent with the primary's acknowledged writes. Promote is
// also sent to the replica, since promotion addresses the node being
// promoted.
func WithReadReplica(base string) Option {
	return func(c *Client) { c.replica = strings.TrimRight(base, "/") }
}

// New returns a client for the server at base (e.g. "http://localhost:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// CreateSession creates a new session resource and returns its description.
func (c *Client) CreateSession(ctx context.Context, req api.CreateSessionRequest) (api.Session, error) {
	var out api.Session
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &out)
	return out, err
}

// OpenSession creates a session and returns a ready-to-use handle for it.
// Unlike CreateSession, the handle is bound to the resource path the server
// returned in the 201 response's Location header rather than one the client
// constructed, so it tracks the canonical resource location.
func (c *Client) OpenSession(ctx context.Context, req api.CreateSessionRequest) (*Session, api.Session, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, api.Session{}, fmt.Errorf("client: encode session request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sessions", bytes.NewReader(data))
	if err != nil {
		return nil, api.Session{}, fmt.Errorf("client: create session: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return nil, api.Session{}, fmt.Errorf("client: create session: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return nil, api.Session{}, decodeError(resp)
	}
	var out api.Session
	if err := readJSON(resp, &out); err != nil {
		return nil, api.Session{}, fmt.Errorf("client: decode session: %w", err)
	}
	prefix := "/v1/sessions/" + url.PathEscape(out.ID)
	if loc := resp.Header.Get("Location"); loc != "" {
		if u, perr := url.Parse(loc); perr == nil && u.Path != "" {
			prefix = u.Path
		}
	}
	return &Session{c: c, id: out.ID, prefix: prefix}, out, nil
}

// Sessions lists every live session.
func (c *Client) Sessions(ctx context.Context) ([]api.Session, error) {
	var out api.SessionList
	if err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &out); err != nil {
		return nil, err
	}
	return out.Sessions, nil
}

// SessionsPage lists sessions one page at a time: pass limit (0 = server
// maximum) and the next_page_token of the previous page ("" for the first).
// An empty NextPageToken in the result means the listing is complete.
func (c *Client) SessionsPage(ctx context.Context, limit int, pageToken string) (api.SessionList, error) {
	q := url.Values{}
	q.Set("page_token", pageToken)
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	var out api.SessionList
	err := c.do(ctx, http.MethodGet, "/v1/sessions?"+q.Encode(), nil, &out)
	return out, err
}

// GetSession describes one session.
func (c *Client) GetSession(ctx context.Context, id string) (api.Session, error) {
	var out api.Session
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &out)
	return out, err
}

// DeleteSession closes a session and deletes its durable state.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// Health reads /v1/healthz. A failed (unrecovered) server answers 503 with a
// valid Health body; Health decodes that body too and returns it with a nil
// error, so callers distinguish server states by OK/State rather than by
// transport errors. The error is non-nil only when the request itself failed
// or the body was not a Health document.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var out api.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return out, fmt.Errorf("client: healthz: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, fmt.Errorf("client: healthz: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return out, fmt.Errorf("client: healthz: %w", err)
	}
	if jerr := json.Unmarshal(data, &out); jerr != nil || out.State == "" {
		return out, decodeErrorBytes(resp.StatusCode, data)
	}
	return out, nil
}

// Promote asks a replica to become the primary (POST /v1/promote): the
// replication link is torn down, mirrored logs are sealed and the node starts
// accepting writes where the old primary left off. The request goes to the
// read replica configured with WithReadReplica (promotion addresses the node
// being promoted), or to the client's base URL otherwise. Idempotent on a
// node that is already primary.
func (c *Client) Promote(ctx context.Context) (api.PromoteResponse, error) {
	base := c.base
	if c.replica != "" {
		base = c.replica
	}
	var out api.PromoteResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/promote", nil)
	if err != nil {
		return out, fmt.Errorf("client: promote: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, fmt.Errorf("client: promote: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, decodeError(resp)
	}
	if err := readJSON(resp, &out); err != nil {
		return out, fmt.Errorf("client: decode promote response: %w", err)
	}
	return out, nil
}

// Session returns a handle scoped to one session id. No network traffic
// happens until a method is called; the id need not exist yet.
func (c *Client) Session(id string) *Session {
	return &Session{c: c, id: id, prefix: "/v1/sessions/" + url.PathEscape(id)}
}

// do performs one JSON round-trip. Non-2xx responses are decoded from the
// structured error envelope into *api.Error (with HTTPStatus filled in); a
// body that is not an envelope becomes an *api.Error with the raw text.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(data)
	}
	base := c.base
	if c.replica != "" && method == http.MethodGet {
		base = c.replica
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if err := readJSON(resp, out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// readJSON reads a 2xx body to EOF — a body closed before EOF costs the
// transport its keep-alive connection — and decodes it into out (nil
// discards it). The snapshot bodies, the largest the server sends, go through
// api's one-pass decoder; everything else through encoding/json.
func readJSON(resp *http.Response, out any) error {
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxPresize {
		// MinRead spare bytes let the read that sees EOF land without a grow.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	switch v := out.(type) {
	case *api.HistorySnapshot:
		return api.DecodeHistorySnapshot(buf.Bytes(), v)
	case *api.TagSnapshot:
		return api.DecodeTagSnapshot(buf.Bytes(), v)
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// maxPresize caps how much a response's Content-Length may make readJSON
// allocate before any of the body has arrived.
const maxPresize = 64 << 20

// decodeError turns a non-2xx response into an *api.Error.
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return decodeErrorBytes(resp.StatusCode, data)
}

// decodeErrorBytes builds the *api.Error for an already-read body.
func decodeErrorBytes(status int, data []byte) error {
	var env api.ErrorEnvelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.HTTPStatus = status
		return env.Error
	}
	msg := strings.TrimSpace(string(data))
	if msg == "" {
		msg = http.StatusText(status)
	}
	return &api.Error{
		Code:       fmt.Sprintf("http_%d", status),
		Message:    msg,
		HTTPStatus: status,
	}
}

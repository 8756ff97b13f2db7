package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/rfid/api"
	"repro/rfid/client"
)

// newStreamTestServer is newTestServer plus the base URL, which the raw
// OpenSession/Stream paths need.
func newStreamTestServer(t *testing.T) (*client.Client, string) {
	t.Helper()
	srv, err := serve.New(serve.Config{IngestWait: 5 * time.Second})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return client.New(ts.URL), ts.URL
}

// TestStreamIngester drives the full happy path through the SDK alone:
// OpenSession (Location-following), streaming with both size- and
// interval-triggered seals, Flush, cumulative acks and a graceful Close.
func TestStreamIngester(t *testing.T) {
	ctx := context.Background()
	c, _ := newStreamTestServer(t)
	sess, created, err := c.OpenSession(ctx, api.CreateSessionRequest{
		Source: api.SourceSynthetic,
		Engine: &api.EngineConfig{ObjectParticles: 40, Seed: 2},
	})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if created.ID == "" || sess.ID() != created.ID {
		t.Fatalf("OpenSession handle id %q vs created %q", sess.ID(), created.ID)
	}

	var ackCount atomic.Int64
	ing := sess.Stream(client.StreamOptions{
		BatchSize:     8,
		FlushInterval: 5 * time.Millisecond,
		OnAck:         func(api.StreamAck) { ackCount.Add(1) },
	})
	// Size-triggered seals: three full batches.
	for ep := 0; ep < 3; ep++ {
		if err := ing.AddLocation(api.LocationReport{Time: ep, X: 1, Y: 2, Z: 3}); err != nil {
			t.Fatalf("AddLocation: %v", err)
		}
		for i := 0; i < 7; i++ {
			if err := ing.AddReading(ep, "tag-"+string(rune('a'+i))); err != nil {
				t.Fatalf("AddReading: %v", err)
			}
		}
	}
	// Interval-triggered seal: a partial batch that only the flush ticker can
	// send.
	if err := ing.AddReading(3, "tag-a"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ing.Acked().UpTo < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("ticker-sealed batch never acked (UpTo=%d)", ing.Acked().UpTo)
		}
		time.Sleep(time.Millisecond)
	}
	// Explicit Flush drains another partial batch.
	if err := ing.AddReading(4, "tag-b"); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	ack := ing.Acked()
	if ack.UpTo != 5 {
		t.Fatalf("acked UpTo = %d, want 5", ack.UpTo)
	}
	if ack.Durable {
		t.Fatal("ack claims durability on a non-durable session")
	}
	if ackCount.Load() == 0 {
		t.Fatal("OnAck never fired")
	}
	if err := ing.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ing.Err(); err != nil {
		t.Fatalf("Err after graceful close: %v", err)
	}
	// The streamed records actually reached the engine.
	if _, err := sess.Flush(ctx, false); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epochs == 0 || len(snap.Tracked) == 0 {
		t.Fatalf("streamed state missing: %+v", snap)
	}
	// Adds after Close fail cleanly.
	if err := ing.AddReading(9, "late"); err == nil {
		t.Fatal("AddReading after Close succeeded")
	}
}

// TestStreamIngesterDialFailures pins the two dial failure modes: a terminal
// one (unsupported scheme — no retry can fix it) and an exhausted retry
// budget against a dead endpoint.
func TestStreamIngesterDialFailures(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	bad := client.New("ftp://example.invalid").Session("s")
	ing := bad.Stream(client.StreamOptions{})
	if err := ing.Close(ctx); err == nil || !strings.Contains(err.Error(), "scheme") {
		t.Fatalf("unsupported scheme: err = %v", err)
	}

	dead := client.New("http://127.0.0.1:1").Session("s")
	ing = dead.Stream(client.StreamOptions{ReconnectWait: time.Millisecond, MaxAttempts: 2})
	if err := ing.Close(ctx); err == nil || !strings.Contains(err.Error(), "connection attempts") {
		t.Fatalf("dead endpoint: err = %v", err)
	}
	if err := ing.AddReading(0, "x"); err == nil {
		t.Fatal("AddReading after terminal failure succeeded")
	}
}

// TestSessionsAndQueriesPages walks both paginated list surfaces through the
// SDK.
func TestSessionsAndQueriesPages(t *testing.T) {
	ctx := context.Background()
	c, _ := newStreamTestServer(t)
	for _, id := range []string{"pg-a", "pg-b", "pg-c"} {
		if _, err := c.CreateSession(ctx, api.CreateSessionRequest{ID: id, Source: api.SourceSynthetic}); err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
	}
	var ids []string
	token := ""
	for {
		page, err := c.SessionsPage(ctx, 2, token)
		if err != nil {
			t.Fatalf("SessionsPage: %v", err)
		}
		for _, s := range page.Sessions {
			ids = append(ids, s.ID)
		}
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if strings.Join(ids, " ") != "pg-a pg-b pg-c" {
		t.Fatalf("paged sessions = %v, want pg-a..c", ids)
	}

	sess := c.Session("pg-a")
	for i := 0; i < 3; i++ {
		if _, err := sess.RegisterQuery(ctx, api.QuerySpec{Kind: api.QueryLocationUpdates}); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	var qids []string
	token = ""
	for {
		page, err := sess.QueriesPage(ctx, 2, token)
		if err != nil {
			t.Fatalf("QueriesPage: %v", err)
		}
		for _, q := range page.Queries {
			qids = append(qids, q.ID)
		}
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if len(qids) != 3 {
		t.Fatalf("paged queries = %v, want 3", qids)
	}
}

// TestPollResultsRetryAfter pins the SDK's retry-in-place on a 503 carrying
// retry_after_ms: two hinted refusals are absorbed, the third attempt's
// answer surfaces.
func TestPollResultsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: &api.Error{
				Code: api.ErrUnavailable, Message: "backpressure", RetryAfterMS: 1,
			}})
			return
		}
		_ = json.NewEncoder(w).Encode(api.ResultsPage{Query: api.QueryInfo{ID: "q1"}})
	}))
	defer fake.Close()

	sess := client.New(fake.URL).Session("s")
	page, err := sess.PollResults(context.Background(), "q1", client.PollOptions{After: client.FromStart})
	if err != nil {
		t.Fatalf("PollResults: %v", err)
	}
	if page.Query.ID != "q1" || calls.Load() != 3 {
		t.Fatalf("page %+v after %d calls, want q1 after 3", page.Query, calls.Load())
	}

	// A hint-free 503 is not retried.
	calls.Store(10)
	fake2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: &api.Error{Code: api.ErrUnavailable, Message: "nope"}})
	}))
	defer fake2.Close()
	calls.Store(0)
	_, err = client.New(fake2.URL).Session("s").PollResults(context.Background(), "q1", client.PollOptions{})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.ErrUnavailable {
		t.Fatalf("hint-free 503: err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("hint-free 503 retried: %d calls", calls.Load())
	}
}

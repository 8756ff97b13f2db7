package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/rfid/api"
	"repro/rfid/client"
)

// newTestServer starts a real serve.Server (hosting one session, "default",
// over a small synthetic floor) behind httptest and returns a client pointed at it. The
// SDK itself depends only on rfid/api; the server side of the round-trip
// lives here, in the test binary.
func newTestServer(t *testing.T) *client.Client {
	t.Helper()
	srv, err := serve.New(serve.Config{IngestWait: 5 * time.Second})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	if _, err := srv.CreateSession(context.Background(), api.CreateSessionRequest{
		ID: "default", Source: api.SourceSynthetic,
		Engine: &api.EngineConfig{ObjectParticles: 80, ReaderParticles: 20, Seed: 11, HistoryEpochs: 64},
	}); err != nil {
		t.Fatalf("create session default: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return client.New(ts.URL)
}

// batch builds a tiny ingest batch for one epoch.
func batch(epoch int, tags ...string) api.IngestRequest {
	req := api.IngestRequest{
		Locations: []api.LocationReport{{Time: epoch, X: 1 + 0.1*float64(epoch), Y: 2, Z: 3}},
	}
	for _, tag := range tags {
		req.Readings = append(req.Readings, api.Reading{Time: epoch, Tag: tag})
	}
	return req
}

// TestSessionLifecycle drives the full resource surface through the SDK:
// create, list, get, ingest, flush, snapshot, query round-trip, delete.
func TestSessionLifecycle(t *testing.T) {
	c := newTestServer(t)
	ctx := context.Background()

	created, err := c.CreateSession(ctx, api.CreateSessionRequest{
		Source: api.SourceSynthetic,
		Engine: &api.EngineConfig{ObjectParticles: 60, ReaderParticles: 20, Seed: 3},
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if created.ID == "" {
		t.Fatalf("created session %+v, want an assigned id", created)
	}
	if created.Source != api.SourceSynthetic {
		t.Fatalf("created session source %q, want %q", created.Source, api.SourceSynthetic)
	}

	sessions, err := c.Sessions(ctx)
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	if len(sessions) != 2 || sessions[0].ID != "default" || sessions[1].ID != created.ID {
		t.Fatalf("Sessions = %+v, want [default, %s]", sessions, created.ID)
	}

	sess := c.Session(created.ID)
	for ep := 0; ep < 5; ep++ {
		ack, err := sess.Ingest(ctx, batch(ep, "obj-A", "obj-B"))
		if err != nil {
			t.Fatalf("Ingest epoch %d: %v", ep, err)
		}
		if !ack.Queued || ack.Readings != 2 {
			t.Fatalf("ack %+v", ack)
		}
	}
	if _, err := sess.Flush(ctx, false); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	over, err := sess.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if over.Epochs == 0 || len(over.Tracked) != 2 {
		t.Fatalf("overview %+v, want 2 tracked tags", over)
	}
	tag, err := sess.SnapshotTag(ctx, "obj-A")
	if err != nil || !tag.Found {
		t.Fatalf("SnapshotTag: %v (found=%v)", err, tag.Found)
	}
	if tag.X == 0 && tag.Y == 0 && tag.Z == 0 {
		t.Fatalf("snapshot at origin: %+v", tag)
	}

	// The other session is isolated from the created one.
	defOver, err := c.Session("default").Snapshot(ctx)
	if err != nil {
		t.Fatalf("default Snapshot: %v", err)
	}
	if len(defOver.Tracked) != 0 || defOver.Epochs != 0 {
		t.Fatalf("session default saw the other session's data: %+v", defOver)
	}

	// Time travel: the session was created without history.
	if _, err := sess.SnapshotAt(ctx, 1); err == nil {
		t.Fatal("SnapshotAt succeeded without history retention")
	}

	// Query round-trip.
	info, err := sess.RegisterQuery(ctx, api.QuerySpec{Kind: api.QueryLocationUpdates, MinChange: 0.0})
	if err != nil {
		t.Fatalf("RegisterQuery: %v", err)
	}
	if _, err := sess.Ingest(ctx, batch(5, "obj-A")); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Flush(ctx, false); err != nil {
		t.Fatal(err)
	}
	page, err := sess.PollResults(ctx, info.ID, client.PollOptions{After: -1})
	if err != nil {
		t.Fatalf("PollResults: %v", err)
	}
	if len(page.Results) == 0 {
		t.Fatal("no results after flush")
	}
	queries, err := sess.Queries(ctx)
	if err != nil || len(queries) != 1 {
		t.Fatalf("Queries = %v (err %v), want 1", queries, err)
	}
	if err := sess.DeleteQuery(ctx, info.ID); err != nil {
		t.Fatalf("DeleteQuery: %v", err)
	}

	// Delete the session; it disappears from the list and addressing it 404s.
	if err := sess.Delete(ctx); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := sess.Snapshot(ctx); err == nil {
		t.Fatal("snapshot of deleted session succeeded")
	}
	sessions, _ = c.Sessions(ctx)
	if len(sessions) != 1 {
		t.Fatalf("%d sessions after delete, want 1", len(sessions))
	}
}

// TestStructuredErrors pins the SDK's error contract: every failure surfaces
// as *api.Error with a stable code and the HTTP status filled in.
func TestStructuredErrors(t *testing.T) {
	c := newTestServer(t)
	ctx := context.Background()

	// Unknown session: not_found.
	_, err := c.GetSession(ctx, "nope")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.ErrNotFound || apiErr.HTTPStatus != 404 {
		t.Fatalf("GetSession(nope) = %v, want *api.Error{not_found, 404}", err)
	}

	// An id that is taken: conflict.
	_, err = c.CreateSession(ctx, api.CreateSessionRequest{ID: "default"})
	if !errors.As(err, &apiErr) || apiErr.Code != api.ErrConflict || apiErr.HTTPStatus != 409 {
		t.Fatalf("CreateSession(default) = %v, want conflict 409", err)
	}

	// Duplicate id: conflict.
	if _, err := c.CreateSession(ctx, api.CreateSessionRequest{ID: "dup"}); err != nil {
		t.Fatal(err)
	}
	_, err = c.CreateSession(ctx, api.CreateSessionRequest{ID: "dup"})
	if !errors.As(err, &apiErr) || apiErr.Code != api.ErrConflict {
		t.Fatalf("duplicate CreateSession = %v, want conflict", err)
	}

	// Invalid engine knobs: bad_request.
	_, err = c.CreateSession(ctx, api.CreateSessionRequest{Engine: &api.EngineConfig{ObjectParticles: -1}})
	if !errors.As(err, &apiErr) || apiErr.Code != api.ErrBadRequest || apiErr.HTTPStatus != 400 {
		t.Fatalf("bad engine = %v, want bad_request 400", err)
	}

	// Invalid world: bad_request.
	_, err = c.CreateSession(ctx, api.CreateSessionRequest{Source: api.SourceWorld})
	if !errors.As(err, &apiErr) || apiErr.Code != api.ErrBadRequest {
		t.Fatalf("missing world = %v, want bad_request", err)
	}

	// Unknown query on a live session: not_found.
	_, err = c.Session("default").PollResults(ctx, "q999", client.PollOptions{After: -1})
	if !errors.As(err, &apiErr) || apiErr.Code != api.ErrNotFound {
		t.Fatalf("PollResults(q999) = %v, want not_found", err)
	}

	// Untracked tag: not_found through the envelope, like any other missing
	// resource.
	_, err = c.Session("default").SnapshotTag(ctx, "never-seen")
	if !errors.As(err, &apiErr) || apiErr.Code != api.ErrNotFound || apiErr.HTTPStatus != 404 {
		t.Fatalf("SnapshotTag(never-seen) = %v, want not_found 404", err)
	}

	// Health decodes on any status and reports server state by field.
	hz, err := c.Health(ctx)
	if err != nil || !hz.OK || hz.State != "serving" {
		t.Fatalf("Health = %+v (err %v), want ok/serving", hz, err)
	}

	// A non-Health body (wrong server entirely) degrades to a typed error.
	bogus := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "teapot", http.StatusTeapot)
	}))
	defer bogus.Close()
	_, err = client.New(bogus.URL, client.WithHTTPClient(bogus.Client())).Health(ctx)
	if !errors.As(err, &apiErr) || apiErr.HTTPStatus != http.StatusTeapot {
		t.Fatalf("Health against non-rfidserve = %v, want http_418 api error", err)
	}

	// A path the mux itself rejects still yields the structured envelope.
	_, err = c.Session("x/../y").Get(ctx)
	if !errors.As(err, &apiErr) {
		t.Fatalf("mux-level error = %v, want *api.Error", err)
	}
}

// TestLongPollDelivery pins the long-poll contract from the client's side:
// a poller blocked in ?wait= is woken by a result produced AFTER the poll
// started, and a quiet query returns an empty page only once the wait
// elapses.
func TestLongPollDelivery(t *testing.T) {
	c := newTestServer(t)
	ctx := context.Background()
	sess := c.Session("default")

	info, err := sess.RegisterQuery(ctx, api.QuerySpec{Kind: api.QueryLocationUpdates})
	if err != nil {
		t.Fatalf("RegisterQuery: %v", err)
	}

	// Quiet query + short wait: empty page, after roughly the wait.
	start := time.Now()
	page, err := sess.PollResults(ctx, info.ID, client.PollOptions{After: -1, Wait: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("PollResults: %v", err)
	}
	if len(page.Results) != 0 {
		t.Fatalf("quiet poll returned %d rows", len(page.Results))
	}
	if el := time.Since(start); el < 250*time.Millisecond {
		t.Fatalf("quiet poll returned after %v, want >= 250ms (did not long-poll)", el)
	}

	// Delivery: ingest on a side goroutine after the poll is already waiting.
	errs := make(chan error, 1)
	go func() {
		time.Sleep(250 * time.Millisecond)
		if _, err := sess.Ingest(context.Background(), batch(0, "obj-A")); err != nil {
			errs <- err
			return
		}
		_, err := sess.Flush(context.Background(), false)
		errs <- err
	}()
	start = time.Now()
	page, err = sess.PollResults(ctx, info.ID, client.PollOptions{After: -1, Wait: 30 * time.Second})
	if err != nil {
		t.Fatalf("PollResults: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("background ingest: %v", err)
	}
	el := time.Since(start)
	if len(page.Results) == 0 {
		t.Fatal("long poll returned no rows after delivery")
	}
	if el < 200*time.Millisecond {
		t.Fatalf("poll returned in %v — results existed before the poll started?", el)
	}
	if el > 10*time.Second {
		t.Fatalf("poll took %v — delivery did not wake the long-poller", el)
	}
}

// TestResultIterator pins the cursor semantics: every row exactly once, and
// a finished history query ends the stream.
func TestResultIterator(t *testing.T) {
	c := newTestServer(t)
	ctx := context.Background()
	sess := c.Session("default")

	for ep := 0; ep < 8; ep++ {
		if _, err := sess.Ingest(ctx, batch(ep, "obj-A", "obj-B")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Flush(ctx, false); err != nil {
		t.Fatal(err)
	}

	// History query: finished at registration, drained by the iterator.
	info, err := sess.RegisterQuery(ctx, api.QuerySpec{
		Kind: api.QueryWindowedAggregate, Mode: api.ModeHistory,
		FromEpoch: 1, ToEpoch: 5, WindowEpochs: 1,
	})
	if err != nil {
		t.Fatalf("RegisterQuery(history): %v", err)
	}
	if !info.Finished {
		t.Fatalf("history query not finished at registration: %+v", info)
	}
	it := sess.Results(info.ID, client.PollOptions{After: client.FromStart, Limit: 2})
	var seqs []int
	for {
		rows, more, err := it.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		for _, row := range rows {
			seqs = append(seqs, row.Seq)
		}
		if !more {
			break
		}
	}
	if len(seqs) != 5 { // one aggregate row per epoch 1..5
		t.Fatalf("iterator yielded %d rows, want 5 (%v)", len(seqs), seqs)
	}
	for i, seq := range seqs {
		if seq != i {
			t.Fatalf("seqs %v not the exactly-once 0..n sequence", seqs)
		}
	}
	// Drained iterators stay done.
	if rows, more, _ := it.Next(ctx); more || len(rows) != 0 {
		t.Fatalf("drained iterator returned rows=%d more=%v", len(rows), more)
	}
}

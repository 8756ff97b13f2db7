package client_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/rfid/api"
	"repro/rfid/client"
)

// TestConnectionReuseAcrossLargeReads pins that the SDK keeps its keep-alive
// connection when a response is large. A time-travel snapshot of 1 000
// tracked objects used to arrive chunked and be closed once its JSON value
// was decoded, before the final chunk; the transport then drops the
// connection, so the request after every such read had to dial again.
func TestConnectionReuseAcrossLargeReads(t *testing.T) {
	srv, err := serve.New(serve.Config{IngestWait: 5 * time.Second})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	if _, err := srv.CreateSession(context.Background(), api.CreateSessionRequest{
		ID: "big", Source: api.SourceSynthetic,
		Engine: &api.EngineConfig{ObjectParticles: 10, ReaderParticles: 10, Seed: 5, HistoryEpochs: 64},
	}); err != nil {
		t.Fatalf("create session: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	var dials atomic.Int32
	var dialer net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dialer.DialContext(ctx, network, addr)
	}}
	defer tr.CloseIdleConnections()
	sess := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: tr})).Session("big")
	ctx := context.Background()

	tags := make([]string, 1000)
	for i := range tags {
		tags[i] = "obj-" + strconv.Itoa(i)
	}
	if _, err := sess.Ingest(ctx, batch(0, tags...)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, err := sess.Flush(ctx, false); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for round := 1; round <= 20; round++ {
		if _, err := sess.Ingest(ctx, batch(round, tags[:8]...)); err != nil {
			t.Fatalf("round %d ingest: %v", round, err)
		}
		snap, err := sess.SnapshotAt(ctx, 0)
		if err != nil {
			t.Fatalf("round %d snapshot: %v", round, err)
		}
		if len(snap.Objects) < 1000 {
			t.Fatalf("round %d: snapshot holds %d objects, want >= 1000", round, len(snap.Objects))
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("21 ingests, a flush and 20 time-travel reads opened %d connections, want 1", n)
	}
}

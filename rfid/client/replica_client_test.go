package client_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/rfid/api"
	"repro/rfid/client"
)

// TestWithReadReplicaRouting pins the split-brain-free routing rule: GETs go
// to the replica, everything else (and Promote) to the node it addresses.
func TestWithReadReplicaRouting(t *testing.T) {
	record := func(hits *[]string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			*hits = append(*hits, r.Method+" "+r.URL.Path)
			switch {
			case r.URL.Path == "/v1/promote":
				json.NewEncoder(w).Encode(api.PromoteResponse{Role: api.RolePrimary, Sessions: 1})
			case r.Method == http.MethodGet:
				w.Write([]byte(`{"sessions":[]}`))
			default:
				w.WriteHeader(http.StatusAccepted)
				w.Write([]byte(`{}`))
			}
		}
	}
	var primaryHits, replicaHits []string
	primary := httptest.NewServer(record(&primaryHits))
	defer primary.Close()
	replica := httptest.NewServer(record(&replicaHits))
	defer replica.Close()

	c := client.New(primary.URL, client.WithReadReplica(replica.URL))
	ctx := context.Background()
	if _, err := c.Sessions(ctx); err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	if _, err := c.Session("default").Ingest(ctx, api.IngestRequest{}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	pr, err := c.Promote(ctx)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if pr.Role != api.RolePrimary {
		t.Fatalf("Promote role = %q", pr.Role)
	}

	wantPrimary := []string{"POST /v1/sessions/default/ingest"}
	wantReplica := []string{"GET /v1/sessions", "POST /v1/promote"}
	if len(primaryHits) != len(wantPrimary) || primaryHits[0] != wantPrimary[0] {
		t.Fatalf("primary saw %v, want %v", primaryHits, wantPrimary)
	}
	if len(replicaHits) != len(wantReplica) || replicaHits[0] != wantReplica[0] || replicaHits[1] != wantReplica[1] {
		t.Fatalf("replica saw %v, want %v", replicaHits, wantReplica)
	}
}

// TestPromoteIdempotentOnPrimary exercises Promote against a real server that
// is already primary: 200, role "primary", no error.
func TestPromoteIdempotentOnPrimary(t *testing.T) {
	c := newTestServer(t)
	pr, err := c.Promote(context.Background())
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if pr.Role != api.RolePrimary {
		t.Fatalf("Promote role = %q, want %q", pr.Role, api.RolePrimary)
	}
}

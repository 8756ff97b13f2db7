package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/rfid/api"
	"repro/rfid/client"
)

// The api-smoke test is the v1 counterpart of the recover-smoke test: a REAL
// child process serves the multi-session API, the parent drives it purely
// through the rfid/client SDK — create two sessions, ingest into both,
// long-poll results — then SIGKILLs the child and verifies both sessions
// recover byte-identically from their own durability subdirectories. This is
// the `make api-smoke` CI gate.

const apiSmokeChildEnv = "RFIDSERVE_APISMOKE_CHILD"

// TestAPISmokeChild is the child-process body; it only runs when re-executed
// by TestAPISmoke.
func TestAPISmokeChild(t *testing.T) {
	if os.Getenv(apiSmokeChildEnv) == "" {
		t.Skip("not an api-smoke child")
	}
	srv, err := New(Config{
		DataDir:         os.Getenv("RFIDSERVE_APISMOKE_DIR"),
		CheckpointEvery: 4,
		Fsync:           wal.SyncAlways,
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	// Serve until killed; the parent ends this process with SIGKILL.
	t.Fatal(http.ListenAndServe(os.Getenv("RFIDSERVE_APISMOKE_ADDR"), srv.Handler()))
}

// spawnAPISmokeChild starts the child and waits until /v1/healthz serves.
func spawnAPISmokeChild(t *testing.T, dataDir, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestAPISmokeChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		apiSmokeChildEnv+"=1",
		"RFIDSERVE_APISMOKE_DIR="+dataDir,
		"RFIDSERVE_APISMOKE_ADDR="+addr,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	c := client.New("http://" + addr)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		hz, err := c.Health(context.Background())
		if err == nil && hz.OK && hz.State == "serving" {
			return cmd
		}
		time.Sleep(50 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	t.Fatal("child never became healthy")
	return nil
}

// smokeBatch builds session-specific per-epoch batches so the two sessions
// carry recognizably different state.
func smokeBatch(prefix string, epoch int) api.IngestRequest {
	return api.IngestRequest{
		Readings: []api.Reading{
			{Time: epoch, Tag: prefix + "-1"},
			{Time: epoch, Tag: prefix + "-2"},
		},
		Locations: []api.LocationReport{{Time: epoch, X: 1 + 0.1*float64(epoch), Y: 2.5, Z: 3}},
	}
}

// resultsFingerprint renders a page's rows into a canonical comparable
// string.
func resultsFingerprint(page api.ResultsPage) string {
	out := ""
	for _, row := range page.Results {
		out += fmt.Sprintf("%d:%s\n", row.Seq, row.Row)
	}
	return out
}

// TestAPISmoke: create two sessions over HTTP, ingest into both, long-poll
// results, kill -9, restart, verify both sessions' recovery.
func TestAPISmoke(t *testing.T) {
	if os.Getenv(apiSmokeChildEnv) != "" {
		t.Skip("api-smoke child runs only its own test")
	}
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	dataDir := t.TempDir()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	ctx := context.Background()

	// First life.
	child := spawnAPISmokeChild(t, dataDir, addr)
	c := client.New("http://" + addr)
	for _, req := range []api.CreateSessionRequest{
		{ID: "site-a", Source: api.SourceSynthetic, Engine: &api.EngineConfig{ObjectParticles: 100, Seed: 1}},
		{ID: "site-b", Source: api.SourceSynthetic, Synthetic: &api.SyntheticWorld{FloorX: 20, FloorY: 20, FloorZ: 6}, Engine: &api.EngineConfig{ObjectParticles: 80, Seed: 2}},
	} {
		if _, err := c.CreateSession(ctx, req); err != nil {
			t.Fatalf("create %s: %v", req.ID, err)
		}
	}
	queries := map[string]api.QueryInfo{}
	for _, sid := range []string{"site-a", "site-b"} {
		info, err := c.Session(sid).RegisterQuery(ctx, api.QuerySpec{Kind: api.QueryLocationUpdates, MinChange: 0.01})
		if err != nil {
			t.Fatalf("register on %s: %v", sid, err)
		}
		queries[sid] = info
	}

	// Long-poll on site-a BEFORE its data exists; the concurrent ingest loop
	// below must wake it.
	type pollOut struct {
		page api.ResultsPage
		err  error
	}
	polled := make(chan pollOut, 1)
	go func() {
		page, err := c.Session("site-a").PollResults(context.Background(), queries["site-a"].ID,
			client.PollOptions{After: -1, Wait: 20 * time.Second})
		polled <- pollOut{page, err}
	}()

	for ep := 0; ep < 10; ep++ {
		for _, sid := range []string{"site-a", "site-b"} {
			ack, err := c.Session(sid).Ingest(ctx, smokeBatch(sid, ep))
			if err != nil {
				t.Fatalf("ingest %s epoch %d: %v", sid, ep, err)
			}
			if !ack.Durable {
				t.Fatalf("ingest ack on %s not durable: %+v", sid, ack)
			}
		}
	}
	res := <-polled
	if res.err != nil {
		t.Fatalf("long poll: %v", res.err)
	}
	if len(res.page.Results) == 0 {
		t.Fatal("long poll woke with no rows")
	}

	// Record the acknowledged state of both sessions.
	before := map[string]string{}
	for _, sid := range []string{"site-a", "site-b"} {
		snap, err := c.Session(sid).SnapshotTag(ctx, sid+"-1")
		if err != nil || !snap.Found {
			t.Fatalf("snapshot %s: %v (found=%v)", sid, err, snap.Found)
		}
		b, _ := json.Marshal(snap)
		before[sid+"/snap"] = string(b)
		page, err := c.Session(sid).PollResults(ctx, queries[sid].ID, client.PollOptions{After: -1})
		if err != nil {
			t.Fatalf("results %s: %v", sid, err)
		}
		before[sid+"/results"] = resultsFingerprint(page)
	}

	// kill -9: no graceful shutdown, no final checkpoints anywhere.
	if err := child.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = child.Wait()

	// Second life: both sessions recover from their own subdirectories.
	child2 := spawnAPISmokeChild(t, dataDir, addr)
	defer func() {
		_ = child2.Process.Kill()
		_, _ = child2.Process.Wait()
	}()
	sessions, err := c.Sessions(ctx)
	if err != nil {
		t.Fatalf("Sessions after recovery: %v", err)
	}
	if len(sessions) != 2 {
		t.Fatalf("%d sessions after recovery, want 2", len(sessions))
	}
	for _, sid := range []string{"site-a", "site-b"} {
		snap, err := c.Session(sid).SnapshotTag(ctx, sid+"-1")
		if err != nil {
			t.Fatalf("recovered snapshot %s: %v", sid, err)
		}
		b, _ := json.Marshal(snap)
		if string(b) != before[sid+"/snap"] {
			t.Fatalf("%s snapshot diverged across kill -9:\nbefore %s\nafter  %s", sid, before[sid+"/snap"], b)
		}
		page, err := c.Session(sid).PollResults(ctx, queries[sid].ID, client.PollOptions{After: -1})
		if err != nil {
			t.Fatalf("recovered results %s: %v", sid, err)
		}
		if got := resultsFingerprint(page); got != before[sid+"/results"] {
			t.Fatalf("%s query results diverged across kill -9:\nbefore %s\nafter  %s", sid, before[sid+"/results"], got)
		}
	}

	// The recovered sessions keep serving independently.
	if _, err := c.Session("site-a").Ingest(ctx, smokeBatch("site-a", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session("site-a").Flush(ctx, false); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Session("site-a").SnapshotTag(ctx, "site-a-1")
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := json.Marshal(snap); string(b) == before["site-a/snap"] {
		t.Fatal("post-recovery ingest did not advance site-a's estimate")
	}
	// site-b is untouched by site-a's new traffic.
	snapB, err := c.Session("site-b").SnapshotTag(ctx, "site-b-1")
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := json.Marshal(snapB); string(b) != before["site-b/snap"] {
		t.Fatal("site-b state moved without site-b traffic")
	}
}

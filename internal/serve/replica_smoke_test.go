package serve

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/wal"
)

// The replica-smoke test exercises real failover across process boundaries: a
// primary child and a replica child run as separate processes wired over TCP;
// the parent ingests into the primary under -fsync always, waits for the
// replica to converge, kills the primary with SIGKILL, promotes the replica,
// and verifies the promoted node serves byte-identical snapshots and query
// results to both the pre-kill primary and an uninterrupted reference process
// fed the same stream. This is the `make replica-smoke` CI gate.

const replSmokeChildEnv = "RFIDSERVE_REPL_SMOKE_CHILD"

// TestReplicaSmokeChild is the child-process body; it only runs when
// re-executed by TestReplicaSmoke. With RFIDSERVE_REPL_SMOKE_PRIMARY set it
// follows that address as a replica; otherwise it serves as a primary.
func TestReplicaSmokeChild(t *testing.T) {
	if os.Getenv(replSmokeChildEnv) == "" {
		t.Skip("not a replica smoke child")
	}
	dataDir := os.Getenv("RFIDSERVE_REPL_SMOKE_DIR")
	addr := os.Getenv("RFIDSERVE_REPL_SMOKE_ADDR")
	primary := os.Getenv("RFIDSERVE_REPL_SMOKE_PRIMARY")

	srv, err := New(Config{
		DataDir:         dataDir,
		CheckpointEvery: 5,
		Fsync:           wal.SyncAlways,
		ReplicaOf:       primary,
		ReplicaName:     "smoke-replica",
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if primary == "" {
		// A replica's session arrives from its primary instead.
		openSession(t, srv, smokeSession)
	}
	// Serve until the parent kills this process.
	t.Fatal(http.ListenAndServe(addr, srv.Handler()))
}

// spawnReplSmokeChild starts a child and waits until its /v1/healthz reports
// serving. primary == "" spawns a primary, otherwise a replica of that addr.
func spawnReplSmokeChild(t *testing.T, dataDir, addr, primary string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestReplicaSmokeChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		replSmokeChildEnv+"=1",
		"RFIDSERVE_REPL_SMOKE_DIR="+dataDir,
		"RFIDSERVE_REPL_SMOKE_ADDR="+addr,
		"RFIDSERVE_REPL_SMOKE_PRIMARY="+primary,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/v1/healthz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	t.Fatal("child never became healthy")
	return nil
}

// reservePort grabs a free localhost port and releases it for a child.
func reservePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// replSmokeIngest feeds the fixed 12-epoch trace segment [from, to) into a
// node — the identical byte stream for the primary and the reference run.
func replSmokeIngest(t *testing.T, base string, from, to int) {
	t.Helper()
	for ep := from; ep < to; ep++ {
		body := fmt.Sprintf(`{"readings":[{"time":%d,"tag":"obj-A"},{"time":%d,"tag":"obj-B"}],`+
			`"locations":[{"time":%d,"x":%g,"y":%g,"z":3}]}`, ep, ep, ep, 1.0+0.1*float64(ep), 2.0)
		resp, err := http.Post(base+sessPath+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("ingest epoch %d: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest epoch %d: status %d", ep, resp.StatusCode)
		}
	}
}

// replSmokeRegisterQuery registers the continuous query whose replicated
// results the fingerprint covers, returning its id.
func replSmokeRegisterQuery(t *testing.T, base string) string {
	t.Helper()
	var info struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, base+sessPath+"/queries",
		map[string]any{"kind": "location-updates", "min_change": 0.1}, &info); code != http.StatusCreated {
		t.Fatalf("register query: status %d", code)
	}
	return info.ID
}

// replSmokeFingerprint renders a node's externally visible state — overview,
// per-tag beliefs, and the continuous query's full result page — into one
// comparable string.
func replSmokeFingerprint(t *testing.T, base, queryID string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(httpGetBody(t, base+sessPath+"/snapshot"))
	b.WriteString(httpGetBody(t, base+sessPath+"/snapshot/obj-A"))
	b.WriteString(httpGetBody(t, base+sessPath+"/snapshot/obj-B"))
	b.WriteString(httpGetBody(t, base+sessPath+"/queries/"+queryID+"/results?after=-1&limit=10000"))
	return b.String()
}

// TestReplicaSmoke: primary + replica as real processes, kill -9 the primary
// once the replica converged, promote, and compare against an uninterrupted
// reference run.
func TestReplicaSmoke(t *testing.T) {
	if os.Getenv(replSmokeChildEnv) != "" || os.Getenv(smokeChildEnv) != "" {
		t.Skip("smoke child runs only its own test")
	}
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	pDir, rDir, refDir := t.TempDir(), t.TempDir(), t.TempDir()
	pAddr, rAddr, refAddr := reservePort(t), reservePort(t), reservePort(t)
	pBase, rBase, refBase := "http://"+pAddr, "http://"+rAddr, "http://"+refAddr

	// Primary: register the query, ingest half the trace, then let the
	// replica join mid-run and ingest the rest.
	primary := spawnReplSmokeChild(t, pDir, pAddr, "")
	defer func() {
		_ = primary.Process.Kill()
		_, _ = primary.Process.Wait()
	}()
	queryID := replSmokeRegisterQuery(t, pBase)
	replSmokeIngest(t, pBase, 0, 6)

	replica := spawnReplSmokeChild(t, rDir, rAddr, pAddr)
	defer func() {
		_ = replica.Process.Kill()
		_, _ = replica.Process.Wait()
	}()
	replSmokeIngest(t, pBase, 6, 12)
	resp, err := http.Post(pBase+sessPath+"/flush", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d", resp.StatusCode)
	}
	want := replSmokeFingerprint(t, pBase, queryID)

	// Wait for the replica to converge on the acknowledged state before the
	// kill: replication is async, so "no loss on failover" is only promised
	// for what the replica has acked.
	deadline := time.Now().Add(60 * time.Second)
	converged := false
	var got string
	for time.Now().Before(deadline) {
		got = replSmokeFingerprint(t, rBase, queryID)
		if got == want {
			converged = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !converged {
		t.Fatalf("replica never converged before kill:\nprimary %s\nreplica %s", want, got)
	}

	// kill -9 the primary: no seal, no final checkpoint, no goodbye.
	if err := primary.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL primary: %v", err)
	}
	_, _ = primary.Process.Wait()

	// Promote the replica; it must serve the exact acknowledged state.
	var pr struct {
		Role string `json:"role"`
	}
	if code := postJSON(t, rBase+"/v1/promote", struct{}{}, &pr); code != http.StatusOK {
		t.Fatalf("promote: status %d", code)
	}
	if pr.Role != "primary" {
		t.Fatalf("promote role = %q, want primary", pr.Role)
	}
	if got := replSmokeFingerprint(t, rBase, queryID); got != want {
		t.Fatalf("promoted state diverged from pre-kill primary:\nwant %s\ngot  %s", want, got)
	}

	// Reference: an uninterrupted single process fed the identical stream
	// must land on the identical bytes — failover inserted nothing.
	ref := spawnReplSmokeChild(t, refDir, refAddr, "")
	defer func() {
		_ = ref.Process.Kill()
		_, _ = ref.Process.Wait()
	}()
	refQueryID := replSmokeRegisterQuery(t, refBase)
	if refQueryID != queryID {
		t.Fatalf("reference query id %q != primary query id %q", refQueryID, queryID)
	}
	replSmokeIngest(t, refBase, 0, 12)
	resp, err = http.Post(refBase+sessPath+"/flush", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if refGot := replSmokeFingerprint(t, refBase, queryID); refGot != want {
		t.Fatalf("reference run diverged from replicated state:\nreference %s\nreplica   %s", refGot, want)
	}

	// The promoted node is a real primary: it accepts writes and advances.
	resp, err = http.Post(rBase+sessPath+"/ingest", "application/json",
		strings.NewReader(`{"readings":[{"time":12,"tag":"obj-A"}],"locations":[{"time":12,"x":2.2,"y":2,"z":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-promotion ingest: status %d", resp.StatusCode)
	}
	resp, err = http.Post(rBase+sessPath+"/flush", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-promotion flush: status %d", resp.StatusCode)
	}
	if got := replSmokeFingerprint(t, rBase, queryID); got == want {
		t.Fatal("post-promotion ingest did not advance the estimate")
	}
}

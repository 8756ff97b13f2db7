package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/rfid/api"
)

// The recover-smoke test exercises a REAL process kill: a child process (this
// test binary re-executed) runs a durable server, the parent ingests over
// HTTP, sends SIGKILL — no deferred handlers, no graceful anything — restarts
// the child on the same data directory and verifies the recovered state
// matches what was acknowledged before the kill. This is the `make
// recover-smoke` CI gate.

const smokeChildEnv = "RFIDSERVE_SMOKE_CHILD"

// smokeSession is the session the recover- and replica-smoke children host.
var smokeSession = api.CreateSessionRequest{
	ID: "default", Source: api.SourceSynthetic,
	Engine: &api.EngineConfig{ObjectParticles: 200, Seed: 4, HistoryEpochs: 128},
}

// TestRecoverSmokeChild is the child-process body; it only runs when
// re-executed by TestRecoverSmoke.
func TestRecoverSmokeChild(t *testing.T) {
	if os.Getenv(smokeChildEnv) == "" {
		t.Skip("not a smoke child")
	}
	dataDir := os.Getenv("RFIDSERVE_SMOKE_DIR")
	addr := os.Getenv("RFIDSERVE_SMOKE_ADDR")

	srv, err := New(Config{
		DataDir:         dataDir,
		CheckpointEvery: 5,
		Fsync:           wal.SyncAlways,
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	// First life creates the session; the second finds it restored.
	openSession(t, srv, smokeSession)
	// Serve until killed. ListenAndServe never returns on the happy path;
	// the parent ends this process with SIGKILL (first life) or SIGTERM-less
	// hard exit via test timeout (second life, after verification).
	t.Fatal(http.ListenAndServe(addr, srv.Handler()))
}

// spawnSmokeChild starts the child and waits until its /v1/healthz reports
// serving.
func spawnSmokeChild(t *testing.T, dataDir, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestRecoverSmokeChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		smokeChildEnv+"=1",
		"RFIDSERVE_SMOKE_DIR="+dataDir,
		"RFIDSERVE_SMOKE_ADDR="+addr,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var hz struct {
			State string `json:"state"`
		}
		resp, err := http.Get("http://" + addr + "/v1/healthz")
		if err == nil {
			code := resp.StatusCode
			_ = json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			if code == http.StatusOK && hz.State == "serving" {
				return cmd
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	t.Fatal("child never became healthy")
	return nil
}

// TestRecoverSmoke: start server, ingest, kill -9, restart, verify state.
func TestRecoverSmoke(t *testing.T) {
	if os.Getenv(smokeChildEnv) != "" {
		t.Skip("smoke child runs only its own test")
	}
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	dataDir := t.TempDir()
	// Reserve a port, then free it for the child.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	base := "http://" + addr + sessPath

	// First life: ingest 12 epochs of synthetic readings, snapshot a tag.
	child := spawnSmokeChild(t, dataDir, addr)
	for ep := 0; ep < 12; ep++ {
		body := fmt.Sprintf(`{"readings":[{"time":%d,"tag":"obj-A"},{"time":%d,"tag":"obj-B"}],`+
			`"locations":[{"time":%d,"x":%g,"y":%g,"z":3}]}`, ep, ep, ep, 1.0+0.1*float64(ep), 2.0)
		resp, err := http.Post(base+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("ingest epoch %d: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest epoch %d: status %d", ep, resp.StatusCode)
		}
	}
	before := httpGetBody(t, base+"/snapshot/obj-A")
	beforeAll := httpGetBody(t, base+"/snapshot")

	// kill -9: no graceful shutdown, no final checkpoint.
	if err := child.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = child.Wait()

	// Second life: recovery must reproduce the acknowledged state exactly.
	child2 := spawnSmokeChild(t, dataDir, addr)
	defer func() {
		_ = child2.Process.Kill()
		_, _ = child2.Process.Wait()
	}()
	after := httpGetBody(t, base+"/snapshot/obj-A")
	afterAll := httpGetBody(t, base+"/snapshot")
	if after != before {
		t.Fatalf("snapshot diverged across kill -9:\nbefore %s\nafter  %s", before, after)
	}
	if afterAll != beforeAll {
		t.Fatalf("progress snapshot diverged across kill -9:\nbefore %s\nafter  %s", beforeAll, afterAll)
	}

	// The recovered server keeps serving: ingest more and flush.
	resp, err := http.Post(base+"/ingest", "application/json",
		strings.NewReader(`{"readings":[{"time":12,"tag":"obj-A"}],"locations":[{"time":12,"x":2.2,"y":2,"z":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(base+"/flush", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery flush: status %d", resp.StatusCode)
	}
	if got := httpGetBody(t, base+"/snapshot/obj-A"); got == after {
		t.Fatal("post-recovery ingest did not advance the estimate")
	}
}

// httpGetBody fetches a URL and returns the body string.
func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(b)
}

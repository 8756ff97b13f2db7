package serve

import (
	"context"
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

// The stream-smoke test is the data-plane counterpart of the api-smoke test:
// a REAL child process serves the v1 API, the parent drives it through the
// SDK's StreamIngester over the persistent binary stream, then SIGKILLs the
// child MID-STREAM (acked batches durable, later ones still in flight). The
// ingester must ride out the outage, reconnect to the recovered child, resume
// from the server's durable sequence watermark and deliver every batch exactly
// once — verified by comparing the final session state byte-for-byte against
// an uninterrupted run of the same trace on a second server. This is the
// `make stream-smoke` CI gate.

const streamSmokeChildEnv = "RFIDSERVE_STREAMSMOKE_CHILD"

// TestStreamSmokeChild is the child-process body; it only runs when
// re-executed by TestStreamSmoke.
func TestStreamSmokeChild(t *testing.T) {
	if os.Getenv(streamSmokeChildEnv) == "" {
		t.Skip("not a stream-smoke child")
	}
	srv, err := New(Config{
		DataDir:         os.Getenv("RFIDSERVE_STREAMSMOKE_DIR"),
		CheckpointEvery: 4,
		Fsync:           wal.SyncAlways,
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	// Serve until killed; the parent ends this process with SIGKILL.
	t.Fatal(http.ListenAndServe(os.Getenv("RFIDSERVE_STREAMSMOKE_ADDR"), srv.Handler()))
}

// spawnStreamSmokeChild starts the child and waits until /v1/healthz serves.
func spawnStreamSmokeChild(t *testing.T, dataDir, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestStreamSmokeChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		streamSmokeChildEnv+"=1",
		"RFIDSERVE_STREAMSMOKE_DIR="+dataDir,
		"RFIDSERVE_STREAMSMOKE_ADDR="+addr,
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

// streamSmokeFeed pushes the whole deterministic trace into the ingester up
// front. With a long FlushInterval, every batch boundary is then fixed by
// BatchSize alone, so the interrupted and uninterrupted runs seal identical
// batches — a precondition for byte-identical final state.
func streamSmokeFeed(t *testing.T, ing *client.StreamIngester, epochs int) {
	t.Helper()
	for ep := 0; ep < epochs; ep++ {
		if err := ing.AddLocation(api.LocationReport{Time: ep, X: 1 + 0.1*float64(ep), Y: 2.5, Z: 3}); err != nil {
			t.Fatalf("add location epoch %d: %v", ep, err)
		}
		for _, tag := range []string{"crate-1", "crate-2", "crate-3"} {
			if err := ing.AddReading(ep, tag); err != nil {
				t.Fatalf("add reading epoch %d: %v", ep, err)
			}
		}
	}
}

// streamSmokeRun creates the durable session over the SDK and streams the
// trace into it. When kill is non-nil it is invoked after the first ack — the
// genuine mid-stream moment: at least one batch is durable, the rest are
// pending or in flight — and must return once a replacement child is serving.
func streamSmokeRun(t *testing.T, base string, kill func()) {
	t.Helper()
	ctx := context.Background()
	c := client.New(base)
	sess, _, err := c.OpenSession(ctx, api.CreateSessionRequest{
		ID: "belt", Source: api.SourceSynthetic,
		Engine: &api.EngineConfig{ObjectParticles: 80, Seed: 3},
	})
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	acks := make(chan api.StreamAck, 64)
	ing := sess.Stream(client.StreamOptions{
		BatchSize:     4,
		FlushInterval: time.Hour, // boundaries fixed by BatchSize alone
		Window:        2,
		ReconnectWait: 50 * time.Millisecond,
		MaxAttempts:   100,
		OnAck: func(a api.StreamAck) {
			select {
			case acks <- a:
			default:
			}
		},
	})
	const epochs = 24 // 24*(3 readings + 1 location) / BatchSize 4 = 24 batches
	streamSmokeFeed(t, ing, epochs)
	if kill != nil {
		select {
		case a := <-acks:
			if !a.Durable {
				t.Fatalf("streamed ack not durable: %+v", a)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("no ack before kill point")
		}
		kill()
	}
	closeCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := ing.Flush(closeCtx); err != nil {
		t.Fatalf("stream flush: %v", err)
	}
	if err := ing.Close(closeCtx); err != nil {
		t.Fatalf("stream close: %v", err)
	}
	if got := ing.Acked().UpTo; got != epochs {
		t.Fatalf("acked UpTo = %d, want %d (one ack per sealed batch, exactly once)", got, epochs)
	}
	if _, err := sess.Flush(ctx, true); err != nil {
		t.Fatalf("session flush: %v", err)
	}
}

// TestStreamSmoke: stream a trace into a durable session, kill -9 the server
// mid-stream, let the ingester reconnect to the recovered process and finish,
// then verify the final state is byte-identical to an uninterrupted run.
func TestStreamSmoke(t *testing.T) {
	if os.Getenv(streamSmokeChildEnv) != "" {
		t.Skip("stream-smoke child runs only its own test")
	}
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	addrs := [2]string{}
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}

	// Uninterrupted reference on its own server and data directory.
	refChild := spawnStreamSmokeChild(t, t.TempDir(), addrs[0])
	defer func() {
		_ = refChild.Process.Kill()
		_, _ = refChild.Process.Wait()
	}()
	streamSmokeRun(t, "http://"+addrs[0], nil)
	want := stateFingerprint(t, "http://"+addrs[0], "belt")

	// Interrupted run: SIGKILL after the first durable ack, restart on the
	// same data directory, and let the ingester resume.
	dataDir := t.TempDir()
	child := spawnStreamSmokeChild(t, dataDir, addrs[1])
	var child2 *exec.Cmd
	streamSmokeRun(t, "http://"+addrs[1], func() {
		if err := child.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatalf("SIGKILL: %v", err)
		}
		_ = child.Wait()
		child2 = spawnStreamSmokeChild(t, dataDir, addrs[1])
	})
	defer func() {
		if child2 != nil {
			_ = child2.Process.Kill()
			_, _ = child2.Process.Wait()
		}
	}()
	got := stateFingerprint(t, "http://"+addrs[1], "belt")
	if got != want {
		t.Fatalf("state after kill -9 + stream resume diverged from uninterrupted run:\nwant %s\ngot  %s", want, got)
	}
	if want == "" {
		t.Fatal("empty fingerprint: the comparison is vacuous")
	}
}

package serve

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/wal"
	"repro/rfid"
	"repro/rfid/api"
	"repro/rfid/wire"
)

// replRequest describes the fixed session every node in the replication tests
// runs — only the parallelism knobs (Workers, ShardCount) vary, which the
// state fingerprint and checkpoint encoding are deliberately independent of —
// and returns it with the raw streams the primary ingests.
func replRequest(t *testing.T, workers, shards int) (api.CreateSessionRequest, []rfid.Reading, []rfid.LocationReport) {
	t.Helper()
	simCfg := rfid.DefaultWarehouseConfig()
	simCfg.NumObjects = 6
	simCfg.NumShelfTags = 4
	simCfg.Seed = 9
	trace, err := rfid.SimulateWarehouse(simCfg)
	if err != nil {
		t.Fatalf("SimulateWarehouse: %v", err)
	}
	req := sessionRequest(trace.World, api.EngineConfig{
		ObjectParticles: 150, ReaderParticles: 40, Seed: 9, HoldEpochs: 1, HistoryEpochs: 64,
		Workers: workers, ShardCount: shards,
	})
	readings, locations := rfid.RawStreams(trace)
	return req, readings, locations
}

// TestReplicaConvergesAcrossTransposition is the tentpole property: a fresh
// replica joining mid-run — with TRANSPOSED Workers/ShardCount — bootstraps
// from the primary's newest checkpoint, tails the shipped WAL and converges to
// byte-identical externally visible state, byte-identical checkpoint files and
// byte-identical WAL segments; then a promotion turns it into a serving
// primary.
func TestReplicaConvergesAcrossTransposition(t *testing.T) {
	pDir, rDir := t.TempDir(), t.TempDir()

	pReq, readings, locations := replRequest(t, 1, 2)
	psv, err := New(Config{
		DataDir: pDir, CheckpointEvery: 4, Fsync: wal.SyncAlways,
		IngestWait: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("primary New: %v", err)
	}
	openSession(t, psv, pReq)
	pts := httptest.NewServer(psv.Handler())
	defer func() {
		pts.Close()
		psv.Close()
	}()

	// First half of the trace lands before the replica exists: the join is
	// mid-run, so the replica must bootstrap state it never saw shipped live.
	halfR, halfL := len(readings)/2, len(locations)/2
	if code := postJSON(t, pts.URL+"/v1/sessions/default/ingest", ingestBody(readings[:halfR], locations[:halfL]), nil); code != http.StatusAccepted {
		t.Fatalf("first-half ingest: status %d", code)
	}
	// One of each record outcome, so the replica meets them all: those logged
	// after the newest checkpoint arrive as shipped records, the rest inside
	// the bootstrap image.
	recordOutcomeMix(t, pts.URL, true)
	if code := postJSON(t, pts.URL+"/v1/sessions/default/flush", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("first-half flush: status %d", code)
	}

	// The replica runs the transposed parallelism configuration: it already
	// holds the session's manifest under its own knobs, so the primary's
	// announcement re-bootstraps the existing session instead of creating it
	// from the shipped manifest.
	rReq, _, _ := replRequest(t, 4, 8)
	putManifest(t, rDir, rReq)
	rsv, err := New(Config{
		DataDir: rDir, CheckpointEvery: 4, Fsync: wal.SyncAlways,
		ReplicaOf: pts.Listener.Addr().String(),
	})
	if err != nil {
		t.Fatalf("replica New: %v", err)
	}
	rts := httptest.NewServer(rsv.Handler())
	defer func() {
		rts.Close()
		rsv.Close()
	}()

	// Second half lands while the replica is (re)bootstrapping and tailing.
	if code := postJSON(t, pts.URL+"/v1/sessions/default/ingest", ingestBody(readings[halfR:], locations[halfL:]), nil); code != http.StatusAccepted {
		t.Fatalf("second-half ingest: status %d", code)
	}
	if code := postJSON(t, pts.URL+"/v1/sessions/default/flush", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("second-half flush: status %d", code)
	}
	want := stateFingerprint(t, pts.URL, "default")

	// Converge: externally visible state AND the newest checkpoint must both
	// catch up (the checkpoint marker is the last shipped record, so state
	// equality alone can race it).
	waitReplicaConverged(t, pts.URL, rts.URL, pDir, rDir, want)

	// Byte-identity on disk: the newest checkpoints and every WAL segment
	// present on both nodes must match exactly.
	compareReplicaDirs(t, pDir, rDir)
	if p, r := getRaw(t, pts.URL+sessPath+"/queries"), getRaw(t, rts.URL+sessPath+"/queries"); p != r {
		t.Fatalf("query lists differ:\nprimary %s\nreplica %s", p, r)
	}

	// A session's wire id is its id — "default" like any other — and a frame
	// that names no session is refused loudly, never mapped onto one.
	if cur := rsv.replCursors(); len(cur) != 1 || cur[0].SID != "default" {
		t.Fatalf("replica hello cursors = %+v, want one for session %q", cur, "default")
	}
	if _, err := rsv.replApply(wire.ReplRecord{SID: "", Seg: 1, Off: wal.HeaderLen}); err == nil || !strings.Contains(err.Error(), "empty session id") {
		t.Fatalf("record with an empty session id: err = %v, want a refusal naming it", err)
	}
	if err := rsv.replBootstrap("", `{"source":"synthetic"}`, nil, 1, wal.HeaderLen); err == nil || !strings.Contains(err.Error(), "empty session id") {
		t.Fatalf("bootstrap with an empty session id: err = %v, want a refusal naming it", err)
	}
	if n := len(rsv.snapshotSessions()); n != 1 {
		t.Fatalf("replica hosts %d sessions after refusing the unnamed frames, want 1", n)
	}

	// The replica read surface declares itself: role/staleness headers on
	// reads, role + lag in healthz, writes refused with the stable code.
	resp, err := http.Get(rts.URL + "/v1/sessions/default/snapshot")
	if err != nil {
		t.Fatalf("replica snapshot: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.HeaderRole); got != api.RoleReplica {
		t.Fatalf("replica %s header = %q, want %q", api.HeaderRole, got, api.RoleReplica)
	}
	if resp.Header.Get(api.HeaderAppliedEpoch) == "" || resp.Header.Get(api.HeaderReplicationLag) == "" {
		t.Fatalf("replica read missing staleness headers: %v", resp.Header)
	}
	var hz api.Health
	if code := getJSON(t, rts.URL+"/v1/healthz", &hz); code != http.StatusOK {
		t.Fatalf("replica healthz: status %d", code)
	}
	if hz.Role != api.RoleReplica || hz.ReplicationLagSeconds == nil {
		t.Fatalf("replica healthz lacks replication fields: %+v", hz)
	}
	var env api.ErrorEnvelope
	if code := postJSON(t, rts.URL+"/v1/sessions/default/ingest", api.IngestRequest{}, &env); code != http.StatusConflict {
		t.Fatalf("replica ingest: status %d, want %d", code, http.StatusConflict)
	}
	if env.Error == nil || env.Error.Code != api.ErrReadOnly {
		t.Fatalf("replica ingest error = %+v, want code %q", env.Error, api.ErrReadOnly)
	}

	// History-mode queries are served replica-locally under ephemeral "h" ids.
	var qi api.QueryInfo
	if code := postJSON(t, rts.URL+"/v1/sessions/default/queries",
		map[string]any{"kind": "location-updates", "mode": "history", "min_change": 0.0}, &qi); code != http.StatusCreated {
		t.Fatalf("replica history query: status %d", code)
	}
	if !strings.HasPrefix(qi.ID, "h") {
		t.Fatalf("replica history query id = %q, want an h-prefixed local id", qi.ID)
	}
	var page api.ResultsPage
	if code := getJSON(t, rts.URL+"/v1/sessions/default/queries/"+qi.ID+"/results?after=-1", &page); code != http.StatusOK {
		t.Fatalf("replica history results: status %d", code)
	}
	if !page.Query.Finished {
		t.Fatalf("history query should finish at registration: %+v", page.Query)
	}

	// Promote: the replica becomes a serving primary and accepts writes.
	var pr api.PromoteResponse
	if code := postJSON(t, rts.URL+"/v1/promote", struct{}{}, &pr); code != http.StatusOK {
		t.Fatalf("promote: status %d", code)
	}
	if pr.Role != api.RolePrimary || pr.Sessions < 1 {
		t.Fatalf("promote response = %+v", pr)
	}
	if got := stateFingerprint(t, rts.URL, "default"); got != want {
		t.Fatalf("promotion changed state:\nwant %s\ngot  %s", want, got)
	}
	if code := postJSON(t, rts.URL+"/v1/sessions/default/ingest",
		ingestBody(readings[:4], locations[:2]), nil); code != http.StatusAccepted {
		t.Fatalf("post-promotion ingest: status %d", code)
	}
	if code := postJSON(t, rts.URL+"/v1/sessions/default/flush", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("post-promotion flush: status %d", code)
	}
	if code := getJSON(t, rts.URL+"/v1/healthz", &hz); code != http.StatusOK || hz.Role != api.RolePrimary {
		t.Fatalf("promoted healthz role = %q (status %d), want %q", hz.Role, code, api.RolePrimary)
	}
}

// TestReplicaLongPollWakesOnRemoval: a results long-poll parked on a replica
// returns as soon as the primary's removal of the query has been applied
// there — a replica accounts an applied record as the primary does, waking
// readers included — instead of sleeping out its wait.
func TestReplicaLongPollWakesOnRemoval(t *testing.T) {
	pReq, _, _ := replRequest(t, 1, 1)
	psv, err := New(Config{DataDir: t.TempDir(), Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("primary New: %v", err)
	}
	openSession(t, psv, pReq)
	pts := httptest.NewServer(psv.Handler())
	defer func() { pts.Close(); psv.Close() }()
	rsv, err := New(Config{DataDir: t.TempDir(), Fsync: wal.SyncAlways, ReplicaOf: pts.Listener.Addr().String()})
	if err != nil {
		t.Fatalf("replica New: %v", err)
	}
	rts := httptest.NewServer(rsv.Handler())
	defer func() { rts.Close(); rsv.Close() }()

	var qi api.QueryInfo
	if code := postJSON(t, pts.URL+sessPath+"/queries", map[string]any{"kind": "location-updates"}, &qi); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	results := rts.URL + sessPath + "/queries/" + qi.ID + "/results?after=-1"
	for deadline := time.Now().Add(30 * time.Second); getJSON(t, results, nil) != http.StatusOK; {
		if time.Now().After(deadline) {
			t.Fatal("the registration never reached the replica")
		}
		time.Sleep(25 * time.Millisecond)
	}

	polled := make(chan int, 1)
	go func() {
		resp, err := http.Get(results + "&wait=8s")
		if err != nil {
			polled <- 0
			return
		}
		resp.Body.Close()
		polled <- resp.StatusCode
	}()
	time.Sleep(200 * time.Millisecond) // let the poll park
	if code := deleteQuery(t, pts.URL, qi.ID); code != http.StatusNoContent {
		t.Fatalf("unregister on the primary: status %d", code)
	}
	select {
	case code := <-polled:
		if code != http.StatusNotFound {
			t.Fatalf("long-poll of the removed query answered %d, want 404", code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("long-poll on the replica still asleep 2s after the primary removed the query")
	}
}

// TestReplicaResumeAfterRestart: a replica whose link to the primary ends —
// the replica restarts on its mirrored directory, or its TCP connection is cut
// — announces its durable cursor and resumes tailing in place. Every WAL
// segment and checkpoint it held is still the same file after the reconnect
// (a fresh bootstrap would have wiped and rewritten them), and it converges
// again once the primary ingests more.
func TestReplicaResumeAfterRestart(t *testing.T) {
	for _, tc := range []struct {
		name    string
		restart bool // restart the replica; otherwise cut its link in-process
	}{{"restart", true}, {"link-cut", false}} {
		t.Run(tc.name, func(t *testing.T) {
			pDir, rDir := t.TempDir(), t.TempDir()
			pReq, readings, locations := replRequest(t, 2, 4)
			psv, err := New(Config{
				DataDir: pDir, CheckpointEvery: 4, Fsync: wal.SyncAlways,
				IngestWait: 5 * time.Second,
			})
			if err != nil {
				t.Fatalf("primary New: %v", err)
			}
			openSession(t, psv, pReq)
			pts := httptest.NewServer(psv.Handler())
			defer func() {
				pts.Close()
				psv.Close()
			}()
			primaryAddr := pts.Listener.Addr().String()

			newReplica := func() (*Server, *httptest.Server) {
				rReq, _, _ := replRequest(t, 1, 2)
				putManifest(t, rDir, rReq)
				rsv, err := New(Config{
					DataDir: rDir, CheckpointEvery: 4, Fsync: wal.SyncAlways,
					ReplicaOf: primaryAddr,
				})
				if err != nil {
					t.Fatalf("replica New: %v", err)
				}
				return rsv, httptest.NewServer(rsv.Handler())
			}

			halfR, halfL := len(readings)/2, len(locations)/2
			if code := postJSON(t, pts.URL+"/v1/sessions/default/ingest", ingestBody(readings[:halfR], locations[:halfL]), nil); code != http.StatusAccepted {
				t.Fatalf("ingest: status %d", code)
			}
			if code := postJSON(t, pts.URL+"/v1/sessions/default/flush", struct{}{}, nil); code != http.StatusOK {
				t.Fatalf("flush: status %d", code)
			}
			rsv, rts := newReplica()
			want := stateFingerprint(t, pts.URL, "default")
			waitReplicaConverged(t, pts.URL, rts.URL, pDir, rDir, want)

			before := holdDurableFiles(t, rDir)
			links := psv.repl.reconnects.Value()
			if tc.restart {
				rts.Close()
				rsv.Close()
				rsv, rts = newReplica()
			} else {
				rsv.follower.mu.Lock()
				conn := rsv.follower.conn
				rsv.follower.mu.Unlock()
				if conn == nil {
					t.Fatal("converged replica has no link to cut")
				}
				conn.Close()
			}
			defer func() {
				rts.Close()
				rsv.Close()
			}()
			// The reconnect has settled once the primary registered the new
			// link and the replica handled a frame shipped on it after the
			// registration: the announcements go first, so a bootstrap would
			// have run by then.
			waitFor(t, "the primary to register the new link", func() bool { return psv.repl.reconnects.Value() > links })
			rsv.repl.lagNanos.Store(0)
			waitFor(t, "a frame shipped on the new link", func() bool { return rsv.repl.lagNanos.Load() != 0 })
			after := holdDurableFiles(t, rDir)
			if len(after) != len(before) {
				t.Fatalf("replica durable files changed across the reconnect: %d before, %d after", len(before), len(after))
			}
			for name, held := range before {
				f, ok := after[name]
				if !ok {
					t.Fatalf("replica %s is gone after the reconnect", name)
				}
				hi, err := held.Stat()
				if err != nil {
					t.Fatal(err)
				}
				fi, err := f.Stat()
				if err != nil {
					t.Fatal(err)
				}
				if !os.SameFile(hi, fi) {
					t.Fatalf("replica %s is not the file it was before the reconnect: the session was re-bootstrapped instead of resumed", name)
				}
			}

			if code := postJSON(t, pts.URL+"/v1/sessions/default/ingest", ingestBody(readings[halfR:], locations[halfL:]), nil); code != http.StatusAccepted {
				t.Fatalf("ingest after reconnect: status %d", code)
			}
			if code := postJSON(t, pts.URL+"/v1/sessions/default/flush", struct{}{}, nil); code != http.StatusOK {
				t.Fatalf("flush after reconnect: status %d", code)
			}
			want = stateFingerprint(t, pts.URL, "default")
			waitReplicaConverged(t, pts.URL, rts.URL, pDir, rDir, want)
			compareReplicaDirs(t, pDir, rDir)
		})
	}
}

// holdDurableFiles opens every WAL segment and checkpoint in the replica's
// session directory, by name. Holding them open keeps a deleted file from
// handing its inode number to its replacement, which os.SameFile would take
// for the original.
func holdDurableFiles(t *testing.T, rDir string) map[string]*os.File {
	t.Helper()
	dir := filepath.Join(rDir, "sessions", "default")
	out := make(map[string]*os.File)
	for _, pat := range durableFilePatterns {
		matches, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			f, err := os.Open(m)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			out[filepath.Base(m)] = f
		}
	}
	if len(out) == 0 {
		t.Fatal("replica holds no durable files")
	}
	return out
}

// waitFor polls cond until it holds, failing the test after 30s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestFollowerStopDuringDial: a stop that lands after the follower's dial
// connected but before the connection was published still ends the link. It
// must not wait on a connection nobody closes, which the primary's heartbeats
// would keep open for as long as the primary is up.
func TestFollowerStopDuringDial(t *testing.T) {
	psv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("primary New: %v", err)
	}
	pts := httptest.NewServer(psv.Handler())
	defer func() {
		pts.Close()
		psv.Close()
	}()
	sv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sv.Close()

	dialed := make(chan struct{})
	f := sv.startFollower(pts.Listener.Addr().String(), func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := new(net.Dialer).DialContext(ctx, network, addr)
		close(dialed)
		// Hold the connection back until the stop has cancelled, and give it
		// time to look for a connection to close and find none.
		<-ctx.Done()
		time.Sleep(50 * time.Millisecond)
		return conn, err
	})
	<-dialed
	stopped := make(chan struct{})
	go func() {
		f.stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("follower stop still blocked 5s after it raced the dial")
	}
}

// TestCloseNowReleasesReplicaFiles: an immediate close of a converged
// replica releases every file it holds in its data directory — the mirrored
// WAL segment included — as a primary's immediate close does.
func TestCloseNowReleasesReplicaFiles(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to list open files in")
	}
	pDir, rDir := t.TempDir(), t.TempDir()
	pReq, readings, locations := replRequest(t, 1, 1)
	psv, err := New(Config{
		DataDir: pDir, CheckpointEvery: 4, Fsync: wal.SyncAlways,
		IngestWait: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("primary New: %v", err)
	}
	openSession(t, psv, pReq)
	pts := httptest.NewServer(psv.Handler())
	defer func() {
		pts.Close()
		psv.Close()
	}()
	if code := postJSON(t, pts.URL+"/v1/sessions/default/ingest", ingestBody(readings, locations), nil); code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", code)
	}
	if code := postJSON(t, pts.URL+"/v1/sessions/default/flush", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}

	rReq, _, _ := replRequest(t, 1, 1)
	putManifest(t, rDir, rReq)
	rsv, err := New(Config{
		DataDir: rDir, CheckpointEvery: 4, Fsync: wal.SyncAlways,
		ReplicaOf: pts.Listener.Addr().String(),
	})
	if err != nil {
		t.Fatalf("replica New: %v", err)
	}
	rts := httptest.NewServer(rsv.Handler())
	waitReplicaConverged(t, pts.URL, rts.URL, pDir, rDir, stateFingerprint(t, pts.URL, "default"))
	rts.Close()
	rsv.CloseNow()

	root, err := filepath.EvalSymlinks(rDir)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, root+string(filepath.Separator)) {
			open = append(open, strings.TrimPrefix(target, root+string(filepath.Separator)))
		}
	}
	if len(open) > 0 {
		t.Fatalf("replica files still open after CloseNow: %v", open)
	}
}

// waitReplicaConverged polls until the replica's fingerprint matches want AND
// its newest checkpoint reached the primary's (the marker is the last record
// shipped for a checkpoint, and it does not change engine state, so state
// equality alone would race the on-disk comparison).
func waitReplicaConverged(t *testing.T, primaryURL, replicaURL, pDir, rDir, want string) {
	t.Helper()
	pDir, rDir = filepath.Join(pDir, "sessions", "default"), filepath.Join(rDir, "sessions", "default")
	deadline := time.Now().Add(60 * time.Second)
	var got string
	for time.Now().Before(deadline) {
		got = stateFingerprint(t, replicaURL, "default")
		if got == want {
			_, pSnap, pOK, _ := checkpoint.Latest(pDir)
			_, rSnap, rOK, _ := checkpoint.Latest(rDir)
			if pOK == rOK && (!pOK || pSnap.Epoch == rSnap.Epoch) {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("replica never converged:\nprimary %s\nreplica %s", want, got)
}

// compareReplicaDirs asserts byte-identity of the newest checkpoint files and
// of every WAL segment present in both directories.
func compareReplicaDirs(t *testing.T, pDir, rDir string) {
	t.Helper()
	pDir, rDir = filepath.Join(pDir, "sessions", "default"), filepath.Join(rDir, "sessions", "default")
	pPath, pSnap, pOK, err := checkpoint.Latest(pDir)
	if err != nil {
		t.Fatalf("primary Latest: %v", err)
	}
	rPath, rSnap, rOK, err := checkpoint.Latest(rDir)
	if err != nil {
		t.Fatalf("replica Latest: %v", err)
	}
	if pOK != rOK {
		t.Fatalf("checkpoint presence differs: primary %v, replica %v", pOK, rOK)
	}
	if pOK {
		if pSnap.Epoch != rSnap.Epoch {
			t.Fatalf("newest checkpoint epochs differ: primary %d, replica %d", pSnap.Epoch, rSnap.Epoch)
		}
		pb, err := os.ReadFile(pPath)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := os.ReadFile(rPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, rb) {
			t.Fatalf("checkpoint files differ at epoch %d (%d vs %d bytes)", pSnap.Epoch, len(pb), len(rb))
		}
	}
	pSegs, err := filepath.Glob(filepath.Join(pDir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, ps := range pSegs {
		rs := filepath.Join(rDir, filepath.Base(ps))
		rb, err := os.ReadFile(rs)
		if os.IsNotExist(err) {
			continue // GC timing differs across nodes; compare what both hold
		}
		if err != nil {
			t.Fatal(err)
		}
		pb, err := os.ReadFile(ps)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, rb) {
			t.Fatalf("WAL segment %s differs (%d vs %d bytes)", filepath.Base(ps), len(pb), len(rb))
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no common WAL segments to compare — the mirror is not mirroring")
	}
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/rfid/api"
)

// Every test in the package runs with illegal lifecycle moves panicking.
func init() { strictLifecycle = true }

// allLives is every phase-and-role state a session can be in.
func allLives() []life {
	var out []life
	for p := phaseStarting; p <= phaseClosed; p++ {
		out = append(out, primaryIn(p), replicaIn(p))
	}
	return out
}

// bareSession is a session with just what transition and admit read.
func bareSession(l life, n *node) *session {
	s := &session{id: "t", log: slog.New(slog.NewTextHandler(io.Discard, nil)), node: n}
	s.life.word.Store(uint32(l))
	return s
}

// moveRefused reports whether the move panicked.
func moveRefused(s *session, from, to life, cause error) (refused bool) {
	defer func() { refused = recover() != nil }()
	s.transition(from, to, cause)
	return false
}

// TestLifecycleTable drives every pair of states through transition, with and
// without the close mark: the moves lifeTable lists land and keep the mark,
// every other move is refused loudly — a panic under test; in production the
// session fails with the reason — and a cause turns a move into a failure.
func TestLifecycleTable(t *testing.T) {
	legal := 0
	for _, from := range allLives() {
		for _, to := range allLives() {
			for _, mark := range []life{0, closingBit} {
				s := bareSession(from|mark, nil)
				_, ok := lifeTable[[2]life{from, to}]
				if refused := moveRefused(s, from, to, nil); refused == ok {
					t.Fatalf("%v -> %v: refused=%v, but lifeTable lists it: %v", from, to, refused, ok)
				}
				want := from | mark
				if ok {
					want = to | mark
					legal++
				}
				if got := s.life.load(); got != want {
					t.Fatalf("%v -> %v: session is %v, want %v", from|mark, to, got, want)
				}
			}
		}
	}
	if legal != 2*len(lifeTable) {
		t.Fatalf("%d legal moves landed, lifeTable lists %d", legal/2, len(lifeTable))
	}
	// A listed move is refused when the session is not where it starts.
	if s := bareSession(primaryIn(phaseServing), nil); !moveRefused(s, primaryIn(phaseEvicted), primaryIn(phaseRecovering), nil) {
		t.Fatal("evicted -> recovering accepted on a serving session")
	}

	// A cause fails the move, recording why and whether startup failed; a
	// failed promotion keeps the replica role.
	boom := errors.New("boom")
	for _, tc := range []struct {
		from, to life
		atStart  bool
	}{
		{primaryIn(phaseStarting), primaryIn(phaseServing), true},
		{replicaIn(phaseStarting), replicaIn(phaseServing), true},
		{primaryIn(phaseRecovering), primaryIn(phaseServing), false},
		{replicaIn(phaseRecovering), replicaIn(phaseServing), false},
		{replicaIn(phaseServing), primaryIn(phaseServing), false},
	} {
		s := bareSession(tc.from, nil)
		s.transition(tc.from, tc.to, boom)
		if got := s.life.load(); got != tc.from.in(phaseFailed) || s.life.cause != boom {
			t.Fatalf("%v -> %v with a cause: session is %v (cause %v), want %v", tc.from, tc.to, got, s.life.cause, tc.from.in(phaseFailed))
		}
		if got := s.life.startErr(); (got != nil) != tc.atStart {
			t.Fatalf("%v failed: startErr %v, want a startup failure: %v", tc.from, got, tc.atStart)
		}
	}

	// Production: the illegal move is logged and fails the session (mark
	// kept); a failed or closed session stays as it is.
	strictLifecycle = false
	defer func() { strictLifecycle = true }()
	s := bareSession(replicaIn(phaseServing)|closingBit, nil)
	s.transition(replicaIn(phaseServing), replicaIn(phaseEvicted), nil)
	if got := s.life.load(); got != replicaIn(phaseFailed)|closingBit || !strings.Contains(s.life.cause.Error(), "illegal lifecycle move") {
		t.Fatalf("illegal move in production: session is %v, cause %v", got, s.life.cause)
	}
	for _, p := range []phase{phaseFailed, phaseClosed} {
		s := bareSession(primaryIn(p), nil)
		s.transition(primaryIn(p), primaryIn(phaseServing), nil)
		if got := s.life.load(); got != primaryIn(p) {
			t.Fatalf("illegal move out of %v: session is %v", p, got)
		}
	}

	// The close CAS: won once, from every phase but closed.
	for _, l := range allLives() {
		var lc lifecycle
		lc.word.Store(uint32(l))
		first, second := lc.markClosing(), lc.markClosing()
		if want := l.phase() != phaseClosed; first != want || second || !lc.load().closing() {
			t.Fatalf("close CAS from %v: first %v, second %v, closing %v", l, first, second, lc.load().closing())
		}
	}
}

// TestAdmitEnvelope checks admit for every (phase, role, close mark, node
// role, node closing, kind) cell against the envelope the handlers answered
// with before admission was one call: reads always pass; a closing server or
// session refuses the rest as unavailable (a stream with a retry hint); a
// node that is not primary refuses writes and streams as read_only.
func TestAdmitEnvelope(t *testing.T) {
	roles := map[int32]string{rolePrimary: "primary", roleReplica: "replica", rolePromoting: "promoting"}
	for _, l := range allLives() {
		for _, mark := range []life{0, closingBit} {
			for role, roleName := range roles {
				for _, nodeClosed := range []bool{false, true} {
					for _, k := range []admitKind{admitRead, admitWrite, admitStream, admitReplicate} {
						n := &node{}
						n.role.Store(role)
						n.closed.Store(nodeClosed)
						err := bareSession(l|mark, n).admit(k)
						var want *api.Error
						closing := nodeClosed || mark != 0 || l.phase() == phaseClosed
						switch {
						case k == admitRead:
						case closing:
							want = &api.Error{Code: api.ErrUnavailable, Message: "session is shutting down", HTTPStatus: http.StatusServiceUnavailable}
							if k == admitStream {
								want.RetryAfterMS = 1000
							}
						case k == admitReplicate:
						case role != rolePrimary:
							want = &api.Error{Code: api.ErrReadOnly, Message: "node is a " + roleName + ": writes must go to the primary", HTTPStatus: http.StatusConflict}
						}
						var got *api.Error
						if err != nil && !errors.As(err, &got) {
							t.Fatalf("admit returned a %T: %v", err, err)
						}
						if (got == nil) != (want == nil) || (got != nil && *got != *want) {
							t.Fatalf("admit(%d) on %v, node %s closed=%v: got %+v, want %+v", k, l|mark, roleName, nodeClosed, got, want)
						}
					}
				}
			}
		}
	}

	// The refusals come out of withSession as the same envelopes: on a closed
	// server reads still answer, everything else is unavailable.
	srv, _, _, _ := newTestServer(t, 64)
	srv.Close()
	for _, tc := range []struct {
		method, path string
		status       int
		retryAfter   string
	}{
		{http.MethodGet, sessPath + "/snapshot", http.StatusOK, ""},
		{http.MethodPost, sessPath + "/ingest", http.StatusServiceUnavailable, ""},
		{http.MethodPost, sessPath + "/flush", http.StatusServiceUnavailable, ""},
		{http.MethodPost, sessPath + "/stream", http.StatusServiceUnavailable, "1"},
		{http.MethodPost, sessPath + "/queries", http.StatusServiceUnavailable, ""},
		{http.MethodDelete, sessPath, http.StatusServiceUnavailable, ""},
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(`{"kind":"location-updates"}`)))
		if rec.Code != tc.status || rec.Header().Get("Retry-After") != tc.retryAfter {
			t.Fatalf("%s %s on a closed server: %d (Retry-After %q), want %d (%q): %s", tc.method, tc.path, rec.Code, rec.Header().Get("Retry-After"), tc.status, tc.retryAfter, rec.Body)
		}
		if tc.status != http.StatusOK && !strings.Contains(rec.Body.String(), "session is shutting down") {
			t.Fatalf("%s %s on a closed server: %s", tc.method, tc.path, rec.Body)
		}
	}
}

// deadAddr is a localhost address nothing listens on: a replica pointed at it
// boots and serves its persisted sessions while its follower link retries.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// churnRequest is createChurnSession's request.
func churnRequest(i int) api.CreateSessionRequest {
	return api.CreateSessionRequest{
		ID: churnSessionID(i), Source: api.SourceSynthetic,
		Engine: &api.EngineConfig{ObjectParticles: 8, ReaderParticles: 4, Seed: int64(i + 1), HistoryEpochs: 8},
	}
}

// serve answers one request through srv's handler.
func serve(srv *Server, method, path string, body any) *httptest.ResponseRecorder {
	data, _ := json.Marshal(body)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(string(data))))
	return rec
}

// expectLife fails the test unless the session is in want (close mark aside).
func expectLife(t *testing.T, s *session, want life, step string) {
	t.Helper()
	if got := s.life.load() &^ closingBit; got != want {
		t.Fatalf("%s: session is %v, want %v", step, got, want)
	}
}

// TestLifecyclePaths drives the real code through the lifecycle's moves:
// startup, evict → hydrate → serve, the evicted fast-path close, close from
// serving, starting and failed, replica startup, re-bootstrap and promotion.
func TestLifecyclePaths(t *testing.T) {
	dir := t.TempDir()
	sv, ts := startDensityServer(t, dir, 2, 0)
	defer func() { ts.Close(); sv.Close() }()
	batch := api.IngestRequest{Readings: []api.Reading{{Time: 0, Tag: "p"}}, Locations: []api.LocationReport{{Time: 0, X: 1, Y: 1, Z: 1}}}
	for i := 0; i < 2; i++ {
		createChurnSession(t, ts.URL, i)
		if code := postJSON(t, ts.URL+"/v1/sessions/"+churnSessionID(i)+"/ingest", batch, nil); code != http.StatusAccepted {
			t.Fatalf("ingest: status %d", code)
		}
	}
	s0, _ := sv.session(churnSessionID(0))
	s1, _ := sv.session(churnSessionID(1))
	expectLife(t, s0, primaryIn(phaseServing), "created")

	// evict → hydrate (first touch) → serve, then the evicted fast-path close.
	forceEvict(t, sv, s0.id)
	if code := getJSON(t, ts.URL+"/v1/sessions/"+s0.id+"/snapshot", nil); code != http.StatusOK {
		t.Fatalf("snapshot of an evicted session: status %d", code)
	}
	expectLife(t, s0, primaryIn(phaseServing), "first touch")
	forceEvict(t, sv, s0.id)
	var before, after map[string]float64
	getJSON(t, ts.URL+"/v1/metrics?format=json", &before)
	if rec := serve(sv, http.MethodDelete, "/v1/sessions/"+s0.id, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete evicted: %d %s", rec.Code, rec.Body)
	}
	getJSON(t, ts.URL+"/v1/metrics?format=json", &after)
	expectLife(t, s0, primaryIn(phaseClosed), "evicted fast-path close")
	if after["rfidserve_hydrations_total"] != before["rfidserve_hydrations_total"] {
		t.Fatal("closing an evicted session hydrated it")
	}
	// Close from serving: the graceful shutdown op.
	if rec := serve(sv, http.MethodDelete, "/v1/sessions/"+s1.id, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete serving: %d %s", rec.Code, rec.Body)
	}
	expectLife(t, s1, primaryIn(phaseClosed), "close from serving")

	// Close from starting: a session whose startup never ran closes without
	// it; a graceful stop still runs the pending startup before its shutdown.
	for _, graceful := range []bool{false, true} {
		req := churnRequest(9)
		runner, err := buildRunner(req, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := buildSession(req.ID, sv.sessionConfig("", nil), sv.deps(), req, phaseStarting)
		s.install(runner)
		s.stop(graceful)
		expectLife(t, s, primaryIn(phaseClosed), "close from starting")
		select {
		case <-s.ready:
			if !graceful {
				t.Fatal("a non-graceful close ran the pending startup")
			}
		default:
			if graceful {
				t.Fatal("a graceful close skipped the pending startup")
			}
		}
	}

	// Close from failed: a session whose startup failed (its checkpoint was
	// written under another seed) reports the failure and still closes.
	fDir := t.TempDir()
	fsv, fts := startDensityServer(t, fDir, 1, 0)
	createChurnSession(t, fts.URL, 3)
	postJSON(t, fts.URL+"/v1/sessions/"+churnSessionID(3)+"/ingest", batch, nil)
	fts.Close()
	fsv.Close()
	foreign := churnRequest(3)
	foreign.Engine.Seed++
	putManifest(t, fDir, foreign)
	fsv, err := New(Config{DataDir: fDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fsv.WaitReady(ctx); err == nil {
		t.Fatal("a foreign checkpoint recovered")
	}
	fs, _ := fsv.session(churnSessionID(3))
	expectLife(t, fs, primaryIn(phaseFailed), "failed startup")
	fsv.Close()
	expectLife(t, fs, primaryIn(phaseClosed), "close from failed")

	// Replica: startup, re-bootstrap (from nothing), promotion.
	rDir := t.TempDir()
	putManifest(t, rDir, churnRequest(4))
	rsv, err := New(Config{DataDir: rDir, ReplicaOf: deadAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer rsv.Close()
	if err := rsv.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	rs, _ := rsv.session(churnSessionID(4))
	expectLife(t, rs, replicaIn(phaseServing), "replica startup")
	oldEng, oldHist := rs.eng.Load(), rs.histReg.Load()
	res, err := rs.call(op{kind: opReplBootstrap, repl: &replOp{seg: 1, off: wal.HeaderLen}}, nil)
	if err != nil || res.err != nil {
		t.Fatalf("re-bootstrap: %v / %v", err, res.err)
	}
	expectLife(t, rs, replicaIn(phaseServing), "re-bootstrap")
	if rs.eng.Load() == oldEng || rs.histReg.Load() == oldHist || rs.histReg.Load() == nil {
		t.Fatal("re-bootstrap kept the old engine or history registry")
	}
	if pr, err := rsv.Promote(); err != nil || pr.Sessions != 1 {
		t.Fatalf("promote: %+v, %v", pr, err)
	}
	expectLife(t, rs, primaryIn(phaseServing), "promotion")
	if rs.histReg.Load() != nil {
		t.Fatal("promotion kept the replica-local history registry")
	}
}

// TestPromoteRetryCompletes: a promotion that could not reach a session (its
// queue stayed full for IngestWait) fails, and a retry on the now-primary node
// promotes the straggler, which then takes writes.
func TestPromoteRetryCompletes(t *testing.T) {
	dir := t.TempDir()
	putManifest(t, dir, churnRequest(1))
	rsv, err := New(Config{DataDir: dir, ReplicaOf: deadAddr(t), QueueSize: 1, IngestWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rsv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rsv.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	s, _ := rsv.session(churnSessionID(1))

	// Hold the pin and fill the one-slot queue behind it.
	s.pinMu.Lock()
	fenced := make(chan error, 1)
	go func() {
		_, err := s.call(op{kind: opFence}, nil)
		fenced <- err
	}()
	for len(s.ops) == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := rsv.Promote(); err == nil {
		t.Fatal("promotion reported success while the session's queue was full")
	}
	s.pinMu.Unlock()
	if err := <-fenced; err != nil {
		t.Fatal(err)
	}

	pr, err := rsv.Promote()
	if err != nil || pr.Role != api.RolePrimary || pr.Sessions != 1 {
		t.Fatalf("retried promote: %+v, %v; want the straggler promoted", pr, err)
	}
	batch := api.IngestRequest{Readings: []api.Reading{{Time: 0, Tag: "p"}}}
	if rec := serve(rsv, http.MethodPost, "/v1/sessions/"+s.id+"/ingest", batch); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest after the retried promotion: %d %s", rec.Code, rec.Body)
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicaHistoryRegistrationWaitsForRecovery: a replica-local
// history-mode registration issued while the session is still replaying its
// log answers only once the replay is done, with the rows the primary
// computes for the same spec — never rows from a half-replayed history.
func TestReplicaHistoryRegistrationWaitsForRecovery(t *testing.T) {
	pDir, rDir := t.TempDir(), t.TempDir()
	req, readings, locations := replRequest(t, 1)
	// No checkpoint: the replica replays the whole log.
	psv, err := New(Config{DataDir: pDir, CheckpointEvery: 1 << 20, Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	openSession(t, psv, req)
	if rec := serve(psv, http.MethodPost, sessPath+"/ingest", ingestBody(readings, locations)); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	if rec := serve(psv, http.MethodPost, sessPath+"/flush", struct{}{}); rec.Code != http.StatusOK {
		t.Fatalf("flush: %d %s", rec.Code, rec.Body)
	}
	spec := map[string]any{"kind": "location-updates", "mode": "history", "min_change": 0.0}
	rows := func(srv *Server) string {
		t.Helper()
		rec := serve(srv, http.MethodPost, sessPath+"/queries", spec)
		var info api.QueryInfo
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &info) != nil {
			t.Fatalf("history registration: %d %s", rec.Code, rec.Body)
		}
		rec = serve(srv, http.MethodGet, sessPath+"/queries/"+info.ID+"/results?after=-1", nil)
		var page api.ResultsPage
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &page) != nil {
			t.Fatalf("history results: %d %s", rec.Code, rec.Body)
		}
		data, _ := json.Marshal(page.Results)
		return string(data)
	}
	want := rows(psv)
	psv.CloseNow()
	copyDir(t, filepath.Join(pDir, "sessions", "default"), filepath.Join(rDir, "sessions", "default"))

	rsv, err := New(Config{DataDir: rDir, ReplicaOf: deadAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer rsv.Close()
	sess, _ := rsv.session("default")
	// Issued the instant New returns, before the replay had a chance to run.
	got := rows(rsv)
	if p := sess.life.load().phase(); p != phaseServing {
		t.Fatalf("the registration answered while the session was %v", p)
	}
	if got != want || want == "null" {
		t.Fatalf("replica history rows differ from the primary's:\n got %s\nwant %s", got, want)
	}
}

package serve

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/wal"
	"repro/rfid"
	"repro/rfid/api"
)

// The eviction contract: an eviction is a spill, not a durability event. The
// files recovery reads (manifest, checkpoints, WAL segments) come out
// byte-identical whether or not a session was ever evicted; a crash while
// evicted recovers from them alone; a spill is restored only when this
// process wrote it and nothing has touched it or the log since; and a
// residency that changed nothing writes nothing.

// durableFiles reads every file under dir except eviction spills, keyed by
// its path relative to dir.
func durableFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == spillName {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// newestSegment is the highest WAL segment in a session directory.
func newestSegment(t *testing.T, dir string) uint64 {
	t.Helper()
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments of %s: %v %v", dir, segs, err)
	}
	return segs[len(segs)-1]
}

// fence runs a fence op through the session's queue: it hydrates an evicted
// session, and its completion orders the worker's writes before the caller's
// reads of pinned-worker-local fields.
func fence(t *testing.T, s *session) {
	t.Helper()
	if res, err := s.call(op{kind: opFence}, nil); err != nil || res.err != nil {
		t.Fatalf("fence %s: %v / %v", s.id, err, res.err)
	}
}

// TestDurableFilesIndependentOfResidency runs the matrix sessions twice, once
// never evicted and once evicted on a fixed schedule (with read-only touches
// in between), and requires every manifest, checkpoint and WAL segment to come
// out byte-identical: what is durable does not depend on residency.
func TestDurableFilesIndependentOfResidency(t *testing.T) {
	const epochs = 18
	run := func(evict bool) (map[string][]byte, map[string]string) {
		dir := filepath.Join(t.TempDir(), "data")
		sv, ts := startDensityServer(t, dir, 2, 0)
		createMatrixSessions(t, ts.URL)
		spilled := 0
		for ep := 0; ep < epochs; ep++ {
			ingestMatrixEpoch(t, ts.URL, ep)
			if !evict {
				continue
			}
			for i, m := range matrixSessions {
				if (ep+i)%3 != 0 {
					continue
				}
				forceEvict(t, sv, m.id)
				if ep%4 == 1 {
					getJSON(t, ts.URL+"/v1/sessions/"+m.id+"/snapshot", nil)
					forceEvict(t, sv, m.id)
				}
				spilled++
			}
		}
		flushMatrix(t, ts.URL)
		outputs := matrixOutputs(t, ts.URL)
		ts.Close()
		sv.Close()
		if evict {
			if spilled == 0 {
				t.Fatal("the eviction schedule evicted nothing")
			}
			for _, m := range matrixSessions {
				if _, err := os.Stat(filepath.Join(dir, "sessions", m.id, spillName)); err != nil {
					t.Fatalf("%s was evicted but holds no spill: %v", m.id, err)
				}
			}
		}
		return durableFiles(t, dir), outputs
	}
	resident, residentOut := run(false)
	evicted, evictedOut := run(true)
	for key, want := range residentOut {
		if evictedOut[key] != want {
			t.Fatalf("%s diverged under eviction:\n got %s\nwant %s", key, evictedOut[key], want)
		}
	}
	names := func(m map[string][]byte) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if a, b := names(resident), names(evicted); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("durable file sets differ:\nnever evicted %v\nevicted       %v", a, b)
	}
	ckpts := 0
	for name, want := range resident {
		if !bytes.Equal(evicted[name], want) {
			t.Fatalf("%s differs under eviction (%d vs %d bytes)", name, len(evicted[name]), len(want))
		}
		if filepath.Ext(name) == ".ckpt" {
			ckpts++
		}
	}
	if ckpts == 0 {
		t.Fatal("no checkpoints compared: the comparison is vacuous")
	}
}

// TestKillWhileEvictedRecovers crashes a server whose sessions are evicted —
// some with a spill that is stale because they were hydrated and written to
// after it — and restarts it on the same directory, eagerly and lazily. The
// spills of the dead process are never read: every session recovers from
// checkpoint + WAL and finishes byte-identical to the never-evicted reference.
func TestKillWhileEvictedRecovers(t *testing.T) {
	const epochs, crashAt = 18, 11
	want := matrixReference(t, epochs)
	for _, maxResident := range []int{0, 2} {
		name := fmt.Sprintf("restart-max-resident-%d", maxResident)
		dir := filepath.Join(t.TempDir(), name)
		sv, ts := startDensityServer(t, dir, 2, 0)
		createMatrixSessions(t, ts.URL)
		for ep := 0; ep < crashAt; ep++ {
			ingestMatrixEpoch(t, ts.URL, ep)
			for _, m := range matrixSessions {
				forceEvict(t, sv, m.id)
			}
		}
		// Two sessions move past their spill: hydrated, written to, resident
		// at the crash. The rest die evicted.
		ingestMatrixEpoch(t, ts.URL, crashAt)
		for _, m := range matrixSessions[2:] {
			forceEvict(t, sv, m.id)
		}
		ts.Close()
		sv.CloseNow()

		sv2, ts2 := startDensityServer(t, dir, 2, maxResident)
		for ep := crashAt + 1; ep < epochs; ep++ {
			ingestMatrixEpoch(t, ts2.URL, ep)
		}
		flushMatrix(t, ts2.URL)
		got := matrixOutputs(t, ts2.URL)
		for key, wantBody := range want {
			if got[key] != wantBody {
				t.Fatalf("%s: %s diverged after a crash while evicted:\n got %s\nwant %s", name, key, got[key], wantBody)
			}
		}
		ts2.Close()
		sv2.Close()
	}
}

// TestStaleSpillFallsBackToRecovery damages one session's spill (or its WAL
// segment) per way a spill can stop being trustworthy while the session is
// evicted. Each hydration must refuse the spill, recover from checkpoint +
// WAL into a new segment, and finish byte-identical to the reference; an
// undamaged session must restore its spill and resume the same segment.
func TestStaleSpillFallsBackToRecovery(t *testing.T) {
	const epochs, damageAt = 18, 8
	want := matrixReference(t, epochs)
	damages := []struct {
		name   string
		damage func(dir string, at spillToken) error
	}{
		{"truncated", func(dir string, _ spillToken) error {
			path := filepath.Join(dir, spillName)
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, fi.Size()/2)
		}},
		{"wrong fingerprint", func(dir string, _ spillToken) error {
			path := filepath.Join(dir, spillName)
			snap, err := checkpoint.Load(path)
			if err != nil {
				return err
			}
			snap.Fingerprint++
			return os.WriteFile(path, checkpoint.Encode(snap), 0o644)
		}},
		{"segment grown", func(dir string, at spillToken) error {
			f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", at.seg)), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return err
			}
			_, err = f.Write([]byte{1, 2, 3})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}},
		{"missing", func(dir string, _ spillToken) error {
			return os.Remove(filepath.Join(dir, spillName))
		}},
	}
	sv, ts := startDensityServer(t, t.TempDir(), 2, 0)
	defer func() { ts.Close(); sv.Close() }()
	createMatrixSessions(t, ts.URL)
	for ep := 0; ep < epochs; ep++ {
		ingestMatrixEpoch(t, ts.URL, ep)
		if ep != damageAt {
			continue
		}
		for i, m := range matrixSessions {
			s, _ := sv.session(m.id)
			forceEvict(t, sv, m.id)
			at := s.spill
			if at == (spillToken{}) {
				t.Fatalf("%s: eviction left no spill token", m.id)
			}
			damaged := i < len(damages)
			if damaged {
				if err := damages[i].damage(s.cfg.DataDir, at); err != nil {
					t.Fatalf("%s: damage %q: %v", m.id, damages[i].name, err)
				}
			}
			fence(t, s)
			seg := newestSegment(t, s.cfg.DataDir)
			switch {
			case damaged && (s.spill != spillToken{} || seg <= at.seg):
				t.Fatalf("%s: %s spill was trusted (token %+v, newest segment %d, evicted in %d)",
					m.id, damages[i].name, s.spill, seg, at.seg)
			case !damaged && (s.spill != at || seg != at.seg):
				t.Fatalf("%s: intact spill not restored (token %+v, want %+v; newest segment %d)", m.id, s.spill, at, seg)
			}
		}
	}
	flushMatrix(t, ts.URL)
	got := matrixOutputs(t, ts.URL)
	for key, wantBody := range want {
		if got[key] != wantBody {
			t.Fatalf("%s diverged after a refused spill:\n got %s\nwant %s", key, got[key], wantBody)
		}
	}
}

// TestUnchangedResidencyWritesNoSpill: a session hydrated from its spill that
// appends nothing before its next eviction (read-only touches) keeps that
// spill — not a byte is written — and outputs stay byte-identical.
func TestUnchangedResidencyWritesNoSpill(t *testing.T) {
	const epochs = 18
	want := matrixReference(t, epochs)
	sv, ts := startDensityServer(t, t.TempDir(), 2, 0)
	defer func() { ts.Close(); sv.Close() }()
	createMatrixSessions(t, ts.URL)
	stamp := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	for ep := 0; ep < epochs; ep++ {
		ingestMatrixEpoch(t, ts.URL, ep)
		if ep%6 != 3 {
			continue
		}
		for _, m := range matrixSessions {
			s, _ := sv.session(m.id)
			forceEvict(t, sv, m.id)
			at := s.spill
			path := filepath.Join(s.cfg.DataDir, spillName)
			// Any write would move the modification time off this stamp.
			if err := os.Chtimes(path, stamp, stamp); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			base := ts.URL + "/v1/sessions/" + m.id
			hydrations := sv.res.hydrations.Value()
			for k := 0; k < 3; k++ {
				getJSON(t, base+"/snapshot", nil)
				getRaw(t, base+"/queries/q1/results?after=-1")
				getRaw(t, base+"/snapshot?epoch="+fmt.Sprint(ep))
				forceEvict(t, sv, m.id)
			}
			if n := sv.res.hydrations.Value() - hydrations; n != 3 {
				t.Fatalf("%s: %d hydrations for 3 read-only touches", m.id, n)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			after, _ := os.ReadFile(path)
			if !fi.ModTime().Equal(stamp) || !bytes.Equal(after, before) || s.spill != at {
				t.Fatalf("%s: read-only residencies rewrote the spill (mtime %v, %d -> %d bytes, token %+v -> %+v)",
					m.id, fi.ModTime(), len(before), len(after), at, s.spill)
			}
		}
	}
	flushMatrix(t, ts.URL)
	got := matrixOutputs(t, ts.URL)
	for key, wantBody := range want {
		if got[key] != wantBody {
			t.Fatalf("%s diverged after read-only residencies:\n got %s\nwant %s", key, got[key], wantBody)
		}
	}
}

// TestWorldBuildIsLinear pins the world build at the create-request caps:
// 100 000 shelf tags and 10 000 shelves through worldFromRequest in well under
// a second, which no insert that re-sorts every tag allows, with the tag order
// and the fingerprint input exactly the per-entry ones.
func TestWorldBuildIsLinear(t *testing.T) {
	req := api.CreateSessionRequest{Source: api.SourceWorld, World: &api.World{}}
	for i := 0; i < maxShelves; i++ {
		x := float64(i % 100)
		y := float64(i / 100)
		req.World.Shelves = append(req.World.Shelves, api.Shelf{
			ID: fmt.Sprintf("shelf-%05d", i), Min: api.Vec3{X: x, Y: y}, Max: api.Vec3{X: x + 0.5, Y: y + 0.5, Z: 1},
		})
	}
	for i := 0; i < maxShelfTags; i++ {
		// Scrambled insertion order, so a sort is really needed.
		k := (i * 7919) % maxShelfTags
		req.World.ShelfTags = append(req.World.ShelfTags, api.ShelfTag{
			Tag: fmt.Sprintf("st-%06d", k), Loc: api.Vec3{X: float64(k % 100), Y: float64(k%1000) / 10, Z: 0.5},
		})
	}
	limit := time.Second
	if raceEnabled {
		limit = 30 * time.Second
	}
	start := time.Now()
	world, err := worldFromRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	ids := world.ShelfTagIDs()
	fp := world.FingerprintInput()
	if took := time.Since(start); took > limit {
		t.Fatalf("building a %d-tag, %d-shelf world took %v (limit %v)", maxShelfTags, maxShelves, took, limit)
	}

	want := make([]rfid.TagID, 0, len(world.ShelfTags))
	for id := range world.ShelfTags {
		want = append(want, id)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(ids) != maxShelfTags || fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("ShelfTagIDs: %d ids, not the sorted tag set", len(ids))
	}
	legacy := fmt.Appendf(nil, "shelves=%d|", len(world.Shelves))
	for _, s := range world.Shelves {
		legacy = fmt.Appendf(legacy, "shelf=%s:%v|", s.ID, s.Region)
	}
	for _, id := range want {
		legacy = fmt.Appendf(legacy, "tag=%s:%v|", id, world.ShelfTags[id])
	}
	if !bytes.Equal(fp, legacy) {
		t.Fatal("the world's fingerprint input is not the per-entry formatting the engine fingerprint used")
	}
}

// BenchmarkEvictHydrate is the per-layer row of a resident-set miss, on one
// session shaped like the density-churn workload's: 25 object particles, one
// engine worker, 20 tracked objects, 16 preloaded epochs of 8 readings. Every
// iteration evicts the session, hydrates it with a fence, then re-sends one
// already-processed epoch: logged, so every eviction has a change to spill
// (as on that workload, where every miss is an ingest), but dropped as late,
// so the state being moved is the same for any b.N. Reports µs per eviction
// and per hydration.
func BenchmarkEvictHydrate(b *testing.B) {
	const preload = 16
	srv, err := New(Config{DataDir: b.TempDir(), Fsync: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	req := api.CreateSessionRequest{
		ID: "bench", Source: api.SourceWorld,
		World: &api.World{
			Shelves: []api.Shelf{{ID: "row", Min: api.Vec3{X: 0}, Max: api.Vec3{X: 0.5, Y: 10, Z: 0.5}}},
		},
		Engine: &api.EngineConfig{ObjectParticles: 25, Seed: 1, Workers: 1},
	}
	for i := 0; i < 4; i++ {
		req.World.ShelfTags = append(req.World.ShelfTags, api.ShelfTag{Tag: fmt.Sprintf("shelf-%d", i), Loc: api.Vec3{X: 0.25, Y: float64(i) * 2, Z: 0.25}})
	}
	if _, err := srv.addSession(req, false); err != nil {
		b.Fatal(err)
	}
	s, _ := srv.session("bench")
	ingest := func(epoch int) {
		rec := wal.Record{Type: wal.RecBatch}
		for k := 0; k < 8; k++ {
			tag := rfid.TagID(fmt.Sprintf("obj-%02d", (epoch+k)%20))
			rec.Readings = append(rec.Readings, rfid.Reading{Time: epoch, Tag: tag})
		}
		rec.Locations = []rfid.LocationReport{{Time: epoch, Pos: rfid.Vec3{X: 1, Y: 0.1 * float64(epoch), Z: 0.25}}}
		if res, err := s.call(op{kind: opMutate, rec: rec}, nil); err != nil || res.err != nil {
			b.Fatalf("ingest: %v / %v", err, res.err)
		}
	}
	for epoch := 0; epoch < preload; epoch++ {
		ingest(epoch)
	}
	var evict, hydrate time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if res, err := s.call(op{kind: opEvict}, nil); err != nil || res.err != nil {
			b.Fatalf("evict: %v / %v", err, res.err)
		}
		t1 := time.Now()
		if res, err := s.call(op{kind: opFence}, nil); err != nil || res.err != nil {
			b.Fatalf("hydrate: %v / %v", err, res.err)
		}
		t2 := time.Now()
		evict += t1.Sub(t0)
		hydrate += t2.Sub(t1)
		ingest(i % preload)
	}
	b.ReportMetric(float64(evict.Microseconds())/float64(b.N), "evict-us/op")
	b.ReportMetric(float64(hydrate.Microseconds())/float64(b.N), "hydrate-us/op")
}

package factored

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sensor"
	"repro/internal/stream"
)

// testWorld returns a single-shelf world along the y axis with one shelf tag.
func testWorld() *model.World {
	w := model.NewWorld()
	w.AddShelf(model.Shelf{
		ID:     "shelf",
		Region: geom.NewBBox(geom.V(0, 0, 0), geom.V(0.5, 20, 0)),
	})
	w.AddShelfTag("shelf-000", geom.V(0, 5, 0))
	return w
}

func testParams() model.Params {
	p := model.DefaultParams()
	p.Sensor = sensor.Model{A0: 4.0, A1: -0.8, A2: -0.5, B1: -1.0, B2: -2.0, MaxRange: 3.5}
	p.Motion = model.MotionModel{Velocity: geom.V(0, 0.1, 0), Noise: geom.V(0.02, 0.02, 0.001), PhiNoise: 0.005}
	p.Sensing = model.LocationSensingModel{Noise: geom.V(0.02, 0.02, 0.001)}
	return p
}

func newTestFilter(objParticles int) *Filter {
	return New(Config{
		NumReaderParticles: 40,
		NumObjectParticles: objParticles,
		Params:             testParams(),
		World:              testWorld(),
		UseMotionModel:     true,
		Seed:               3,
	})
}

// scanEpochs simulates a reader at x=-1.5 sweeping along y, reading the
// object at objLoc with the cone profile, and returns the epochs.
func scanEpochs(objLoc geom.Vec3, id stream.TagID, n int) []*stream.Epoch {
	profile := sensor.DefaultConeProfile()
	var epochs []*stream.Epoch
	for t := 0; t < n; t++ {
		ep := stream.NewEpoch(t)
		pose := geom.Pose{Pos: geom.V(-1.5, float64(t)*0.1, 0), Phi: 0}
		ep.HasPose = true
		ep.ReportedPose = pose
		if p := profile.DetectProb(pose, objLoc); p >= 0.99 {
			ep.Observed[id] = true
		}
		if p := profile.DetectProb(pose, geom.V(0, 5, 0)); p >= 0.99 {
			ep.Observed["shelf-000"] = true
		}
		epochs = append(epochs, ep)
	}
	return epochs
}

func TestFilterConvergesToObjectLocation(t *testing.T) {
	f := newTestFilter(400)
	objLoc := geom.V(0, 5.5, 0)
	for _, ep := range scanEpochs(objLoc, "obj", 110) {
		f.Step(ep, nil)
	}
	est, variance, ok := f.Estimate("obj")
	if !ok {
		t.Fatal("object not tracked")
	}
	if d := est.DistXY(objLoc); d > 0.6 {
		t.Errorf("estimate %v is %v ft from the true location %v", est, d, objLoc)
	}
	if variance.X < 0 || variance.Y < 0 {
		t.Error("negative variance")
	}
	// The reader estimate should track the (noise-free) reported trajectory.
	re := f.ReaderEstimate()
	if math.Abs(re.Pos.Y-10.9) > 0.5 {
		t.Errorf("reader estimate %v, want y ~ 10.9", re.Pos)
	}
}

func TestFilterUnknownObject(t *testing.T) {
	f := newTestFilter(100)
	if _, _, ok := f.Estimate("nope"); ok {
		t.Error("estimate for unknown object should fail")
	}
	if f.NumTracked() != 0 || len(f.TrackedObjects()) != 0 {
		t.Error("fresh filter should track nothing")
	}
	if f.Belief("nope") != nil {
		t.Error("belief for unknown object should be nil")
	}
}

func TestFilterTracksOnlyObservedObjects(t *testing.T) {
	f := newTestFilter(100)
	epochs := scanEpochs(geom.V(0, 5.5, 0), "obj", 60)
	for _, ep := range epochs {
		f.Step(ep, nil)
	}
	tracked := f.TrackedObjects()
	if len(tracked) != 1 || tracked[0] != "obj" {
		t.Errorf("tracked = %v", tracked)
	}
	// Shelf tags are never tracked as objects.
	for _, id := range tracked {
		if id == "shelf-000" {
			t.Error("shelf tag tracked as an object")
		}
	}
}

func TestFilterActiveSetRestrictsProcessing(t *testing.T) {
	f := newTestFilter(100)
	// Two objects at opposite ends of the shelf.
	profile := sensor.DefaultConeProfile()
	locA := geom.V(0, 2, 0)
	locB := geom.V(0, 15, 0)
	for tm := 0; tm < 180; tm++ {
		ep := stream.NewEpoch(tm)
		pose := geom.Pose{Pos: geom.V(-1.5, float64(tm)*0.1, 0), Phi: 0}
		ep.HasPose = true
		ep.ReportedPose = pose
		if p := profile.DetectProb(pose, locA); p >= 0.99 {
			ep.Observed["a"] = true
		}
		if p := profile.DetectProb(pose, locB); p >= 0.99 {
			ep.Observed["b"] = true
		}
		// Only the observed objects are passed as active (mimicking the
		// engine's Case-1 selection without Case 2).
		var active []stream.TagID
		for _, id := range ep.ObservedList() {
			active = append(active, id)
		}
		f.Step(ep, active)
	}
	estA, _, okA := f.Estimate("a")
	estB, _, okB := f.Estimate("b")
	if !okA || !okB {
		t.Fatal("objects not tracked")
	}
	if estA.DistXY(locA) > 1.0 {
		t.Errorf("object a estimate %v too far from %v", estA, locA)
	}
	if estB.DistXY(locB) > 1.0 {
		t.Errorf("object b estimate %v too far from %v", estB, locB)
	}
}

func TestFilterWithoutMotionModelUsesReportedPose(t *testing.T) {
	cfg := Config{
		NumReaderParticles: 20,
		NumObjectParticles: 50,
		Params:             testParams(),
		World:              testWorld(),
		UseMotionModel:     false,
		Seed:               5,
	}
	f := New(cfg)
	ep := stream.NewEpoch(0)
	ep.HasPose = true
	ep.ReportedPose = geom.P(-1.5, 3, 0, 0)
	f.Step(ep, nil)
	re := f.ReaderEstimate()
	if re.Pos.Dist(ep.ReportedPose.Pos) > 1e-9 {
		t.Errorf("reader estimate %v should equal the reported pose %v", re.Pos, ep.ReportedPose.Pos)
	}
}

func TestFilterMissingPoseEpochs(t *testing.T) {
	f := newTestFilter(100)
	objLoc := geom.V(0, 5.5, 0)
	epochs := scanEpochs(objLoc, "obj", 110)
	// Drop every third location report; the filter must keep working.
	for i, ep := range epochs {
		if i%3 == 2 {
			ep.HasPose = false
		}
		f.Step(ep, nil)
	}
	est, _, ok := f.Estimate("obj")
	if !ok {
		t.Fatal("object lost")
	}
	if est.DistXY(objLoc) > 1.0 {
		t.Errorf("estimate %v too far from %v with missing poses", est, objLoc)
	}
}

func TestCompressAndDecompress(t *testing.T) {
	f := newTestFilter(300)
	objLoc := geom.V(0, 5.5, 0)
	epochs := scanEpochs(objLoc, "obj", 110)
	for _, ep := range epochs {
		f.Step(ep, nil)
	}
	before, _, _ := f.Estimate("obj")
	if got, want := f.ParticleCount(), 40+f.Belief("obj").NumParticles(); got != want {
		t.Errorf("ParticleCount = %d, want %d (readers + the one belief)", got, want)
	}

	kl, ok := f.CompressionCandidateKL("obj")
	if !ok || kl < 0 {
		t.Fatalf("candidate KL = %v, %v", kl, ok)
	}
	if !f.CompressObject("obj", kl) {
		t.Fatal("compression failed")
	}
	b := f.Belief("obj")
	if !b.IsCompressed() || b.NumParticles() != 0 || f.ParticleCount() != 40 {
		t.Error("belief not in compressed form")
	}
	// The belief records the caller's measurement; compression itself
	// measures nothing.
	if b.CompressionKL != kl {
		t.Errorf("CompressionKL = %v, want the caller's %v", b.CompressionKL, kl)
	}
	// The estimate survives compression.
	after, _, ok := f.Estimate("obj")
	if !ok || after.Dist(before) > 0.3 {
		t.Errorf("estimate moved during compression: %v -> %v", before, after)
	}
	// Compressing twice is a no-op.
	if f.CompressObject("obj", 0) {
		t.Error("second compression should report false")
	}
	if _, ok := f.CompressionCandidateKL("obj"); ok {
		t.Error("candidate KL for a compressed object should report false")
	}

	// A new reading decompresses the belief and keeps the estimate close.
	ep := stream.NewEpoch(200)
	ep.HasPose = true
	ep.ReportedPose = geom.P(-1.5, 5.5, 0, 0)
	ep.Observed["obj"] = true
	f.Step(ep, nil)
	b = f.Belief("obj")
	if b.IsCompressed() {
		t.Error("belief still compressed after a new reading")
	}
	if b.NumParticles() == 0 || b.NumParticles() > f.Config().NumDecompressParticles {
		t.Errorf("decompressed particle count = %d", b.NumParticles())
	}
	est, _, _ := f.Estimate("obj")
	if est.DistXY(objLoc) > 1.0 {
		t.Errorf("estimate after decompression %v too far from %v", est, objLoc)
	}
}

func TestCompressionCandidateKLDoesNotCompress(t *testing.T) {
	f := newTestFilter(200)
	for _, ep := range scanEpochs(geom.V(0, 5.5, 0), "obj", 80) {
		f.Step(ep, nil)
	}
	if _, ok := f.CompressionCandidateKL("obj"); !ok {
		t.Fatal("candidate KL unavailable")
	}
	if f.Belief("obj").IsCompressed() {
		t.Error("CandidateKL must not compress the belief")
	}
	if _, ok := f.CompressionCandidateKL("unknown"); ok {
		t.Error("candidate KL for unknown object should fail")
	}
	if f.CompressObject("unknown", 0) {
		t.Error("compressing an unknown object should fail")
	}
}

func TestHasParticleIn(t *testing.T) {
	f := newTestFilter(200)
	for _, ep := range scanEpochs(geom.V(0, 5.5, 0), "obj", 80) {
		f.Step(ep, nil)
	}
	b := f.Belief("obj")
	near := geom.BBoxAround(geom.V(0, 5.5, 0), 2)
	far := geom.BBoxAround(geom.V(0, 50, 0), 2)
	if !b.HasParticleIn(near) {
		t.Error("expected particles near the true location")
	}
	if b.HasParticleIn(far) {
		t.Error("unexpected particles far from the true location")
	}
	// Also valid on a compressed belief (uses the Gaussian mean).
	f.CompressObject("obj", 0)
	if !f.Belief("obj").HasParticleIn(near) || f.Belief("obj").HasParticleIn(far) {
		t.Error("HasParticleIn wrong for compressed belief")
	}
}

func TestDefaultsApplied(t *testing.T) {
	f := New(Config{Params: testParams(), World: testWorld()})
	cfg := f.Config()
	if cfg.NumReaderParticles <= 0 || cfg.NumObjectParticles <= 0 || cfg.NumDecompressParticles <= 0 {
		t.Error("particle-count defaults missing")
	}
	if cfg.InitConeHalfAngle <= 0 || cfg.InitConeHalfAngle > math.Pi/2+1e-9 {
		t.Errorf("init cone half angle = %v", cfg.InitConeHalfAngle)
	}
	if cfg.InitConeRange <= cfg.Params.Sensor.MaxRange {
		t.Error("init cone range should overestimate the sensor range")
	}
	if cfg.Sensor == nil {
		t.Error("sensor default missing")
	}
}

// refBeginEpoch is the step-list definition BeginEpoch must reproduce, written
// the straightforward way: mark everything to process in a set, keep the
// tracked ids that are marked (first-seen order), and give every remaining
// marked id that was actually read a fresh belief, in sorted tag order.
func refBeginEpoch(order []stream.TagID, ep *stream.Epoch, active []stream.TagID, w *model.World) (ids, fresh []stream.TagID) {
	process := map[stream.TagID]bool{}
	if active == nil {
		for _, id := range order {
			process[id] = true
		}
	}
	for _, id := range active {
		if !w.IsShelfTag(id) {
			process[id] = true
		}
	}
	for id := range ep.Observed {
		if !w.IsShelfTag(id) {
			process[id] = true
		}
	}
	for _, id := range order {
		if process[id] {
			ids = append(ids, id)
			delete(process, id)
		}
	}
	for id := range process {
		if ep.Contains(id) {
			fresh = append(fresh, id)
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
	return ids, fresh
}

// TestBeginEpochMatchesReference drives BeginEpoch with seeded random active
// sets — tracked and unknown ids, shelf tags, duplicates, ids present only in
// the epoch's readings, and no active set at all — and checks the returned
// step list and the beliefs it created against refBeginEpoch.
func TestBeginEpochMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		src := rng.New(seed)
		f := newTestFilter(20)
		tag := func(i int) stream.TagID { return stream.TagID(fmt.Sprintf("obj-%02d", i)) }
		for epoch := 0; epoch < 60; epoch++ {
			ep := stream.NewEpoch(epoch)
			ep.HasPose = true
			ep.ReportedPose = geom.P(-1.5, float64(epoch)*0.1, 0, 0)
			// Ids are drawn from a pool that grows over the run and in
			// no tag order, so first-seen order differs from sorted order
			// and every epoch mixes tracked ids with never-seen ones.
			pool := 8 + epoch
			for n := src.Intn(6); n > 0; n-- {
				ep.Observed[tag((src.Intn(pool)*37)%90)] = true
			}
			if src.Intn(3) == 0 {
				ep.Observed["shelf-000"] = true
			}
			var active []stream.TagID
			if src.Intn(5) > 0 {
				active = []stream.TagID{} // non-nil even when empty
				for n := src.Intn(12); n > 0; n-- {
					active = append(active, tag((src.Intn(pool)*37)%90))
				}
				if len(active) > 0 && src.Intn(2) == 0 {
					active = append(active, active[0], "shelf-000", "never-read")
				}
			}

			before := f.TrackedObjects()
			wantIDs, wantFresh := refBeginEpoch(before, ep, active, f.cfg.World)
			ids := append([]stream.TagID(nil), f.BeginEpoch(ep, active)...)
			if !slices.Equal(ids, wantIDs) {
				t.Fatalf("seed %d epoch %d (active %v): step list %v, want %v", seed, epoch, active, ids, wantIDs)
			}
			if fresh := f.TrackedObjects()[len(before):]; !slices.Equal(fresh, wantFresh) {
				t.Fatalf("seed %d epoch %d: fresh beliefs %v, want %v", seed, epoch, fresh, wantFresh)
			}
			for i, b := range f.beliefs {
				if b.seq != i || f.objects[b.ID] != b {
					t.Fatalf("seed %d epoch %d: belief %q at %d has seq %d", seed, epoch, b.ID, i, b.seq)
				}
			}
			f.StepObjects(ep, ids)
			f.EndEpoch()
		}
		if f.NumTracked() < 30 {
			t.Fatalf("seed %d: only %d objects tracked; the run is too small to mean anything", seed, f.NumTracked())
		}
	}
}

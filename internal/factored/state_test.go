package factored

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/stream"
)

// stateTestFilter builds a filter over a two-shelf world.
func stateTestFilter(seed int64) *Filter {
	world := model.NewWorld()
	world.AddShelf(model.Shelf{ID: "s", Region: geom.NewBBox(geom.Vec3{}, geom.Vec3{X: 2, Y: 10, Z: 2})})
	world.AddShelfTag("shelf-0", geom.Vec3{X: 0.5, Y: 1, Z: 1})
	return New(Config{
		NumReaderParticles: 20,
		NumObjectParticles: 60,
		Params:             model.DefaultParams(),
		World:              world,
		UseMotionModel:     true,
		Seed:               seed,
	})
}

// stepEpochs drives the filter over deterministic synthetic epochs.
func stepEpochs(f *Filter, from, to int) {
	for t := from; t < to; t++ {
		ep := stream.NewEpoch(t)
		ep.HasPose = true
		ep.ReportedPose = geom.Pose{Pos: geom.Vec3{X: 1.5, Y: 0.2 * float64(t), Z: 1}}
		ep.Observed["obj-a"] = true
		if t%2 == 0 {
			ep.Observed["obj-b"] = true
		}
		if t%3 == 0 {
			ep.Observed["shelf-0"] = true
		}
		f.Step(ep, nil)
	}
}

// TestFilterStateRoundTrip pins the filter-level recovery property: a
// restored filter continues bit-identically, including compressed beliefs and
// random-stream positions.
func TestFilterStateRoundTrip(t *testing.T) {
	ref := stateTestFilter(3)
	stepEpochs(ref, 0, 30)

	a := stateTestFilter(3)
	stepEpochs(a, 0, 12)
	// Compress one belief so the Gaussian branch of the codec is exercised.
	if !a.CompressObject("obj-b", 0.25) {
		t.Fatal("compress failed")
	}
	refB := stateTestFilter(3)
	stepEpochs(refB, 0, 12)
	if !refB.CompressObject("obj-b", 0.25) {
		t.Fatal("compress failed")
	}
	stepEpochs(refB, 12, 30)

	enc := checkpoint.NewEncoder()
	a.SaveState(enc)
	b := stateTestFilter(3)
	if err := b.RestoreState(checkpoint.NewDecoder(enc.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	stepEpochs(b, 12, 30)

	for _, id := range refB.TrackedObjects() {
		wantLoc, wantVar, wantOK := refB.Estimate(id)
		gotLoc, gotVar, gotOK := b.Estimate(id)
		if wantOK != gotOK || wantLoc != gotLoc || wantVar != gotVar {
			t.Fatalf("estimate for %s diverged after restore: %v/%v vs %v/%v", id, gotLoc, gotVar, wantLoc, wantVar)
		}
	}
	if want, got := refB.ReaderEstimate(), b.ReaderEstimate(); want != got {
		t.Fatalf("reader estimate diverged: %v vs %v", got, want)
	}
	if want, got := refB.ParticleCount(), b.ParticleCount(); want != got {
		t.Fatalf("particle count diverged: %d vs %d", got, want)
	}
}

// TestFilterRestoreRejectsCorrupt pins error-not-panic on malformed payloads
// and on structural inconsistencies.
func TestFilterRestoreRejectsCorrupt(t *testing.T) {
	a := stateTestFilter(5)
	stepEpochs(a, 0, 8)
	enc := checkpoint.NewEncoder()
	a.SaveState(enc)
	payload := enc.Bytes()

	for _, cut := range []int{0, 1, len(payload) / 3, len(payload) - 2} {
		b := stateTestFilter(5)
		if err := b.RestoreState(checkpoint.NewDecoder(payload[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// A wrong leading section marker must fail immediately.
	bad := checkpoint.NewEncoder()
	bad.Section("not.a.filter")
	if err := stateTestFilter(5).RestoreState(checkpoint.NewDecoder(bad.Bytes())); err == nil {
		t.Fatal("wrong section marker accepted")
	}
}

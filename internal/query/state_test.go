package query

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/stream"
)

// fakeHistory is a canned HistorySource for registry tests.
type fakeHistory struct {
	oldest, newest int
	events         map[int][]stream.Event
}

func (h *fakeHistory) HistoryBounds() (int, int, bool) {
	return h.oldest, h.newest, h.newest >= h.oldest && len(h.events) > 0
}

func (h *fakeHistory) HistoryEvents(epoch int) ([]stream.Event, bool) {
	evs, ok := h.events[epoch]
	return evs, ok
}

func histEvents() *fakeHistory {
	h := &fakeHistory{oldest: 10, newest: 12, events: map[int][]stream.Event{}}
	for t := 10; t <= 12; t++ {
		h.events[t] = []stream.Event{
			{Time: t, Tag: "obj-1", Loc: geom.Vec3{X: float64(t), Y: 1}},
			{Time: t, Tag: "obj-2", Loc: geom.Vec3{X: float64(t), Y: 2}},
		}
	}
	return h
}

func TestHistoryModeQuery(t *testing.T) {
	r := NewRegistry(0)
	// Without a source, history registrations are rejected.
	if _, err := r.Register(Spec{Kind: KindLocationUpdates, Mode: ModeHistory}); err == nil {
		t.Fatal("history query accepted without a history source")
	}
	r.SetHistorySource(histEvents())

	info, err := r.Register(Spec{Kind: KindLocationUpdates, Mode: ModeHistory, FromEpoch: 10, ToEpoch: 11})
	if err != nil {
		t.Fatalf("register history query: %v", err)
	}
	if !info.Finished {
		t.Fatal("history query not marked finished at registration")
	}
	results, _, err := r.Results(info.ID, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two objects, each emitting its first update at epoch 10 and a changed
	// location at epoch 11.
	if len(results) != 4 {
		t.Fatalf("history query produced %d rows, want 4: %+v", len(results), results)
	}
	// Feeding the live stream must NOT advance a finished query.
	r.Feed([]stream.Event{{Time: 99, Tag: "obj-1", Loc: geom.Vec3{X: 42}}})
	after, _, _ := r.Results(info.ID, -1, 0)
	if len(after) != len(results) {
		t.Fatal("finished history query received live events")
	}

	// ToEpoch zero means "through the newest sealed epoch".
	info2, err := r.Register(Spec{Kind: KindWindowedAggregate, Mode: ModeHistory, FromEpoch: 0, ToEpoch: 0, WindowEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, _ := r.Results(info2.ID, -1, 0)
	if len(rows) != 3 { // one count row per epoch 10..12
		t.Fatalf("aggregate history produced %d rows, want 3: %+v", len(rows), rows)
	}

	// A range entirely outside the retained window errors.
	if _, err := r.Register(Spec{Kind: KindLocationUpdates, Mode: ModeHistory, FromEpoch: 50, ToEpoch: 60}); err == nil {
		t.Fatal("out-of-window history range accepted")
	}
}

func TestSpecModeValidation(t *testing.T) {
	if err := (Spec{Kind: KindFireCode, Mode: "time-machine"}).Validate(); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if err := (Spec{Kind: KindFireCode, Mode: ModeHistory, FromEpoch: 9, ToEpoch: 3}).Validate(); err == nil {
		t.Fatal("inverted history range accepted")
	}
	if err := (Spec{Kind: KindFireCode, Mode: ModeContinuous}).Validate(); err != nil {
		t.Fatalf("continuous mode rejected: %v", err)
	}
}

// feedRegistry pushes a deterministic event stream through a registry.
func feedRegistry(r *Registry, from, to int) {
	for t := from; t < to; t++ {
		r.Feed([]stream.Event{
			{Time: t, Tag: "obj-1", Loc: geom.Vec3{X: float64(t)}},
			{Time: t, Tag: "obj-2", Loc: geom.Vec3{X: float64(t), Y: 3}},
		})
	}
}

// TestRegistryStateRoundTrip is the recovery property at the query layer: a
// registry checkpointed mid-stream and restored into a fresh one produces
// identical polled bytes and identical future rows, including mid-window
// aggregate state.
func TestRegistryStateRoundTrip(t *testing.T) {
	specs := []Spec{
		{Kind: KindLocationUpdates, MinChange: 0.5},
		{Kind: KindFireCode, WindowEpochs: 3, ThresholdPounds: 1.5},
		{Kind: KindWindowedAggregate, WindowEpochs: 2, Op: AggSumWeight, GroupBy: GroupByArea},
	}
	ref := NewRegistry(0)
	split := NewRegistry(0)
	for _, s := range specs {
		if _, err := ref.Register(s); err != nil {
			t.Fatal(err)
		}
		if _, err := split.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	feedRegistry(ref, 0, 20)
	feedRegistry(split, 0, 9)

	enc := checkpoint.NewEncoder()
	split.SaveState(enc)
	restored := NewRegistry(0)
	if err := restored.RestoreState(checkpoint.NewDecoder(enc.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	feedRegistry(restored, 9, 20)

	for _, info := range ref.List() {
		want, wantInfo, err := ref.Results(info.ID, -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, gotInfo, err := restored.Results(info.ID, -1, 0)
		if err != nil {
			t.Fatalf("restored registry lost query %s: %v", info.ID, err)
		}
		if wantInfo.NextSeq != gotInfo.NextSeq || wantInfo.Buffered != gotInfo.Buffered {
			t.Fatalf("%s: info diverged: %+v vs %+v", info.ID, gotInfo, wantInfo)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("%s: polled results diverged after restore:\n got %s\nwant %s", info.ID, gotJSON, wantJSON)
		}
	}

	// A fresh registration after restore continues the id sequence.
	info, err := restored.Register(Spec{Kind: KindLocationUpdates})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "q4" {
		t.Fatalf("post-restore id = %s, want q4", info.ID)
	}
}

// TestRegistryRestoreRejectsCorrupt pins error-not-panic on malformed
// payloads.
func TestRegistryRestoreRejectsCorrupt(t *testing.T) {
	r := NewRegistry(0)
	if _, err := r.Register(Spec{Kind: KindFireCode}); err != nil {
		t.Fatal(err)
	}
	feedRegistry(r, 0, 5)
	enc := checkpoint.NewEncoder()
	r.SaveState(enc)
	payload := enc.Bytes()
	for _, cut := range []int{0, 1, len(payload) / 2, len(payload) - 1} {
		fresh := NewRegistry(0)
		if err := fresh.RestoreState(checkpoint.NewDecoder(payload[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	evs := []stream.Event{
		{Time: 3, Tag: "a", Loc: geom.Vec3{X: 1.25, Y: -2, Z: 0.5},
			Stats: stream.EventStats{Variance: geom.Vec3{X: 0.1}, NumParticles: 120, Compressed: true}},
		{},
	}
	enc := checkpoint.NewEncoder()
	saveEvents(enc, evs)
	got := restoreEvents(checkpoint.NewDecoder(enc.Bytes()))
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("event codec round trip: %+v vs %+v", got, evs)
	}
}

// registryFixture is how testdata/registry-v2.state was made: a registry
// holding one query of each continuous kind, fed the first split events of
// the stream and saved mid-window by SaveState.
func registryFixture() (specs []Spec, events []stream.Event, split int) {
	specs = []Spec{
		{Kind: KindLocationUpdates, MinChange: 0.25},
		{Kind: KindFireCode, WindowEpochs: 4, ThresholdPounds: 2.5},
		{Kind: KindWindowedAggregate, WindowEpochs: 3, Op: AggSumWeight, GroupBy: GroupByArea, WeightPounds: 2},
	}
	return specs, randomStream(rng.New(23), 160), 80
}

// TestRegistryFixtureRestores pins the registry checkpoint format against a
// saved payload: testdata/registry-v2.state must restore and, fed the rest of
// the stream, poll exactly the rows of an uninterrupted run.
func TestRegistryFixtureRestores(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "registry-v2.state"))
	if err != nil {
		t.Fatal(err)
	}
	specs, events, split := registryFixture()
	ref := NewRegistry(0)
	for _, s := range specs {
		if _, err := ref.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	ref.Feed(events)
	ref.FlushAll()

	got := NewRegistry(0)
	if err := got.RestoreState(checkpoint.NewDecoder(data)); err != nil {
		t.Fatalf("restore fixture: %v", err)
	}
	got.Feed(events[split:])
	got.FlushAll()

	if len(got.List()) != len(specs) {
		t.Fatalf("fixture restored %d queries, want %d", len(got.List()), len(specs))
	}
	for _, info := range ref.List() {
		want, _, _ := ref.Results(info.ID, -1, 0)
		have, _, err := got.Results(info.ID, -1, 0)
		if err != nil {
			t.Fatalf("fixture lost query %s: %v", info.ID, err)
		}
		wantJSON, _ := json.Marshal(want)
		haveJSON, _ := json.Marshal(have)
		if !bytes.Equal(haveJSON, wantJSON) {
			t.Fatalf("%s (%s): rows after the fixture restore differ:\n got %s\nwant %s", info.ID, info.Spec.Kind, haveJSON, wantJSON)
		}
	}
}

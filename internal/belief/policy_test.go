package belief

import (
	"testing"

	"repro/internal/stream"
)

// fakeFilter provides canned per-object compression KL values.
type fakeFilter map[stream.TagID]float64

func (f fakeFilter) CandidateKL(id stream.TagID) (float64, bool) {
	kl, ok := f[id]
	return kl, ok
}

func TestLeaveScopeSelectsOnlyStaleObjects(t *testing.T) {
	m := NewManager(Config{Mode: LeaveScope, OutOfScopeEpochs: 10})
	candidates := []Candidate{
		{ID: "fresh", LastSeen: 95},
		{ID: "stale", LastSeen: 80},
		{ID: "very-stale", LastSeen: 10},
	}
	got := m.Select(100, candidates, nil)
	if len(got) != 2 {
		t.Fatalf("selected %v", got)
	}
	// Oldest first.
	if got[0].ID != "very-stale" || got[1].ID != "stale" {
		t.Errorf("selection order = %v", got)
	}
}

func TestLeaveScopeTieBreaksOnID(t *testing.T) {
	m := NewManager(Config{Mode: LeaveScope, OutOfScopeEpochs: 5})
	candidates := []Candidate{
		{ID: "b", LastSeen: 10},
		{ID: "a", LastSeen: 10},
	}
	got := m.Select(100, candidates, nil)
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Errorf("tie-break order = %v", got)
	}
}

func TestMaxPerEpochBoundsWork(t *testing.T) {
	m := NewManager(Config{Mode: LeaveScope, OutOfScopeEpochs: 1, MaxPerEpoch: 3})
	var candidates []Candidate
	for i := 0; i < 10; i++ {
		candidates = append(candidates, Candidate{ID: stream.TagID(rune('a' + i)), LastSeen: i})
	}
	got := m.Select(100, candidates, nil)
	if len(got) != 3 {
		t.Errorf("selected %d, want 3", len(got))
	}
}

func TestKLRankedPrefersCompactBeliefs(t *testing.T) {
	m := NewManager(Config{Mode: KLRanked, OutOfScopeEpochs: 5, KLThreshold: 1.0, MaxPerEpoch: 10})
	candidates := []Candidate{
		{ID: "spread", LastSeen: 0},
		{ID: "compact", LastSeen: 0},
		{ID: "medium", LastSeen: 0},
	}
	f := fakeFilter{"spread": 5.0, "compact": 0.01, "medium": 0.5}
	got := m.Select(100, candidates, f)
	// The spread belief exceeds the threshold and must not be compressed.
	if len(got) != 2 {
		t.Fatalf("selected %v", got)
	}
	if got[0].ID != "compact" || got[1].ID != "medium" {
		t.Errorf("KL ranking order = %v", got)
	}
	// The chosen candidates carry the KL they were ranked by, so the engine
	// records it without measuring again.
	if got[0].KL != 0.01 || got[1].KL != 0.5 {
		t.Errorf("KL carried = %v, %v; want the ranked values", got[0].KL, got[1].KL)
	}
}

func TestKLRankedWithoutThresholdKeepsAll(t *testing.T) {
	m := NewManager(Config{Mode: KLRanked, OutOfScopeEpochs: 1, MaxPerEpoch: 10})
	candidates := []Candidate{{ID: "a", LastSeen: 0}, {ID: "b", LastSeen: 0}}
	got := m.Select(10, candidates, fakeFilter{"a": 3, "b": 1})
	if len(got) != 2 || got[0].ID != "b" {
		t.Errorf("selection = %v", got)
	}
}

func TestSelectEmptyCandidates(t *testing.T) {
	m := NewManager(DefaultConfig())
	if got := m.Select(5, nil, nil); got != nil {
		t.Errorf("expected nil for no candidates, got %v", got)
	}
	// All candidates recently seen: nothing selected.
	got := m.Select(5, []Candidate{{ID: "a", LastSeen: 5}}, nil)
	if len(got) != 0 {
		t.Errorf("recently-seen candidate selected: %v", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	m := NewManager(Config{})
	cfg := m.Config()
	if cfg.OutOfScopeEpochs <= 0 || cfg.MaxPerEpoch <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if LeaveScope.String() != "leave-scope" || KLRanked.String() != "kl-ranked" || Mode(9).String() != "unknown" {
		t.Error("Mode.String wrong")
	}
}

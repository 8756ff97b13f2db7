// Package belief implements the belief-compression policies of Section IV-D.
// The mechanics of compression (moment-matching a weighted particle set to a
// Gaussian, measuring the KL divergence, re-sampling on decompression) live
// with the factored filter; this package decides WHICH objects to compress
// and WHEN, using the two policies the paper describes: compress an object
// once its tag has not been read for several epochs (it left the reader's
// scope), or rank uncompressed objects by the KL divergence their compression
// would incur and compress the cheapest ones, optionally bounded by a KL
// threshold. The KL divergence is a leave-one-out density estimate, quadratic
// in the particle count, so it is measured only here and only by the policy
// that ranks on it: KLRanked asks the filter once per eligible candidate and
// hands the value back with its choice; LeaveScope never asks, and the
// beliefs it compresses record a KL of zero, meaning not measured.
package belief

import (
	"sort"

	"repro/internal/stream"
)

// Mode selects the compression policy.
type Mode int

const (
	// LeaveScope compresses an object after it has gone unobserved for
	// OutOfScopeEpochs epochs.
	LeaveScope Mode = iota
	// KLRanked additionally ranks the out-of-scope candidates by compression
	// KL and only compresses those whose KL falls below KLThreshold.
	KLRanked
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case LeaveScope:
		return "leave-scope"
	case KLRanked:
		return "kl-ranked"
	default:
		return "unknown"
	}
}

// Config configures the compression manager.
type Config struct {
	// Mode selects the policy.
	Mode Mode
	// OutOfScopeEpochs is the number of consecutive unobserved epochs after
	// which an object becomes a compression candidate (default 20).
	OutOfScopeEpochs int
	// KLThreshold bounds the acceptable compression loss for the KLRanked
	// policy; zero means no threshold.
	KLThreshold float64
	// MaxPerEpoch bounds how many objects are compressed in a single epoch so
	// that compression work is spread over time (default 64).
	MaxPerEpoch int
}

// DefaultConfig returns the policy configuration used by the engine.
func DefaultConfig() Config {
	return Config{Mode: LeaveScope, OutOfScopeEpochs: 20, MaxPerEpoch: 64}
}

func (c *Config) applyDefaults() {
	if c.OutOfScopeEpochs <= 0 {
		c.OutOfScopeEpochs = 20
	}
	if c.MaxPerEpoch <= 0 {
		c.MaxPerEpoch = 64
	}
}

// BeliefState is the narrow view of an object's belief that the policy needs.
type BeliefState interface {
	// LastSeenEpoch returns the epoch of the object's most recent reading.
	LastSeenEpoch() int
	// IsCompressed reports whether the belief is already compressed.
	IsCompressed() bool
}

// Filter is the narrow view of the factored filter that the policy needs; it
// is satisfied by *factored.Filter via a small adapter in the engine.
type Filter interface {
	// CandidateKL returns the KL divergence compressing the object would
	// incur right now.
	CandidateKL(id stream.TagID) (float64, bool)
}

// Candidate pairs an object id with the information the policy ranks on. KL
// is filled in by Select, and only under KLRanked.
type Candidate struct {
	ID       stream.TagID
	LastSeen int
	KL       float64
}

// Manager applies a compression policy over epochs.
type Manager struct {
	cfg Config
}

// NewManager returns a Manager with the given configuration.
func NewManager(cfg Config) *Manager {
	cfg.applyDefaults()
	return &Manager{cfg: cfg}
}

// Config returns the effective configuration.
func (m *Manager) Config() Config { return m.cfg }

// Select returns the candidates that should be compressed at the current
// epoch, given the uncompressed candidates (each with the epoch it was last
// seen). For the KLRanked mode the filter is queried for per-object
// compression KL, which the returned candidates carry; it may be nil for the
// LeaveScope mode, whose candidates come back with KL zero.
func (m *Manager) Select(epoch int, candidates []Candidate, f Filter) []Candidate {
	var eligible []Candidate
	for _, c := range candidates {
		if epoch-c.LastSeen < m.cfg.OutOfScopeEpochs {
			continue
		}
		eligible = append(eligible, c)
	}
	if len(eligible) == 0 {
		return nil
	}

	if m.cfg.Mode == KLRanked && f != nil {
		for i := range eligible {
			if kl, ok := f.CandidateKL(eligible[i].ID); ok {
				eligible[i].KL = kl
			}
		}
		sort.Slice(eligible, func(i, j int) bool {
			if eligible[i].KL != eligible[j].KL {
				return eligible[i].KL < eligible[j].KL
			}
			return eligible[i].ID < eligible[j].ID
		})
		if m.cfg.KLThreshold > 0 {
			cut := 0
			for cut < len(eligible) && eligible[cut].KL <= m.cfg.KLThreshold {
				cut++
			}
			eligible = eligible[:cut]
		}
	} else {
		// Deterministic order: oldest unseen first.
		sort.Slice(eligible, func(i, j int) bool {
			if eligible[i].LastSeen != eligible[j].LastSeen {
				return eligible[i].LastSeen < eligible[j].LastSeen
			}
			return eligible[i].ID < eligible[j].ID
		})
	}

	if len(eligible) > m.cfg.MaxPerEpoch {
		eligible = eligible[:m.cfg.MaxPerEpoch]
	}
	return eligible
}

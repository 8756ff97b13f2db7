package query

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
)

// FuzzParseSpec hardens the untrusted-input surface of the query layer: the
// JSON spec bytes a client POSTs to /queries. Three properties must hold for
// arbitrary input: ParseSpec never panics; any spec it accepts must
// instantiate through NewContinuous (parse acceptance implies
// instantiability); and accepted specs must survive a marshal/re-parse
// round trip unchanged (so persisted or relayed specs mean the same query).
func FuzzParseSpec(f *testing.F) {
	// Seed corpus: every canned spec shape the tools and tests use, plus
	// near-miss malformed variants.
	seeds := []string{
		`{"kind":"location-updates"}`,
		`{"kind":"location-updates","min_change":0.5}`,
		`{"kind":"fire-code"}`,
		`{"kind":"fire-code","window_epochs":5,"threshold_pounds":200,"weight_pounds":60}`,
		`{"kind":"windowed-aggregate","op":"count","group_by":"area"}`,
		`{"kind":"windowed-aggregate","op":"sum-weight","group_by":"none","window_epochs":10,"weight_pounds":2}`,
		`{"kind":"windowed-aggregate","op":"mean-weight"}`,
		`{"kind":"unknown"}`,
		`{"kind":""}`,
		`{}`,
		`[]`,
		`{"kind":"fire-code","window_epochs":-3}`,
		`{"kind":"windowed-aggregate","op":"bogus"}`,
		`{"kind":"location-updates","min_change":1e308}`,
		`not json at all`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		q, err := NewContinuous(spec)
		if err != nil {
			t.Fatalf("ParseSpec accepted %q but NewContinuous rejected it: %v", data, err)
		}
		if q == nil {
			t.Fatalf("NewContinuous returned nil query for accepted spec %q", data)
		}
		buf, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal of accepted spec failed: %v", err)
		}
		again, err := ParseSpec(buf)
		if err != nil {
			t.Fatalf("re-parse of marshaled spec %s failed: %v", buf, err)
		}
		if again != spec {
			t.Fatalf("spec round trip changed: %+v -> %+v", spec, again)
		}
	})
}

// FuzzRegistryRestore hardens the registry's checkpoint restore, which reads
// whatever a checkpoint file or a replica bootstrap holds. RestoreState must
// return an error rather than panic on arbitrary input, and on a payload it
// accepts, save → restore → save must be a fixed point (a restored registry
// re-saves exactly what it was restored from).
func FuzzRegistryRestore(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("testdata", "registry-v2.state"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	specs, events, split := registryFixture()
	r := NewRegistry(0)
	for _, s := range specs {
		if _, err := r.Register(s); err != nil {
			f.Fatal(err)
		}
	}
	r.Feed(events[:split])
	f.Add(stateBytes(r.SaveState))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRegistry(0)
		if r.RestoreState(checkpoint.NewDecoder(data)) != nil {
			return
		}
		saved := stateBytes(r.SaveState)
		again := NewRegistry(0)
		if err := again.RestoreState(checkpoint.NewDecoder(saved)); err != nil {
			t.Fatalf("restoring a re-saved registry failed: %v", err)
		}
		if !bytes.Equal(stateBytes(again.SaveState), saved) {
			t.Fatal("save → restore → save is not a fixed point")
		}
	})
}

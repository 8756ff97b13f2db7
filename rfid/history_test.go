package rfid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/query"
	"repro/rfid/api"
)

// snapshotEverything is the reference the change-log history must equal: the
// history as kept before it — after every sealed epoch, the estimate of every
// tracked object in tag order — in a ring of the given capacity. It implements
// query.HistorySource like the Runner.
type snapshotEverything struct {
	capacity int
	ring     []snapshotAt
}

type snapshotAt struct {
	epoch  int
	events []Event
}

// record snapshots every tracked object's estimate after epoch was sealed.
func (o *snapshotEverything) record(p *Pipeline, epoch int) {
	tags := p.TrackedObjects()
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	snap := snapshotAt{epoch: epoch, events: make([]Event, 0, len(tags))}
	for _, id := range tags {
		if loc, st, ok := p.Estimate(id); ok {
			snap.events = append(snap.events, Event{Time: epoch, Tag: id, Loc: loc, Stats: st})
		}
	}
	o.ring = append(o.ring, snap)
	if over := len(o.ring) - o.capacity; over > 0 {
		o.ring = o.ring[over:]
	}
}

func (o *snapshotEverything) HistoryBounds() (int, int, bool) {
	if len(o.ring) == 0 {
		return 0, 0, false
	}
	return o.ring[0].epoch, o.ring[len(o.ring)-1].epoch, true
}

func (o *snapshotEverything) HistoryEvents(epoch int) ([]Event, bool) {
	for _, s := range o.ring {
		if s.epoch == epoch {
			return s.events, true
		}
	}
	return nil, false
}

// snapshotBody is the GET /snapshot?epoch= body the serving layer builds from
// HistoryEvents.
func snapshotBody(t *testing.T, epoch int, events []Event) []byte {
	t.Helper()
	objects := make([]api.TagSnapshot, 0, len(events))
	for _, ev := range events {
		objects = append(objects, api.TagSnapshot{
			Tag: string(ev.Tag), Found: true,
			X: ev.Loc.X, Y: ev.Loc.Y, Z: ev.Loc.Z,
			VarX: ev.Stats.Variance.X, VarY: ev.Stats.Variance.Y, VarZ: ev.Stats.Variance.Z,
			NumParticles: ev.Stats.NumParticles,
			Compressed:   ev.Stats.Compressed,
		})
	}
	b, err := json.Marshal(api.HistorySnapshot{Epoch: epoch, Objects: objects})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// historyQueries are the history-mode registrations compared row for row.
var historyQueries = []query.Spec{
	{Kind: query.KindLocationUpdates, Mode: query.ModeHistory},
	{Kind: query.KindLocationUpdates, Mode: query.ModeHistory, MinChange: 0.2, FromEpoch: 30},
	{Kind: query.KindFireCode, Mode: query.ModeHistory, WindowEpochs: 3, ThresholdPounds: 1.5},
	{Kind: query.KindWindowedAggregate, Mode: query.ModeHistory, WindowEpochs: 4, Op: query.AggSumWeight, GroupBy: query.GroupByArea, WeightPounds: 2},
	{Kind: query.KindWindowedAggregate, Mode: query.ModeHistory, Op: query.AggCount},
}

// historyRows registers every history query against src and returns the
// rows as JSON.
func historyRows(t *testing.T, src query.HistorySource) []byte {
	t.Helper()
	reg := query.NewRegistry(-1)
	reg.SetHistorySource(src)
	var out bytes.Buffer
	for _, spec := range historyQueries {
		info, err := reg.Register(spec)
		if err != nil {
			fmt.Fprintf(&out, "error %v\n", err)
			continue
		}
		res, _, err := reg.Results(info.ID, -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// assertSameHistory checks that every retained epoch of r reads exactly what
// the reference recorded: bounds, HistoryEvents, the snapshot body, and —
// when rows is set — every history-mode query's rows.
func assertSameHistory(t *testing.T, what string, r *Runner, ref *snapshotEverything, rows bool) {
	t.Helper()
	gotOld, gotNew, gotOK := r.HistoryBounds()
	wantOld, wantNew, wantOK := ref.HistoryBounds()
	if gotOld != wantOld || gotNew != wantNew || gotOK != wantOK {
		t.Fatalf("%s: bounds [%d,%d]/%v, reference [%d,%d]/%v", what, gotOld, gotNew, gotOK, wantOld, wantNew, wantOK)
	}
	if !wantOK {
		return
	}
	for ep := wantOld - 1; ep <= wantNew+1; ep++ {
		got, gotOK := r.HistoryEvents(ep)
		want, wantOK := ref.HistoryEvents(ep)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: HistoryEvents(%d) = %d events/%v, reference %d events/%v", what, ep, len(got), gotOK, len(want), wantOK)
		}
		if wantOK && !bytes.Equal(snapshotBody(t, ep, got), snapshotBody(t, ep, want)) {
			t.Fatalf("%s: snapshot body of epoch %d differs", what, ep)
		}
	}
	if rows && !bytes.Equal(historyRows(t, r), historyRows(t, ref)) {
		t.Fatalf("%s: history-mode rows differ", what)
	}
}

func saveRunner(r *Runner) []byte {
	enc := checkpoint.NewEncoder()
	r.SaveState(enc)
	return enc.Bytes()
}

func restoreRunner(t *testing.T, cfg Config, rc RunnerConfig, payload []byte) *Runner {
	t.Helper()
	r, err := NewRunner(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreState(checkpoint.NewDecoder(payload)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return r
}

// TestHistoryMatchesSnapshotEverything is the change log's equivalence
// property: at every sealed epoch, for every retained epoch, HistoryEvents,
// the snapshot-at-epoch body and history-mode query rows equal the
// snapshot-everything reference — under compression churn (a second scan
// pass re-reads compressed objects), moved objects (particle
// re-initialisation), reader resampling, a Save → Restore mid-run (into other
// parallelism, and once more from the restored runner), a restore into a
// smaller HistoryEpochs and a restore from a runner that kept no history. A
// restored runner's checkpoint must also be byte-identical to the
// uninterrupted one's.
func TestHistoryMatchesSnapshotEverything(t *testing.T) {
	wc := DefaultWarehouseConfig()
	wc.NumObjects = 16
	wc.NumShelfTags = 4
	wc.Rounds = 2
	wc.MoveInterval, wc.MoveDistance, wc.MoveCount = 60, 6, 2
	wc.DropPoseEvery = 9
	wc.Seed = 23
	trace, err := SimulateWarehouse(wc)
	if err != nil {
		t.Fatal(err)
	}
	readings, locations := RawStreams(trace)
	rByT := map[int][]Reading{}
	lByT := map[int][]LocationReport{}
	maxT := 0
	for _, r := range readings {
		rByT[r.Time] = append(rByT[r.Time], r)
		maxT = max(maxT, r.Time)
	}
	for _, l := range locations {
		lByT[l.Time] = append(lByT[l.Time], l)
		maxT = max(maxT, l.Time)
	}

	base := DefaultConfig(DefaultParams(), trace.World)
	base.NumObjectParticles = 100
	base.NumReaderParticles = 50
	base.Workers = 1
	base.Seed = 5
	variants := map[string]func(Config) Config{
		"default": func(c Config) Config { return c },
		"every-epoch": func(c Config) Config {
			c.ReportPolicy = ReportEveryEpoch
			return c
		},
		"no-compression": func(c Config) Config {
			c.Compression = false
			return c
		},
		"basic-filter": func(c Config) Config {
			c.Factored, c.SpatialIndex, c.Compression = false, false, false
			c.NumBasicParticles = 300
			return c
		},
	}
	const capacity, small = 12, 5
	for _, name := range []string{"default", "every-epoch", "no-compression", "basic-filter"} {
		t.Run(name, func(t *testing.T) {
			cfg := variants[name](base)
			parallel := cfg
			parallel.Workers = 4
			full := RunnerConfig{HistoryEpochs: capacity}
			newRunner := func(c Config, rc RunnerConfig) *Runner {
				r, err := NewRunner(c, rc)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			ref := newRunner(cfg, full)
			noHist := newRunner(cfg, RunnerConfig{})
			refFull := &snapshotEverything{capacity: capacity}
			refSmall := &snapshotEverything{capacity: small}
			refLate := &snapshotEverything{capacity: capacity}

			split, resplit := maxT/3, 2*maxT/3
			var restored, restoredSmall, fromNoHist *Runner
			for tt := 0; tt <= maxT; tt++ {
				if tt == split {
					payload := saveRunner(ref)
					restored = restoreRunner(t, parallel, full, payload)
					restoredSmall = restoreRunner(t, cfg, RunnerConfig{HistoryEpochs: small}, payload)
					fromNoHist = restoreRunner(t, cfg, full, saveRunner(noHist))
					assertSameHistory(t, "restored", restored, refFull, true)
					assertSameHistory(t, "restored-small", restoredSmall, refSmall, true)
				}
				if tt == resplit {
					payload := saveRunner(restored)
					if !bytes.Equal(payload, saveRunner(ref)) {
						t.Fatalf("epoch %d: the restored runner's checkpoint differs from the uninterrupted one's", tt)
					}
					restored = restoreRunner(t, cfg, full, payload)
				}
				before := ref.Position().NextEpoch
				for _, r := range []*Runner{ref, noHist, restored, restoredSmall, fromNoHist} {
					if r == nil {
						continue
					}
					r.Ingest(rByT[tt], lByT[tt])
					if _, err := r.Advance(); err != nil {
						t.Fatal(err)
					}
				}
				if ref.Position().NextEpoch == before {
					continue // nothing was sealed
				}
				refFull.record(ref.pipe, tt)
				refSmall.record(ref.pipe, tt)
				if tt >= split {
					refLate.record(ref.pipe, tt)
				}
				rows := tt%40 == 0 || tt == maxT
				assertSameHistory(t, fmt.Sprintf("uninterrupted@%d", tt), ref, refFull, rows)
				if restored != nil {
					assertSameHistory(t, fmt.Sprintf("restored@%d", tt), restored, refFull, rows)
					assertSameHistory(t, fmt.Sprintf("restored-small@%d", tt), restoredSmall, refSmall, rows)
					assertSameHistory(t, fmt.Sprintf("from-no-history@%d", tt), fromNoHist, refLate, rows)
				}
			}
			if st := ref.Stats(); cfg.Compression && (st.Compressions == 0 || st.Decompressions == 0) {
				t.Fatalf("no compression churn: %d compressions, %d decompressions", st.Compressions, st.Decompressions)
			}
		})
	}
}

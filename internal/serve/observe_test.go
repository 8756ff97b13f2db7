package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/rfid"
	"repro/rfid/api"
)

// newTracedServer is newTestServer with epoch-stage tracing enabled: the
// server config gives every session a trace ring of traceEpochs entries.
func newTracedServer(t *testing.T, traceEpochs int) (*Server, *httptest.Server, []rfid.Reading, []rfid.LocationReport) {
	t.Helper()
	return newTestServerWith(t, Config{QueueSize: 64, IngestWait: 5 * time.Second, TraceEpochs: traceEpochs}, testEngine)
}

// ingestAndFlush pushes the whole raw stream through the session at base and
// flushes, so every epoch is sealed (and traced) when it returns.
func ingestAndFlush(t *testing.T, base string, readings []rfid.Reading, locations []rfid.LocationReport) {
	t.Helper()
	if code := postJSON(t, base+"/ingest", ingestBody(readings, locations), nil); code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", code)
	}
	if code := postJSON(t, base+"/flush", map[string]any{}, nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
}

// TestServerTraceEndpoint pins the trace surface: with tracing on, sealed
// epochs land in a bounded ring served oldest-first, ?epochs=N returns the
// newest N, and the per-epoch stage breakdown carries real step time.
func TestServerTraceEndpoint(t *testing.T) {
	const capacity = 4
	_, ts, readings, locations := newTracedServer(t, capacity)
	ingestAndFlush(t, ts.URL+sessPath, readings, locations)

	var stats api.SessionDebugStats
	if code := getJSON(t, ts.URL+"/v1/sessions/default/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.TracedEpochs <= capacity {
		t.Fatalf("sim sealed only %d epochs; the ring (cap %d) never overflowed", stats.TracedEpochs, capacity)
	}

	var full api.TraceResponse
	if code := getJSON(t, ts.URL+"/v1/sessions/default/trace", &full); code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	if !full.Enabled || full.Capacity != capacity {
		t.Fatalf("trace header = enabled %v capacity %d, want enabled cap %d", full.Enabled, full.Capacity, capacity)
	}
	// The ring is bounded: more epochs sealed than capacity, exactly capacity
	// retained, oldest first.
	if len(full.Epochs) != capacity {
		t.Fatalf("ring holds %d epochs, want exactly %d", len(full.Epochs), capacity)
	}
	for i, ep := range full.Epochs {
		if i > 0 && ep.Epoch <= full.Epochs[i-1].Epoch {
			t.Fatalf("epochs not ascending: %+v", full.Epochs)
		}
		if ep.WallSeconds <= 0 {
			t.Errorf("epoch %d: wall time is zero", ep.Epoch)
		}
		if ep.Stages["step"] <= 0 {
			t.Errorf("epoch %d: no step time recorded: %+v", ep.Epoch, ep.Stages)
		}
		if ep.WallSeconds+1e-9 < ep.Stages["step"]+ep.Stages["estimate"] {
			t.Errorf("epoch %d: wall %.9f below stage sum %+v", ep.Epoch, ep.WallSeconds, ep.Stages)
		}
	}

	// ?epochs=N trims to the newest N (still oldest first).
	var tail api.TraceResponse
	if code := getJSON(t, ts.URL+"/v1/sessions/default/trace?epochs=2", &tail); code != http.StatusOK {
		t.Fatalf("trace?epochs=2: status %d", code)
	}
	if len(tail.Epochs) != 2 ||
		tail.Epochs[0].Epoch != full.Epochs[capacity-2].Epoch ||
		tail.Epochs[1].Epoch != full.Epochs[capacity-1].Epoch {
		t.Fatalf("epochs=2 returned %+v, want the newest two of %+v", tail.Epochs, full.Epochs)
	}

	// Malformed and negative ?epochs= are refused.
	for _, q := range []string{"abc", "-1"} {
		if code := getJSON(t, ts.URL+"/v1/sessions/default/trace?epochs="+q, nil); code != http.StatusBadRequest {
			t.Fatalf("trace?epochs=%s: status %d, want 400", q, code)
		}
	}
}

// TestServerTraceKillSwitch pins -trace-epochs 0: the trace endpoint answers
// disabled+empty and the stats view carries no stage data, on a server that is
// otherwise fully functional.
func TestServerTraceKillSwitch(t *testing.T) {
	_, ts, readings, locations := newTestServer(t, 64) // TraceEpochs zero
	ingestAndFlush(t, ts.URL+sessPath, readings, locations)

	var tr api.TraceResponse
	if code := getJSON(t, ts.URL+"/v1/sessions/default/trace", &tr); code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	if tr.Enabled || tr.Capacity != 0 || len(tr.Epochs) != 0 {
		t.Fatalf("kill switch leaked trace state: %+v", tr)
	}
	var stats api.SessionDebugStats
	if code := getJSON(t, ts.URL+"/v1/sessions/default/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.TraceEnabled || stats.TracedEpochs != 0 || len(stats.StageSeconds) != 0 || len(stats.RecentEpochs) != 0 {
		t.Fatalf("kill switch leaked stage data into stats: %+v", stats)
	}
	if stats.Stats.Epochs == 0 {
		t.Fatalf("untraced session processed no epochs: %+v", stats)
	}
}

// TestServerStatsEndpoint pins the live debug-stats surface on a traced,
// resident session.
func TestServerStatsEndpoint(t *testing.T) {
	_, ts, readings, locations := newTracedServer(t, 64)
	ingestAndFlush(t, ts.URL+sessPath, readings, locations)

	var st api.SessionDebugStats
	if code := getJSON(t, ts.URL+"/v1/sessions/default/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.ID != "default" || st.State != "serving" || !st.Resident {
		t.Fatalf("bad identity/residency: %+v", st)
	}
	if st.QueueCap != 64 || st.QueueDepth < 0 || st.QueueDepth > st.QueueCap {
		t.Fatalf("bad queue view: depth %d cap %d", st.QueueDepth, st.QueueCap)
	}
	if st.UptimeSeconds <= 0 || st.Stats.Epochs == 0 || st.Stats.Particles == 0 {
		t.Fatalf("bad progress view: %+v", st)
	}
	if !st.TraceEnabled || st.TracedEpochs == 0 {
		t.Fatalf("tracing not reflected in stats: %+v", st)
	}
	if st.StageSeconds["step"] <= 0 || st.StageSeconds["estimate"] <= 0 {
		t.Fatalf("cumulative stage seconds missing: %+v", st.StageSeconds)
	}
	if len(st.RecentEpochs) == 0 || len(st.RecentEpochs) > debugStatsRecentEpochs {
		t.Fatalf("recent epochs = %d, want 1..%d", len(st.RecentEpochs), debugStatsRecentEpochs)
	}
	// A non-durable session must not report durability state.
	if st.Durable || st.CheckpointEpoch != 0 || st.WALSegment != 0 {
		t.Fatalf("non-durable session reports durability state: %+v", st)
	}
	// Unknown sessions get the standard 404 envelope.
	if code := getJSON(t, ts.URL+"/v1/sessions/ghost/stats", nil); code != http.StatusNotFound {
		t.Fatalf("ghost stats: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/sessions/ghost/trace", nil); code != http.StatusNotFound {
		t.Fatalf("ghost trace: status %d, want 404", code)
	}
}

// promSampleRe matches one exposition sample line: name, optional label set,
// one value.
var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// promLeRe extracts the `le` label from a bucket series' label set.
var promLeRe = regexp.MustCompile(`le="([^"]+)"`)

// validateProm parses a Prometheus text-exposition body and enforces the
// format invariants scrapers rely on: every sample belongs to a family with
// exactly one TYPE header (emitted before its samples), sample lines parse,
// histogram buckets are cumulative and end in a +Inf bucket equal to _count,
// and every histogram carries _sum and _count rows. It returns the set of
// families declared `# TYPE ... histogram`.
func validateProm(t *testing.T, body string) map[string]bool {
	t.Helper()
	types := map[string]string{}
	histograms := map[string]bool{}
	// family+labels(without le) -> bucket rows in order of appearance
	type bucket struct {
		le  float64
		cum uint64
	}
	buckets := map[string][]bucket{}
	sums := map[string]bool{}
	counts := map[string]uint64{}

	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			name, kind := parts[2], parts[3]
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for family %s", ln+1, name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: unknown TYPE %q", ln+1, kind)
			}
			types[name] = kind
			if kind == "histogram" {
				histograms[name] = true
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: unparseable sample line %q", ln+1, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, valStr, err)
		}
		// Resolve the declared family: histogram samples carry a suffix.
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && histograms[base] {
				family = base
				break
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: sample %s has no preceding TYPE header", ln+1, name)
		}
		if types[family] == "counter" && val < 0 {
			t.Fatalf("line %d: negative counter %s", ln+1, line)
		}
		if family == name {
			continue
		}
		// Normalize the label set with le removed, so bucket rows group with
		// their _sum/_count rows: `{le="x"}` -> ``, `{a="b",le="x"}` -> `{a="b"}`.
		stripped := promLeRe.ReplaceAllString(labels, "")
		stripped = strings.ReplaceAll(stripped, ",}", "}")
		if stripped == "{}" {
			stripped = ""
		}
		key := family + stripped
		switch strings.TrimPrefix(name, family) {
		case "_bucket":
			le := promLeRe.FindStringSubmatch(labels)
			if le == nil {
				t.Fatalf("line %d: bucket without le label: %q", ln+1, line)
			}
			bound, err := strconv.ParseFloat(le[1], 64)
			if err != nil {
				t.Fatalf("line %d: bad le %q: %v", ln+1, le[1], err)
			}
			buckets[key] = append(buckets[key], bucket{le: bound, cum: uint64(val)})
		case "_sum":
			sums[key] = true
		case "_count":
			counts[key] = uint64(val)
		}
	}

	for key, bs := range buckets {
		for i, b := range bs {
			if i > 0 && (b.le <= bs[i-1].le || b.cum < bs[i-1].cum) {
				t.Fatalf("%s: buckets not cumulative/ascending at le=%g: %+v", key, b.le, bs)
			}
		}
		last := bs[len(bs)-1]
		if !strings.Contains(fmt.Sprintf("%g", last.le), "Inf") {
			t.Fatalf("%s: final bucket is le=%g, want +Inf", key, last.le)
		}
		cnt, ok := counts[key]
		if !ok || !sums[key] {
			t.Fatalf("%s: histogram missing _sum/_count rows", key)
		}
		if last.cum != cnt {
			t.Fatalf("%s: +Inf bucket %d != _count %d", key, last.cum, cnt)
		}
	}
	return histograms
}

// TestServerMetricsPromValid drives real traffic through a traced server (a
// second labelled session included) and asserts the /metrics exposition is
// valid Prometheus text carrying the full latency-histogram surface.
func TestServerMetricsPromValid(t *testing.T) {
	_, ts, readings, locations := newTracedServer(t, 16)
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{ID: "obs"}, nil); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	ingestAndFlush(t, ts.URL+sessPath, readings, locations)
	ingestAndFlush(t, ts.URL+"/v1/sessions/obs", readings, locations)

	body := getRaw(t, ts.URL+"/v1/metrics")
	histograms := validateProm(t, body)

	// The tentpole histogram families, all present regardless of traffic (a
	// registered family with zero observations still exposes its buckets).
	want := []string{
		"rfidserve_ingest_seconds",
		"rfidserve_longpoll_seconds",
		"rfidserve_wal_fsync_seconds",
		"rfidserve_checkpoint_write_seconds",
		"rfidserve_epoch_seconds",
		"rfidserve_hydration_seconds",
	}
	for _, f := range want {
		if !histograms[f] {
			t.Errorf("histogram family %s missing from /metrics", f)
		}
	}
	if len(histograms) < 6 {
		t.Fatalf("only %d histogram families exposed, want >= 6: %v", len(histograms), histograms)
	}

	// Real traffic landed in the ingest and epoch histograms of both sessions.
	for _, series := range []string{
		`rfidserve_ingest_seconds_count{session="default"} `,
		`rfidserve_ingest_seconds_count{session="obs"} `,
		`rfidserve_epoch_seconds_count{session="default"} `,
		`rfidserve_epoch_seconds_count{session="obs"} `,
	} {
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, series) && !strings.HasSuffix(line, " 0") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("series %s… missing or zero on /metrics", series)
		}
	}

	// The cumulative per-stage counters are exposed for both sessions, stage
	// label first so the session label stays the suffix DropSeries matches.
	for _, series := range []string{
		`rfidserve_epoch_stage_seconds_total{stage="step",session="default"} `,
		`rfidserve_epoch_stage_seconds_total{stage="step",session="obs"} `,
	} {
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, series) {
				v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, series)), 64)
				if err != nil || v <= 0 {
					t.Errorf("stage counter %s… = %q, want > 0", series, line)
				}
				found = true
				break
			}
		}
		if !found {
			t.Errorf("stage counter %s… missing from /metrics", series)
		}
	}

	// One TYPE header per family even with labelled per-session series.
	if got := strings.Count(body, "# TYPE rfidserve_ingest_seconds histogram"); got != 1 {
		t.Fatalf("TYPE rfidserve_ingest_seconds appears %d times, want 1", got)
	}
}

// TestServerMetricsDropOnDelete pins that deleting a session retires every one
// of its labelled series — the plain per-session ones and the two-label
// per-stage counters alike.
func TestServerMetricsDropOnDelete(t *testing.T) {
	_, ts, readings, locations := newTracedServer(t, 16)
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{ID: "gone"}, nil); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	ingestAndFlush(t, ts.URL+"/v1/sessions/gone", readings, locations)
	if !strings.Contains(getRaw(t, ts.URL+"/v1/metrics"), `session="gone"`) {
		t.Fatal("labelled series never appeared")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/gone", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if body := getRaw(t, ts.URL+"/v1/metrics"); strings.Contains(body, `session="gone"`) {
		for _, line := range strings.Split(body, "\n") {
			if strings.Contains(line, `session="gone"`) {
				t.Errorf("stale series after delete: %s", line)
			}
		}
	}
}

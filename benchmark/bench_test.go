package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// testServerBin is the rfidserve binary TestMain builds once.
var testServerBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "rfidbm-test-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testServerBin, _, err = buildServer(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestSameSeedSameInputs(t *testing.T) {
	hash := func(seed int64) string {
		in, err := genInput(httpShelf, 200, seed)
		if err != nil {
			t.Fatal(err)
		}
		return inputHash([]*sessionInput{in})
	}
	if a, b := hash(7), hash(7); a != b {
		t.Errorf("same seed gave different inputs: %s, %s", a, b)
	}
	if a, b := hash(7), hash(8); a == b {
		t.Errorf("different seeds gave the same inputs: %s", a)
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); strings.TrimSpace(string(got)) != want {
		t.Errorf("BENCHMARK.json is out of step with spec.go; regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, s := range append(driverMetrics(), perLayerMetrics...) {
		if !metricNameRE.MatchString(s.Name) {
			t.Errorf("metric name %q is not of the allowed form", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("metric name %q is used twice", s.Name)
		}
		seen[s.Name] = true
	}
	if len(perLayerMetrics) > 128 || len(driverMetrics()) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayerMetrics), len(driverMetrics()))
	}
	for _, s := range driverMetrics() {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside the contract's (0, 0.25]", s.Name, s.Bound)
		}
	}
}

// leftovers lists this benchmark's temp entries other than the test's own
// server binary directory.
func leftovers(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(os.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasPrefix(name, "rfidbm-") && !strings.HasPrefix(name, "rfidbm-test-bin-") && !strings.HasPrefix(name, "rfidbm-spans-") {
			out = append(out, name)
		}
	}
	return out
}

// TestWorkloadsAtTinyScale runs every workload untraced, and the two whose
// traced pass does more than scrape and probe (the rate ladder of stream-dense,
// the replica figures of http-durable-mixed) traced as well, at a twentieth of
// their size for half a second: every operation must succeed, every end-to-end
// metric gated on the workload must be positive, every per-layer metric must
// be emitted by at least one run, and no process or temp directory may be
// left.
func TestWorkloadsAtTinyScale(t *testing.T) {
	emitted := map[string]bool{}
	run := func(name string, traced bool) {
		spanFile := filepath.Join(t.TempDir(), "spans.jsonl")
		t0 := time.Now()
		res, err := runWorkload(runOptions{
			workload: name, seed: 3, seconds: 0.5, traced: traced, recovery: true,
			serverBin: testServerBin, scale: 0.05, spanOut: spanFile,
		})
		t.Logf("%s traced=%v took %v", name, traced, time.Since(t0))
		if err != nil {
			t.Fatalf("%s traced=%v: %v", name, traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Metrics["failed_ops_ratio"] != 0 {
			t.Errorf("%s traced=%v: correct=%v failed=%d of %d: %v", name, traced, res.Correct, res.Failed, res.Attempted, res.Failures)
		}
		for _, s := range endToEndMetrics {
			if s.Bound > 0 && s.gatedOn(name) && res.Metrics[s.Name] <= 0 {
				t.Errorf("%s traced=%v: %s = %v, want > 0", name, traced, s.Name, res.Metrics[s.Name])
			}
		}
		for metric := range res.Metrics {
			emitted[metric] = true
			_, e2e := findSpec(endToEndMetrics, metric)
			_, layer := findSpec(perLayerMetrics, metric)
			if !e2e && !layer {
				t.Errorf("%s emits %q, which BENCHMARK.json does not name", name, metric)
			}
		}
		if traced {
			if info, err := os.Stat(spanFile); err != nil || info.Size() == 0 {
				t.Errorf("%s: span file missing or empty (%v)", name, err)
			}
		}
	}
	for _, w := range workloads {
		run(w.Name, false)
	}
	run("stream-dense", true)
	run("http-durable-mixed", true)
	for _, s := range perLayerMetrics {
		if !emitted[s.Name] {
			t.Errorf("no run emits per-layer metric %q", s.Name)
		}
	}
	live.mu.Lock()
	n := len(live.procs)
	live.mu.Unlock()
	if n != 0 {
		t.Errorf("%d server processes still alive", n)
	}
	if left := leftovers(t); len(left) != 0 {
		t.Errorf("temp entries left behind: %v", left)
	}
}

// TestSilentServerFailsOps points a driver at a listener that accepts
// connections and never answers: the operation must come back as a failed op
// within the deadline instead of hanging.
func TestSilentServerFailsOps(t *testing.T) {
	old := opDeadline
	opDeadline = 200 * time.Millisecond
	defer func() { opDeadline = old }()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held open and silent until the test ends
		}
	}()

	in, err := genInput(httpShelf, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{m: map[string]float64{}}
	d := &httpDriver{e: e, in: in, sess: driverClient("http://" + l.Addr().String()).Session("nobody")}
	p := newPhase("silent", time.Second, 1)
	p.start = time.Now()
	t0 := time.Now()
	d.op(t0, p, p.lanes[0])
	if el := time.Since(t0); el > 2*time.Second {
		t.Errorf("operation against a silent server took %v", el)
	}
	if e.ops.failed.Load() == 0 || p.lanes[0].failed == 0 {
		t.Errorf("silent server produced no failed op (attempted %d)", e.ops.attempted.Load())
	}
}

func TestCompareVerdicts(t *testing.T) {
	// Every gated metric of every workload, five runs each; slower scales what
	// is timed, failed is each run's failed_ops_ratio.
	set := func(slower, failed float64) resultSet {
		var s resultSet
		for _, w := range workloads {
			for i := 0; i < 5; i++ {
				jitter := 1 + 0.002*float64(i)
				m := map[string]float64{}
				for _, spec := range endToEndMetrics {
					switch {
					case !spec.gatedOn(w.Name):
					case spec.Bound == 0:
						m[spec.Name] = failed
					case spec.Better == "higher":
						m[spec.Name] = 1000 * jitter / slower
					default:
						m[spec.Name] = 2 * jitter * slower
					}
				}
				s.Runs = append(s.Runs, runResult{Workload: w.Name, Correct: true, Metrics: m})
			}
		}
		return s
	}
	rows := 0
	for _, w := range workloads {
		for _, spec := range endToEndMetrics {
			if spec.gatedOn(w.Name) {
				rows++
			}
		}
	}
	var out bytes.Buffer
	if code := compareSets(&out, set(1, 0), set(1, 0)); code != 0 || strings.Count(out.String(), " ok (") != rows {
		t.Errorf("A/A comparison: exit %d, want 0 and %d ok rows\n%s", code, rows, out.String())
	}
	out.Reset()
	if code := compareSets(&out, set(1, 0), set(1.5, 0)); code != 1 || strings.Count(out.String(), " worse (") != rows-len(workloads) {
		t.Errorf("comparison against a 50%% slower set: exit %d, want 1 and every timed row worse\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, set(1, 0), set(1, 0.001)); code != 1 || strings.Count(out.String(), " worse (") != len(workloads) {
		t.Errorf("comparison against a set with failed ops: exit %d, want 1 and failed_ops_ratio worse on every workload\n%s", code, out.String())
	}
}

func TestPyQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := pyQuartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

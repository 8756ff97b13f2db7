// Command benchmark is the repository's performance benchmark: four workloads
// over the library and a real rfidserve subprocess, nine end-to-end metrics
// (the four that every workload reports are the ones BENCHMARK.json gates) and,
// in a separate traced pass, about a hundred per-layer metrics measured from
// outside the program. BENCHMARK.json at the repository root names them;
// README.md in this directory says why each workload exists, which layer
// metric should move which end-to-end metric, and how to run, compare and read
// the output.
//
// One workload, as the benchmark driver runs it (run.sh builds and forwards):
//
//	bash benchmark/run.sh --workload stream-dense --seed 3 --seconds 20 --trace 0
//
// Everything, for a person:
//
//	bash benchmark/run.sh -all                 # four workloads, end-to-end metrics
//	bash benchmark/run.sh -all -trace 1        # per-layer pass, span file
//	bash benchmark/run.sh -all -repeat 10 -json A.json
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// runResult is one workload run.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	InputHash string             `json:"input_hash"`
	Metrics   map[string]float64 `json:"metrics"`
	Failures  []string           `json:"failures,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	SpanFile  string             `json:"span_file,omitempty"`
}

// resultSet is what -json writes and -compare reads.
type resultSet struct {
	Context machineContext `json:"context"`
	Runs    []runResult    `json:"runs"`
}

// runOptions are the arguments of one workload run.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// recovery makes http-durable-mixed measure crash recovery and replica
	// catch-up after its timed phases (13 s more on the reference box). The
	// driver's untraced runs leave it out: they print only the metrics every
	// workload reports, and 88 of them must fit the driver's time limit.
	recovery  bool
	serverBin string
	buildS    float64
	spanOut   string // span file path; empty picks one under os.TempDir()
	// scale shrinks object and session counts; 0 means 1. Only the smoke
	// tests set it, so that every workload finishes in about a second.
	scale float64
}

// runWorkload performs one run in a private temp directory and always cleans
// that directory and every server process up.
func runWorkload(o runOptions) (runResult, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return runResult{}, err
	}
	tmp, err := os.MkdirTemp("", "rfidbm-")
	if err != nil {
		return runResult{}, err
	}
	defer os.RemoveAll(tmp)
	e := &env{
		seed: o.seed, seconds: o.seconds, traced: o.traced, recovery: o.recovery, started: time.Now(), nproc: runtime.NumCPU(),
		serverBin: o.serverBin, tmp: tmp, m: map[string]float64{}, scale: o.scale,
	}
	if e.scale == 0 {
		e.scale = 1
	}
	if o.traced {
		e.spans = newSpanLog()
	}
	defer killLiveServers()
	if err := w.Run(e); err != nil {
		return runResult{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	e.set("loadgen.build_s", o.buildS)
	res := runResult{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Attempted: e.ops.attempted.Load(), Failed: e.ops.failed.Load(),
		InputHash: e.hash, Metrics: e.m, Failures: e.ops.first, Notes: e.notes,
	}
	if res.Attempted > 0 {
		e.set("failed_ops_ratio", float64(res.Failed)/float64(res.Attempted))
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, spec := range endToEndMetrics {
		if spec.Bound == 0 || !spec.gatedOn(o.workload) || spec.Recovery && !o.recovery {
			continue
		}
		if v, ok := e.m[spec.Name]; !ok || v <= 0 {
			res.Correct = false
			res.Failures = append(res.Failures, fmt.Sprintf("end-to-end metric %s missing or not positive (%v)", spec.Name, v))
		}
	}
	if e.spans != nil {
		path := o.spanOut
		if path == "" {
			path = filepath.Join(os.TempDir(), fmt.Sprintf("rfidbm-spans-%s-%d.jsonl", o.workload, o.seed))
		}
		if err := e.spans.writeTo(path); err != nil {
			return runResult{}, fmt.Errorf("write spans: %w", err)
		}
		res.SpanFile = path
		res.Notes = append(res.Notes, fmt.Sprintf("spans: %d written to %s (%d dropped)", len(e.spans.spans), path, e.spans.dropped))
	}
	return res, nil
}

// contractLine is the last line of standard output in driver mode.
func contractLine(res runResult) string {
	specs := driverMetrics()
	if res.Traced {
		specs = perLayerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, s := range specs {
		out.Metrics[s.Name] = value{Value: res.Metrics[s.Name], Unit: s.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings
	}
	return string(data)
}

// printReport writes a run's figures for a person.
func printReport(w *os.File, res runResult) {
	mode := "end-to-end"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %.0fs, %s) correct=%v attempted=%d failed=%d inputs=%.12s\n",
		res.Workload, res.Seed, res.Seconds, mode, res.Correct, res.Attempted, res.Failed, res.InputHash)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	units := map[string]string{}
	for _, s := range perLayerMetrics {
		units[s.Name] = s.Unit
	}
	for _, s := range endToEndMetrics {
		if v, ok := res.Metrics[s.Name]; ok {
			fmt.Fprintf(w, "   %-44s %14.4f %s\n", s.Name, v, s.Unit)
		}
	}
	for _, name := range sortedKeys(res.Metrics) {
		if _, e2e := findSpec(endToEndMetrics, name); !e2e {
			fmt.Fprintf(w, "   %-44s %14.4f %s\n", name, res.Metrics[name], units[name])
		}
	}
}

func findSpec(specs []metricSpec, name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}

func currentContext() machineContext {
	tmp := os.TempDir()
	return machineContext{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), TempDir: tmp, TempDirFS: fsOf(tmp),
	}
}

func main() { os.Exit(run()) }

// run is main with an exit code, so that deferred clean-up always happens.
func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the driver's result line (one of the four names)")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", runSeconds, "measuring time of one workload run")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass, per-layer metrics and a span file")
		all          = flag.Bool("all", false, "run all four workloads and print a report")
		repeat       = flag.Int("repeat", 1, "with -all: repeat the set this many times, seeds seed, seed+1, ...")
		jsonOut      = flag.String("json", "", "with -all: also write every run to this file, for -compare")
		spanOut      = flag.String("out", "", "traced pass: span file (JSON lines; with -all, a prefix completed by the workload name); default under the temp directory")
		compare      = flag.Bool("compare", false, "compare two -json result files given as arguments; exit 1 if any metric got worse")
		printSpec    = flag.Bool("spec", false, "print the BENCHMARK.json these metric and workload tables imply, and exit")
	)
	flag.Parse()

	if *printSpec {
		fmt.Println(benchmarkJSON())
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *workloadName == "" && !*all {
		fmt.Fprintln(os.Stderr, "give --workload NAME or -all (see README.md)")
		return 2
	}

	bin, buildS, cleanup, err := serverBinary()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killLiveServers()
		cleanup()
		os.Exit(130)
	}()
	ctx := currentContext()
	fmt.Fprintf(os.Stderr, "machine: nproc=%d GOMAXPROCS=%d %s cpu=%q tmp=%s (%s)\n",
		ctx.NProc, ctx.GOMAXPROCS, ctx.GoVersion, ctx.CPUModel, ctx.TempDir, ctx.TempDirFS)

	if *workloadName != "" {
		res, err := runWorkload(runOptions{
			workload: *workloadName, seed: *seed, seconds: *seconds, traced: *trace == 1, recovery: *trace == 1,
			serverBin: bin, buildS: buildS, spanOut: *spanOut,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printReport(os.Stderr, res)
		fmt.Println(contractLine(res))
		if !res.Correct {
			return 1
		}
		return 0
	}

	set := resultSet{Context: ctx}
	code := 0
	start := time.Now()
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range workloads {
			out := *spanOut
			if out != "" {
				out += "." + w.Name // one span file per workload
			}
			res, err := runWorkload(runOptions{
				workload: w.Name, seed: *seed + int64(rep), seconds: *seconds, traced: *trace == 1, recovery: true,
				serverBin: bin, buildS: buildS, spanOut: out,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				code = 1
				continue
			}
			printReport(os.Stdout, res)
			if !res.Correct {
				code = 1
			}
			set.Runs = append(set.Runs, res)
		}
	}
	fmt.Printf("total %.0fs\n", time.Since(start).Seconds())
	if *jsonOut != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: write results:", err)
			code = 1
		}
	}
	return code
}

// serverBinary builds cmd/rfidserve into a temp directory that cleanup
// removes.
func serverBinary() (bin string, buildS float64, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "rfidbm-bin-")
	if err != nil {
		return "", 0, nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	bin, buildS, err = buildServer(dir)
	if err != nil {
		cleanup()
		return "", 0, nil, err
	}
	return bin, buildS, cleanup, nil
}

// benchmarkJSON renders BENCHMARK.json from the tables in spec.go.
func benchmarkJSON() string {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []namedWhy `json:"workloads"`
		EndToEnd   []gated    `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, namedWhy{w.Name, w.Why})
	}
	for _, s := range driverMetrics() {
		doc.EndToEnd = append(doc.EndToEnd, gated{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayerMetrics {
		doc.PerLayer = append(doc.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // strings and finite numbers
	}
	return string(data)
}

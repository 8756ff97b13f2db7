package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// pyQuartiles returns what Python's statistics.quantiles(values, n=4) does
// (the default "exclusive" method), so the spreads printed here are the ones
// the benchmark driver computes.
func pyQuartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func loadResults(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// valuesOf collects one metric of one workload's untraced runs.
func valuesOf(set resultSet, workload, metric string) []float64 {
	var out []float64
	for _, r := range set.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric gated on it, both
// sets' medians and quartiles, the bound and a verdict: "worse" when B's
// median is worse than A's by more than the bound, "unresolved" when either
// set's interquartile spread is wider than the bound (so the medians cannot
// resolve a change of that size), "ok" otherwise. It returns the process exit
// code: 1 if any row is worse or a run failed, else 0.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b resultSet
		if b, err = loadResults(pathB); err == nil {
			return compareSets(w, a, b)
		}
	}
	fmt.Fprintln(w, "compare:", err)
	return 2
}

func compareSets(w io.Writer, a, b resultSet) int {
	code := 0
	fmt.Fprintf(w, "A: %d runs on %q nproc=%d; B: %d runs on %q nproc=%d\n",
		len(a.Runs), a.Context.CPUModel, a.Context.NProc, len(b.Runs), b.Context.CPUModel, b.Context.NProc)
	for _, set := range []resultSet{a, b} {
		for _, r := range set.Runs {
			if !r.Correct {
				fmt.Fprintf(w, "run %s seed %d is not correct: %v\n", r.Workload, r.Seed, r.Failures)
				code = 1
			}
			if late := r.Metrics["loadgen.late_p95_ms"]; late > maxLateP95MS {
				fmt.Fprintf(w, "run %s seed %d is invalid: its generator started batches %.3f ms late at p95; measure it again\n", r.Workload, r.Seed, late)
			}
		}
	}
	fmt.Fprintf(w, "%-20s %-18s %12s %12s %8s %12s %12s %8s %7s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "A iqr%", "B median", "B q1..q3", "B iqr%", "bound%", "verdict")
	for _, wl := range workloads {
		for _, spec := range endToEndMetrics {
			if !spec.gatedOn(wl.Name) {
				continue
			}
			va, vb := valuesOf(a, wl.Name, spec.Name), valuesOf(b, wl.Name, spec.Name)
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(w, "%-20s %-18s needs at least 2 runs in each set (have %d, %d)\n", wl.Name, spec.Name, len(va), len(vb))
				continue
			}
			a1, a2, a3 := pyQuartiles(va)
			b1, b2, b3 := pyQuartiles(vb)
			verdict, change, spreadA, spreadB := "ok", 0.0, 0.0, 0.0
			if spec.Bound == 0 {
				// An absolute gate on a quantity that reads zero when all is
				// well: any rise is worse.
				if b2 > a2 {
					verdict = "worse"
				}
			} else {
				spreadA, spreadB = (a3-a1)/a2, (b3-b1)/b2
				change = (b2 - a2) / a2 // positive = larger
				if spec.Better == "higher" {
					change = -change
				}
				switch {
				case change > spec.Bound:
					verdict = "worse"
				case spreadA > spec.Bound || spreadB > spec.Bound:
					verdict = "unresolved"
				}
			}
			if verdict == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-20s %-18s %12.4f %5.3g..%-5.3g %7.1f%% %12.4f %5.3g..%-5.3g %7.1f%% %6.0f%%  %s (%+.1f%%)\n",
				wl.Name, spec.Name, a2, a1, a3, spreadA*100, b2, b1, b3, spreadB*100, spec.Bound*100, verdict, change*100)
		}
	}
	return code
}

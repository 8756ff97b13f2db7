// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section V). Each driver builds the required synthetic
// traces, runs the system (and the baselines where the paper does), and
// returns formatted tables whose rows mirror the series the paper reports.
//
// Every driver accepts Options with a Scale knob: 1.0 approximates the
// paper's experiment sizes, while smaller values shrink particle counts,
// object counts and sweep densities so the full suite can run in seconds for
// tests and continuous integration. The shape of the results (who wins,
// roughly by how much, where the curves bend) is preserved across scales.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Options control experiment size and reproducibility.
type Options struct {
	// Scale in (0, 1] scales particle counts, object counts and sweep
	// densities; 1.0 approximates the paper's settings. The default (zero)
	// is treated as 0.25.
	Scale float64
	// Seed seeds all random components.
	Seed int64
}

func (o *Options) applyDefaults() {
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.Scale > 1 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// scaleInt scales a paper-sized integer quantity, keeping at least min.
func (o Options) scaleInt(paper, min int) int {
	v := int(float64(paper) * o.Scale)
	if v < min {
		v = min
	}
	return v
}

// Table is a formatted experiment result whose rows mirror what the paper
// reports for the corresponding figure or table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// f2 formats a float with two decimals; f3 with three.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// warehouseParams returns the inference-model parameters matched to the
// warehouse simulator defaults: the robot advances 0.1 ft per epoch, motion
// and location-sensing noise are small, and the sensor model is a generic
// logistic profile that roughly covers the cone of Fig. 5(a). Experiments
// that calibrate (fig5e) or inject extra noise (fig5g) override the relevant
// parts.
func warehouseParams() model.Params {
	p := model.DefaultParams()
	p.Sensor = sensor.Model{A0: 4.0, A1: -0.8, A2: -0.5, B1: -1.0, B2: -2.0, MaxRange: 3.5}
	p.Motion = model.MotionModel{
		Velocity: geom.Vec3{Y: 0.1},
		Noise:    geom.Vec3{X: 0.02, Y: 0.02, Z: 0.001},
		PhiNoise: 0.005,
	}
	p.Sensing = model.LocationSensingModel{Noise: geom.Vec3{X: 0.02, Y: 0.02, Z: 0.001}}
	p.Object = model.ObjectModel{MoveProb: 1e-5}
	return p
}

// uncalibratedParams returns deliberately uninformative starting parameters
// for the calibration experiments: a wide, nearly angle-insensitive sensor
// model. Starting EM here (rather than from an already-reasonable model)
// reproduces the paper's observation that learning without any shelf tags is
// prone to poor local maxima while a handful of known tags suffices.
func uncalibratedParams() model.Params {
	p := warehouseParams()
	p.Sensor = sensor.Model{A0: 1.0, A1: -0.2, A2: 0, B1: 0, B2: -0.3, MaxRange: 4.0}
	return p
}

// engineVariant names a configuration of the scalability comparison.
type engineVariant struct {
	Name        string
	Factored    bool
	Index       bool
	Compression bool
}

// runResult bundles the outputs of one engine run over one trace.
type runResult struct {
	Events  []stream.Event
	Report  metrics.ErrorReport
	Elapsed time.Duration
	Stats   core.Stats
}

// runEngine builds an engine from the config and runs it over the trace,
// scoring the resulting events against the trace's ground truth. Experiments
// run on one worker so their timings are single-thread numbers comparable to
// the paper's.
func runEngine(trace *sim.Trace, cfg core.Config) (runResult, error) {
	cfg.Workers = 1
	eng, err := core.New(cfg)
	if err != nil {
		return runResult{}, err
	}
	start := time.Now()
	events, err := eng.Run(trace.Epochs)
	if err != nil {
		return runResult{}, err
	}
	elapsed := time.Since(start)
	rep := scoreEvents(events, trace)
	return runResult{Events: events, Report: rep, Elapsed: elapsed, Stats: eng.Stats()}, nil
}

// scoreEvents scores an event stream against a trace's ground truth.
func scoreEvents(events []stream.Event, trace *sim.Trace) metrics.ErrorReport {
	return metrics.ScoreEvents(events, func(id stream.TagID, t int) (geom.Vec3, bool) {
		return trace.Truth.ObjectAt(id, t)
	})
}

// baseEngineConfig returns the engine configuration shared by the sensitivity
// experiments: factored filtering without spatial indexing or compression
// (the small traces do not need them), with particle counts scaled by the
// options.
func baseEngineConfig(opts Options, trace *sim.Trace, params model.Params) core.Config {
	cfg := core.DefaultConfig(params, trace.World)
	cfg.SpatialIndex = false
	cfg.Compression = false
	cfg.NumObjectParticles = opts.scaleInt(1000, 100)
	cfg.NumReaderParticles = opts.scaleInt(100, 30)
	cfg.Seed = opts.Seed
	return cfg
}

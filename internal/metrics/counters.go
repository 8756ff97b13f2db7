package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored to keep the counter monotone).
func (c *Counter) Add(n int) {
	if n > 0 {
		c.v.Add(int64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float-valued gauge, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Set is a named collection of counters and gauges that a serving process
// exposes on its /metrics endpoint. Names follow the Prometheus convention
// (snake_case, counters suffixed _total); registration is idempotent so
// independent components can share a Set.
//
// A name may carry a label set in the Prometheus series syntax, e.g.
// `rfidserve_epochs_total{session="s1"}`; series sharing a base name are
// grouped under one HELP/TYPE header in the exposition, which is how the
// multi-session serving layer keeps per-session metrics in a single Set.
type Set struct {
	mu       sync.Mutex
	counters map[string]*Counter
	floats   map[string]*FloatCounter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
}

// NewSet returns an empty metric set.
func NewSet() *Set {
	return &Set{
		counters: make(map[string]*Counter),
		floats:   make(map[string]*FloatCounter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// Counter returns the counter registered under name, creating it (with the
// given help text) on first use.
func (s *Set) Counter(name, help string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{}
		s.counters[name] = c
		s.help[name] = help
	}
	return c
}

// Gauge returns the gauge registered under name, creating it (with the
// given help text) on first use.
func (s *Set) Gauge(name, help string) *Gauge {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{}
		s.gauges[name] = g
		s.help[name] = help
	}
	return g
}

// FloatCounter returns the float counter registered under name, creating it
// (with the given help text) on first use.
func (s *Set) FloatCounter(name, help string) *FloatCounter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.floats[name]
	if !ok {
		c = &FloatCounter{}
		s.floats[name] = c
		s.help[name] = help
	}
	return c
}

// Histogram returns the histogram registered under name, creating it (with
// the given help text) on first use. The name may carry a label set exactly
// like Counter/Gauge names; the exposition merges those labels with the
// per-bucket `le` label.
func (s *Set) Histogram(name, help string) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{}
		s.hists[name] = h
		s.help[name] = help
	}
	return h
}

// Snapshot returns the current value of every registered metric keyed by
// name. Histograms contribute two entries per series: `name_sum` and
// `name_count` (with any label set preserved, e.g.
// `h_sum{session="s1"}`).
func (s *Set) Snapshot() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64, len(s.counters)+len(s.floats)+len(s.gauges)+2*len(s.hists))
	for name, c := range s.counters {
		out[name] = float64(c.Value())
	}
	for name, c := range s.floats {
		out[name] = c.Value()
	}
	for name, g := range s.gauges {
		out[name] = g.Value()
	}
	for name, h := range s.hists {
		snap := h.Snapshot()
		out[suffixSeries(name, "_sum")] = snap.Sum
		out[suffixSeries(name, "_count")] = float64(snap.Count)
	}
	return out
}

// WriteProm writes the set in the Prometheus text exposition format, metrics
// sorted by name. Histogram series expand into the standard
// `_bucket{le="..."}` (cumulative), `_sum` and `_count` rows; a series label
// set merges with the `le` label inside one brace set.
func (s *Set) WriteProm(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.counters)+len(s.floats)+len(s.gauges)+len(s.hists))
	for name := range s.counters {
		names = append(names, name)
	}
	for name := range s.floats {
		names = append(names, name)
	}
	for name := range s.gauges {
		names = append(names, name)
	}
	for name := range s.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	// Labelled series of one base name sort adjacently (the bare name first,
	// `name{...}` series after it), so HELP/TYPE headers are emitted exactly
	// once per base name, at its first series.
	lastBase := ""
	for _, name := range names {
		base := BaseName(name)
		if base != lastBase {
			lastBase = base
			if help := s.help[name]; help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, help); err != nil {
					return err
				}
			}
			kind := "gauge"
			if _, ok := s.counters[name]; ok {
				kind = "counter"
			} else if _, ok := s.floats[name]; ok {
				kind = "counter"
			} else if _, ok := s.hists[name]; ok {
				kind = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind); err != nil {
				return err
			}
		}
		if c, ok := s.counters[name]; ok {
			if _, err := fmt.Fprintf(w, "%s %d\n", name, c.Value()); err != nil {
				return err
			}
			continue
		}
		if c, ok := s.floats[name]; ok {
			if _, err := fmt.Fprintf(w, "%s %g\n", name, c.Value()); err != nil {
				return err
			}
			continue
		}
		if h, ok := s.hists[name]; ok {
			if err := writePromHistogram(w, name, h.Snapshot()); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", name, s.gauges[name].Value()); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram writes one histogram series' bucket/sum/count rows.
// Bucket counts are cumulative per the exposition format; the +Inf bucket
// always equals _count.
func writePromHistogram(w io.Writer, series string, snap HistogramSnapshot) error {
	base, labels := splitSeries(series)
	cum := uint64(0)
	for i := range histBounds {
		cum += snap.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", base, labels, histLabels[i], cum); err != nil {
			return err
		}
	}
	cum += snap.Counts[HistBuckets]
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %g\n", suffixSeries(series, "_sum"), snap.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", suffixSeries(series, "_count"), snap.Count)
	return err
}

// splitSeries splits a series name into its base name and a label prefix
// ready to merge with more labels: `h{session="s1"}` -> (`h`,
// `session="s1",`); a bare name yields an empty prefix.
func splitSeries(series string) (base, labelPrefix string) {
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return series, ""
	}
	inner := strings.TrimSuffix(series[i+1:], "}")
	if inner == "" {
		return series[:i], ""
	}
	return series[:i], inner + ","
}

// suffixSeries inserts a suffix before a series' label set:
// `h{session="s1"}` + `_sum` -> `h_sum{session="s1"}`.
func suffixSeries(series, suffix string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i] + suffix + series[i:]
	}
	return series + suffix
}

// BaseName strips a series name's label set: `name{session="s1"}` -> `name`.
func BaseName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// DropSeries removes every series whose name carries the given suffix (e.g. a
// session's `{session="s1"}` label). The owner of a retiring label set calls
// this so stale series stop being exposed and a later re-registration under
// the same name starts from zero instead of inheriting the dead series'
// values.
func (s *Set) DropSeries(suffix string) {
	if suffix == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name := range s.counters {
		if strings.HasSuffix(name, suffix) {
			delete(s.counters, name)
			delete(s.help, name)
		}
	}
	for name := range s.floats {
		if strings.HasSuffix(name, suffix) {
			delete(s.floats, name)
			delete(s.help, name)
		}
	}
	for name := range s.gauges {
		if strings.HasSuffix(name, suffix) {
			delete(s.gauges, name)
			delete(s.help, name)
		}
	}
	for name := range s.hists {
		if strings.HasSuffix(name, suffix) {
			delete(s.hists, name)
			delete(s.help, name)
		}
	}
}

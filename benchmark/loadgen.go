package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxLateP95MS is how late the generator may start its batches, at p95 over a
// paced phase, before the run is invalid: its latencies would then measure the
// generator (or an offered load the drivers' single connections cannot carry),
// not the server. An invalid run is marked in its report and by -compare; it
// is not a failed op, because on a shared machine it is the neighbours that
// deschedule the generator, not the program that fails.
const maxLateP95MS = 1.0

// opDeadline bounds every single wait the load generator makes: a request, a
// long poll, an ack. Past it the operation is a failed op, never a hang. It is
// long because the reference box at times runs six times slower than usual
// (two thirds of its CPU time stolen) and a wait that merely took long is not
// a failure of the program. It is a variable only so that the dead-server test
// need not wait for it.
var opDeadline = 30 * time.Second

// settleDeadline bounds the waits for a whole server to reach a state: every
// session of a restarted server serving again, a fresh replica converged.
const settleDeadline = 60 * time.Second

// runBudget is how long a run may have taken before it stops repeating its
// optional measurements (restarts and replicas beyond the first), so that a
// run on a slowed machine still ends within the driver's limit for one run.
const runBudget = 90 * time.Second

// phaseWindows is how many equal windows a timed phase is cut into. A rate
// metric is the median window's rate and a latency metric the median of the
// per-window quantiles; one disturbed window on a shared machine then moves
// neither.
const phaseWindows = 5

// opCounter counts operations attempted and failed across all drivers and
// checks, and keeps the first few failure messages for the report.
type opCounter struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	first     []string
}

func (c *opCounter) attempt() { c.attempted.Add(1) }

// fail records one failed operation of the given kind.
func (c *opCounter) fail(kind string, err error) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.first) < 8 {
		c.first = append(c.first, fmt.Sprintf("%s: %v", kind, err))
	}
	c.mu.Unlock()
}

// check records one correctness check; a false check is a failed op.
func (c *opCounter) check(name string, ok bool, detail string) {
	c.attempt()
	if !ok {
		c.fail("check "+name, fmt.Errorf("%s", detail))
	}
}

// timed is one observation at an offset from its phase's start.
type timed struct {
	at time.Duration
	v  float64
}

// lane is one driver's observations during one phase. Only that driver (or,
// for stream acks, the ingester's reader goroutine under the driver's mutex)
// appends to it.
type lane struct {
	ack     []timed // ms, batch due -> acknowledged
	result  []timed // ms, batch due -> its epoch's first query row delivered
	read    []timed // ms, one snapshot GET
	late    []timed // ms, batch due -> generator actually started sending
	applied []timed // readings acknowledged as applied
	sent    int
	failed  int
}

// phase is one timed stretch of a workload: saturate, or paced at one rate.
type phase struct {
	name  string
	start time.Time
	dur   time.Duration
	lanes []*lane
}

func newPhase(name string, dur time.Duration, drivers int) *phase {
	p := &phase{name: name, dur: dur, lanes: make([]*lane, drivers)}
	for i := range p.lanes {
		p.lanes[i] = &lane{}
	}
	return p
}

// since is the offset of now from the phase start.
func (p *phase) since() time.Duration { return time.Since(p.start) }

func (p *phase) merged(sel func(*lane) []timed) []timed {
	var out []timed
	for _, l := range p.lanes {
		out = append(out, sel(l)...)
	}
	return out
}

// spread is the median, minimum and maximum of a per-window statistic, and
// how many observations fed it.
type spread struct {
	median, min, max float64
	samples          int
	each             []float64 // the per-window values, in time order
}

// windowRate is the per-window sum of the selected observations divided by
// the window length, over the phase's windows.
func (p *phase) windowRate(sel func(*lane) []timed) spread {
	sums := make([]float64, phaseWindows)
	n := 0
	w := p.dur / phaseWindows
	for _, s := range p.merged(sel) {
		if s.at < 0 || s.at >= p.dur {
			continue
		}
		sums[int(s.at/w)] += s.v
		n++
	}
	for i := range sums {
		sums[i] /= w.Seconds()
	}
	return spreadOf(sums, n)
}

// windowQuantile is the q-quantile of the selected observations taken per
// window, over the windows that saw any.
func (p *phase) windowQuantile(sel func(*lane) []timed, q float64) spread {
	buckets := make([][]float64, phaseWindows)
	n := 0
	w := p.dur / phaseWindows
	for _, s := range p.merged(sel) {
		if s.at < 0 || s.at >= p.dur {
			continue
		}
		i := int(s.at / w)
		buckets[i] = append(buckets[i], s.v)
		n++
	}
	var qs []float64
	for _, b := range buckets {
		if len(b) > 0 {
			qs = append(qs, quantile(b, q))
		}
	}
	return spreadOf(qs, n)
}

// all is the q-quantile over the whole phase, for tail figures (p99, max)
// that a single window cannot support.
func (p *phase) all(sel func(*lane) []timed, q float64) float64 {
	var vs []float64
	for _, s := range p.merged(sel) {
		vs = append(vs, s.v)
	}
	if len(vs) == 0 {
		return 0
	}
	return quantile(vs, q)
}

func (p *phase) sent() (sent, failed int) {
	for _, l := range p.lanes {
		sent += l.sent
		failed += l.failed
	}
	return sent, failed
}

func spreadOf(vs []float64, samples int) spread {
	if len(vs) == 0 {
		return spread{}
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return spread{median: quantile(sorted, 0.5), min: sorted[0], max: sorted[len(sorted)-1], samples: samples, each: vs}
}

// quantile is the linearly interpolated q-quantile of vs (sorted in place).
func quantile(vs []float64, q float64) float64 {
	sort.Float64s(vs)
	if len(vs) == 1 {
		return vs[0]
	}
	pos := q * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return quantile(append([]float64(nil), vs...), 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spinLead is how long before a deadline sleepUntil stops sleeping and spins.
const spinLead = 500 * time.Microsecond

// sleepUntil blocks the calling thread in nanosleep(2) until shortly before
// the deadline and spins for the rest. time.Sleep will not do: the runtime's
// timers wake through epoll_wait, whose timeout has millisecond resolution,
// and on the reference box that alone made the generator 0.6 ms late at the
// median and 1.1 ms at p95. nanosleep wakes within 0.3 ms at p95 on an idle
// box and within about 1 ms beside a busy server; the spin takes the first
// half millisecond of that off, at the cost of a tenth of a core at the paced
// rates used here.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t) - spinLead
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps for what is left
	}
	for time.Now().Before(t) {
	}
}

// runDrivers runs fn once per driver concurrently and waits for all of them.
func runDrivers(n int, fn func(driver int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// closedLoop calls op back to back until the phase's time is up. op reports
// false to stop early (inputs exhausted).
func closedLoop(p *phase, op func(due time.Time) bool) {
	end := p.start.Add(p.dur)
	for {
		now := time.Now()
		if !now.Before(end) || !op(now) {
			return
		}
	}
}

// openLoop calls op on a fixed schedule of rate per second regardless of how
// long earlier calls took, and hands each call the instant it was due, so a
// batch that had to queue behind a slow one is timed with its wait. What is
// recorded on the lane as lateness is the generator's own: how long after a
// batch was due, and the driver free to send it, the call started. offset, a
// share of the interval, shifts the whole schedule, so that several drivers
// interleave their batches instead of sending them in the same instant.
func openLoop(p *phase, l *lane, rate, offset float64, op func(due time.Time) bool) {
	interval := time.Duration(float64(time.Second) / rate)
	first := p.start.Add(time.Duration(offset * float64(interval)))
	free := p.start
	for k := 0; ; k++ {
		due := first.Add(time.Duration(k) * interval)
		if due.Sub(p.start) >= p.dur {
			return
		}
		sleepUntil(due)
		ready := due
		if free.After(ready) {
			ready = free
		}
		l.late = append(l.late, timed{at: due.Sub(p.start), v: ms(time.Since(ready))})
		if !op(due) {
			return
		}
		free = time.Now()
	}
}

// machineContext describes where a result was measured.
type machineContext struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	TempDir    string `json:"temp_dir"`
	TempDirFS  string `json:"temp_dir_fs"`
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// fsOf names the filesystem type holding dir, from /proc/mounts (the longest
// mount point that prefixes dir).
func fsOf(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

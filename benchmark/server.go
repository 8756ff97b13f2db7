package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/rfid/client"
)

// buildServer compiles cmd/rfidserve into dir and reports how long that took.
// The benchmark always drives a real server process, never the in-process
// handler, so that the numbers include everything a deployment pays.
func buildServer(dir string) (bin string, seconds float64, err error) {
	bin = filepath.Join(dir, "rfidserve")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/rfidserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build repro/cmd/rfidserve: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// live is every server process started and not yet reaped, so that an
// interrupt or an early return can never leave one behind.
var live = struct {
	mu    sync.Mutex
	procs map[*serverProc]struct{}
}{procs: map[*serverProc]struct{}{}}

// killLiveServers kills and reaps every server still running.
func killLiveServers() {
	live.mu.Lock()
	procs := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// serverProc is one running rfidserve subprocess on a loopback port.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	hostPt string // 127.0.0.1:port
	stderr bytes.Buffer
	bootS  float64
	waited chan struct{}
}

// freePort asks the kernel for an unused loopback port. The port is released
// before the server binds it; startServer retries if something else wins the
// race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin with the given flags (plus -addr) and waits until
// /v1/healthz answers "serving". Boot time is exec -> serving.
func startServer(bin string, args ...string) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		p := &serverProc{hostPt: fmt.Sprintf("127.0.0.1:%d", port), waited: make(chan struct{})}
		p.base = "http://" + p.hostPt
		p.cmd = exec.Command(bin, append([]string{"-addr", p.hostPt, "-log-level", "warn"}, args...)...)
		p.cmd.Stderr = &p.stderr
		t0 := time.Now()
		if err := p.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		live.mu.Lock()
		live.procs[p] = struct{}{}
		live.mu.Unlock()
		go func() {
			_ = p.cmd.Wait() // exit status is irrelevant: the process is killed or signalled
			live.mu.Lock()
			delete(live.procs, p)
			live.mu.Unlock()
			close(p.waited)
		}()
		if err := p.waitServing(opDeadline); err != nil {
			lastErr = fmt.Errorf("%w; stderr: %s", err, tail(p.stderr.String(), 400))
			p.kill()
			continue
		}
		p.bootS = time.Since(t0).Seconds()
		return p, nil
	}
	return nil, lastErr
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// waitServing polls healthz until the server (and every recovering session
// behind it) reports serving, the process dies, or the deadline passes.
func (p *serverProc) waitServing(deadline time.Duration) error {
	c := client.New(p.base)
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		select {
		case <-p.waited:
			return fmt.Errorf("server exited during boot")
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		h, err := c.Health(ctx)
		cancel()
		if err == nil && h.State == "serving" {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not serving within %v", deadline)
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *serverProc) kill() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.waited
}

// cpuSeconds is the server's user+system CPU time so far, from /proc.
func (p *serverProc) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz on Linux).
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// peakRSSMB is the server's high-water resident set, from /proc.
func (p *serverProc) peakRSSMB() float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// scrape is one reading of /v1/metrics in the Prometheus text format (the
// JSON form omits histogram buckets): series name with labels -> value.
type scrape map[string]float64

func (p *serverProc) scrape() (scrape, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("scrape metrics: http %d: %s", resp.StatusCode, body)
	}
	m := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read metrics: %w", err)
	}
	return m, nil
}

// sum adds every series of one family across sessions (series are
// "name{labels}" or bare "name").
func (s scrape) sum(family string) float64 {
	total := 0.0
	for series, v := range s {
		if series == family || strings.HasPrefix(series, family+"{") {
			total += v
		}
	}
	return total
}

// max is the largest value of one family across sessions.
func (s scrape) max(family string) float64 {
	m := 0.0
	for series, v := range s {
		if series == family || strings.HasPrefix(series, family+"{") {
			m = math.Max(m, v)
		}
	}
	return m
}

// stage sums one epoch stage's cumulative seconds across sessions.
func (s scrape) stage(name string) float64 {
	total := 0.0
	prefix := fmt.Sprintf(`rfidserve_epoch_stage_seconds_total{stage=%q`, name)
	for series, v := range s {
		if strings.HasPrefix(series, prefix) {
			total += v
		}
	}
	return total
}

// histogram is a family's cumulative bucket counts summed across sessions.
type histogram struct {
	le    []float64 // upper bounds, ascending; +Inf last
	count []float64 // cumulative
}

// hist collects family_bucket{...le="x"} series.
func (s scrape) hist(family string) histogram {
	byLE := map[float64]float64{}
	prefix := family + "_bucket{"
	for series, v := range s {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		i := strings.Index(series, `le="`)
		if i < 0 {
			continue
		}
		rest := series[i+4:]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			continue
		}
		le, err := strconv.ParseFloat(rest[:j], 64) // "+Inf" parses
		if err != nil {
			continue
		}
		byLE[le] += v
	}
	var h histogram
	for le := range byLE {
		h.le = append(h.le, le)
	}
	sort.Float64s(h.le)
	for _, le := range h.le {
		h.count = append(h.count, byLE[le])
	}
	return h
}

// sub is the histogram of what was observed between two scrapes.
func (h histogram) sub(before histogram) histogram {
	if len(before.le) != len(h.le) {
		return h
	}
	out := histogram{le: h.le, count: make([]float64, len(h.count))}
	for i := range h.count {
		out.count[i] = h.count[i] - before.count[i]
	}
	return out
}

func (h histogram) total() float64 {
	if len(h.count) == 0 {
		return 0
	}
	return h.count[len(h.count)-1]
}

// quantileMS interpolates the q-quantile inside its bucket, in milliseconds;
// 0 when the histogram is empty.
func (h histogram) quantileMS(q float64) float64 {
	n := h.total()
	if n == 0 {
		return 0
	}
	rank := q * n
	prevLE, prevCount := 0.0, 0.0
	for i, c := range h.count {
		if c >= rank {
			le := h.le[i]
			if math.IsInf(le, 1) {
				return prevLE * 1e3
			}
			frac := 1.0
			if c > prevCount {
				frac = (rank - prevCount) / (c - prevCount)
			}
			return (prevLE + (le-prevLE)*frac) * 1e3
		}
		prevLE, prevCount = h.le[i], c
	}
	return prevLE * 1e3
}

// maxMS is the upper bound of the highest occupied bucket, in milliseconds.
func (h histogram) maxMS() float64 {
	prev := 0.0
	top := 0.0
	lastFinite := 0.0
	for i, c := range h.count {
		if !math.IsInf(h.le[i], 1) {
			lastFinite = h.le[i]
		}
		if c > prev {
			top = lastFinite
		}
		prev = c
	}
	return top * 1e3
}

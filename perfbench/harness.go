package main

import (
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opCtl
)

// meter is one session's client-side record of a phase: ops attempted
// and failed, and client-timed read and write latencies, kept per
// window of the phase.
type meter struct {
	rec   *recorder
	start time.Time // the phase's start; zero: keep no windows
	ops   int64
	fails int64
	wins  []window
}

// windowLen is the length of the slices a phase's timings are kept in.
// The end-to-end figures are medians over a phase's windows: a burst of
// contention on the host moves a few windows, not the median. One
// second holds at least thousands of reads and writes on every
// workload, enough for a p99 per window.
const windowLen = time.Second

// window is the record of the ops that completed in one windowLen slice
// of a phase: how many, and the read and write latencies.
type window struct {
	ops int64
	lat [2]hist // [opRead|opWrite] latencies
}

func (w *window) merge(o *window) {
	w.ops += o.ops
	for k := range w.lat {
		w.lat[k].merge(&o.lat[k])
	}
}

// hist is a log-linear latency histogram in ns: exact below 128 ns,
// then 64 buckets per power of two (under 1.6% apart), up to about an
// hour. Its size is fixed, so recording latencies allocates nothing and
// the run's memory does not grow with its length.
type hist struct {
	n      int64
	counts [36 * 64]uint32
}

func bucket(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 128 {
		return int(v)
	}
	shift := bits.Len64(v) - 7
	return min(shift*64+int(v>>shift), len(hist{}.counts)-1)
}

// bucketBounds is the range [lo, hi) of values bucket i holds.
func bucketBounds(i int) (lo, hi float64) {
	if i < 128 {
		return float64(i), float64(i + 1)
	}
	shift := i/64 - 1
	l := uint64(i%64+64) << shift
	return float64(l), float64(l + uint64(1)<<shift)
}

func (h *hist) add(ns int64) {
	h.n++
	h.counts[bucket(ns)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile is the q-quantile of the recorded values, interpolated
// linearly within the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(q*float64(h.n), 0.5)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	_, hi := bucketBounds(len(h.counts) - 1)
	return hi
}

// done records one op issued at t0 in the window it completed in. A
// failed op counts as attempted and failed and has no latency sample.
func (m *meter) done(k opKind, t0 time.Time, err error) {
	m.ops++
	t1 := time.Now()
	var w *window
	if !m.start.IsZero() {
		i := int(t1.Sub(m.start) / windowLen)
		for len(m.wins) <= i {
			m.wins = append(m.wins, window{})
		}
		w = &m.wins[i]
		w.ops++
	}
	if err != nil {
		m.fails++
		return
	}
	if k == opCtl {
		return
	}
	if w != nil {
		w.lat[k].add(int64(t1.Sub(t0)))
	}
	if m.rec != nil {
		name := "client.read"
		if k == opWrite {
			name = "client.write"
		}
		id := m.rec.newID()
		m.rec.add(Span{Req: id, ID: id, Name: name,
			Start: int64(t0.Sub(m.rec.epoch)), End: int64(t1.Sub(m.rec.epoch))})
	}
}

// session is one closed-loop client: step issues its next op, waits for
// the reply, checks it against the reference model and records it in m.
// A returned error ends the run: a mismatch, a broken connection, or a
// harness fault. Ops the program fails are recorded in m, not returned.
type session interface {
	step(m *meter) error
}

func asSessions[S session](ss []S) []session {
	out := make([]session, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// fatal drops the op failures a meter already counted and keeps the
// errors that end a run.
func fatal(err error) error {
	if err == nil || opFailed(err) {
		return nil
	}
	return err
}

// phase is the merged record of every session over one timed phase.
// wins holds its whole windows only; at and cpu hold the time and the
// process CPU time at each window boundary.
type phase struct {
	elapsed time.Duration
	ops     int64
	fails   int64
	wins    []window
	at      []time.Time
	cpu     []time.Duration
}

func (p *phase) merge(m *meter) {
	p.ops += m.ops
	p.fails += m.fails
	for i := range m.wins {
		if i < len(p.wins) {
			p.wins[i].merge(&m.wins[i])
		}
	}
}

// runPhase runs every session on its own goroutine for d (or, with
// limit > 0, for limit ops per session) and merges their meters. In a
// process at one P it rotates the process over the CPUs meanwhile.
func runPhase(ss []session, d time.Duration, limit int64, rec *recorder) (*phase, error) {
	cpu := []time.Duration{cpuTime()}
	start := time.Now()
	at := []time.Time{start}
	deadline := start.Add(d)
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(windowLen)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				at, cpu = append(at, now), append(cpu, cpuTime())
			case <-stop:
				return
			}
		}
	}()
	rotated := make(chan struct{})
	go func() {
		defer close(rotated)
		rotateCPUs(100*time.Millisecond, stop)
	}()
	meters := make([]*meter, len(ss))
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for i, s := range ss {
		m := &meter{rec: rec, start: start}
		meters[i] = m
		wg.Add(1)
		go func(s session) {
			defer wg.Done()
			for (limit > 0 && m.ops < limit) || (limit == 0 && time.Now().Before(deadline)) {
				if err := s.step(m); err != nil {
					errs[i] = err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	<-sampled
	<-rotated
	p := &phase{elapsed: time.Since(start)}
	n := min(int(p.elapsed/windowLen), len(cpu)-1)
	p.wins, p.at, p.cpu = make([]window, n), at[:n+1], cpu[:n+1]
	for i, m := range meters {
		if errs[i] != nil {
			return nil, errs[i]
		}
		p.merge(m)
	}
	return p, nil
}

// runInline runs the sessions round-robin on the calling goroutine for
// d (or, with limit > 0, for limit ops per session): the wire-less pass,
// where one goroutine drives the kernel.
func runInline(ss []session, d time.Duration, limit int64) (*phase, error) {
	start := time.Now()
	deadline := start.Add(d)
	meters := make([]*meter, len(ss))
	for i := range ss {
		meters[i] = new(meter)
	}
	for (limit > 0 && meters[0].ops < limit) || (limit == 0 && time.Now().Before(deadline)) {
		for i, s := range ss {
			if err := s.step(meters[i]); err != nil {
				return nil, err
			}
		}
	}
	p := &phase{elapsed: time.Since(start)}
	for _, m := range meters {
		p.merge(m)
	}
	return p, nil
}

// windowRate is the median over the phase's windows of the ops
// completed per second.
func (p *phase) windowRate() float64 {
	return p.perWindow(func(w *window, wall, _ time.Duration) float64 { return float64(w.ops) / wall.Seconds() })
}

// latency is the median over the phase's windows of the q-quantile of
// kind k's latencies, in µs.
func (p *phase) latency(k opKind, q float64) float64 {
	return p.perWindow(func(w *window, _, _ time.Duration) float64 { return w.lat[k].quantile(q) / 1e3 })
}

// cpuPerOp is the median over the phase's windows of the process's CPU
// time per op, in µs.
func (p *phase) cpuPerOp() float64 {
	return p.perWindow(func(w *window, _, cpu time.Duration) float64 {
		return ratio(float64(cpu.Nanoseconds())/1e3, float64(w.ops))
	})
}

// samples is the number of kind k latencies the phase's windows hold.
func (p *phase) samples(k opKind) int {
	n := int64(0)
	for i := range p.wins {
		n += p.wins[i].lat[k].n
	}
	return int(n)
}

// perWindow is the median of f over the phase's windows, given each
// window, its wall time and the CPU time the process spent in it.
func (p *phase) perWindow(f func(w *window, wall, cpu time.Duration) float64) float64 {
	xs := make([]float64, len(p.wins))
	for i := range p.wins {
		xs[i] = f(&p.wins[i], p.at[i+1].Sub(p.at[i]), p.cpu[i+1]-p.cpu[i])
	}
	return median(xs)
}

// histOf records xs in a new histogram.
func histOf(xs []int64) *hist {
	h := new(hist)
	for _, x := range xs {
		h.add(x)
	}
	return h
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// syscalls is the process's read plus write syscall count from
// /proc/self/io (0 where the file is missing).
func syscalls() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var n int64
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && (k == "syscr" || k == "syscw") {
			x, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			n += x
		}
	}
	return n
}

// peakRSSMB is VmHWM from /proc/self/status, in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// procCounters are the process-wide counters the traced phase is
// charged with.
type procCounters struct {
	syscalls int64
	mallocs  uint64
}

func readProc() procCounters {
	return procCounters{syscalls: syscalls(), mallocs: mallocs()}
}

func (a procCounters) sub(b procCounters) procCounters {
	return procCounters{a.syscalls - b.syscalls, a.mallocs - b.mallocs}
}

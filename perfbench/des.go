package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/expt"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fig5Specs are the simulations expt.Fig5 runs, in its order: for each
// mix and cache size, the original kernel (oblivious apps, global LRU)
// then LRU-SP (smart apps). Submitted first, they are the jobs Fig5
// then finds in the runner's memo.
func fig5Specs() []expt.RunSpec {
	mix := func(names []string, mode workload.Mode) []expt.AppSpec {
		out := make([]expt.AppSpec, len(names))
		for i, n := range names {
			out[i] = expt.AppSpec{Name: n, Make: expt.Registry[n], Mode: mode}
		}
		return out
	}
	var specs []expt.RunSpec
	for _, m := range expt.Fig5Mixes {
		for _, mb := range expt.Sizes {
			specs = append(specs,
				expt.RunSpec{Apps: mix(m, workload.Oblivious), CacheMB: mb, Alloc: cache.GlobalLRU},
				expt.RunSpec{Apps: mix(m, workload.Smart), CacheMB: mb, Alloc: cache.LRUSP})
		}
	}
	return specs
}

// desJob is one simulation of an iteration, timed from outside: from
// the runner building its first app to its result being ready.
type desJob struct {
	start, end time.Time
	accesses   int64
	ios        int64
}

// desIter is one execution of Figure 5.
type desIter struct {
	wall   time.Duration
	cpu    time.Duration // process CPU time
	jobs   []desJob
	table  []byte
	kernel stats.Snapshot
}

// runFig5 runs Figure 5 once on a fresh runner of width nproc.
func runFig5(nproc int) (*desIter, error) {
	specs := fig5Specs()
	r := expt.NewRunner(nproc)
	it := &desIter{jobs: make([]desJob, len(specs))}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, sp := range specs {
		apps := append([]expt.AppSpec(nil), sp.Apps...)
		mk := apps[0].Make
		apps[0].Make = func() workload.App {
			it.jobs[i].start = time.Now()
			return mk()
		}
		sp.Apps = apps
		f := r.Submit(sp)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := f.Wait()
			it.jobs[i].end = time.Now()
			it.jobs[i].accesses = res.CacheStats.Hits + res.CacheStats.Misses
			it.jobs[i].ios = res.TotalIOs
		}()
	}
	var buf bytes.Buffer
	for _, t := range expt.Fig5(r, nil) {
		t.Render(&buf)
	}
	wg.Wait()
	it.wall = time.Since(t0)
	if st := r.Stats(); st.Executed != int64(len(specs)) {
		return nil, fmt.Errorf("fig5 ran %d simulations, want %d (its specs no longer match)", st.Executed, len(specs))
	}
	it.table = buf.Bytes()
	it.kernel = r.KernelSnapshot()
	return it, nil
}

func goldenPaths(root string) (table, counters string) {
	dir := filepath.Join(root, "perfbench", "golden")
	return filepath.Join(dir, "fig5.txt"), filepath.Join(dir, "fig5_counters.json")
}

func countersJSON(s stats.Snapshot) ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	return append(b, '\n'), err
}

// checkGolden compares an iteration's table and kernel counters with
// the golden copies byte for byte.
func checkGolden(root string, it *desIter) error {
	tp, cp := goldenPaths(root)
	want, err := os.ReadFile(tp)
	if err != nil {
		return err
	}
	if !bytes.Equal(it.table, want) {
		return mismatchf("fig5 table differs from %s", tp)
	}
	got, err := countersJSON(it.kernel)
	if err != nil {
		return err
	}
	if want, err = os.ReadFile(cp); err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return mismatchf("fig5 kernel counters differ from %s", cp)
	}
	return nil
}

func writeGolden(root string) error {
	it, err := runFig5(runtime.NumCPU())
	if err != nil {
		return err
	}
	tp, cp := goldenPaths(root)
	if err := os.WriteFile(tp, it.table, 0o644); err != nil {
		return err
	}
	c, err := countersJSON(it.kernel)
	if err != nil {
		return err
	}
	return os.WriteFile(cp, c, 0o644)
}

// runDES runs Figure 5 again and again for the run's seconds. It uses
// the paper's fixed inputs, so the seed changes nothing.
func runDES(o opts) (*result, error) {
	res := newResult()
	nproc := runtime.NumCPU()
	specs := fig5Specs()
	h := sha256.New()
	for _, sp := range specs {
		fmt.Fprintf(h, "%v %g %s\n", appNames(sp.Apps), sp.CacheMB, sp.Alloc)
	}
	res.prov["input_sha256"] = hex.EncodeToString(h.Sum(nil))
	res.prov["des"] = map[string]any{"figure": "fig5", "jobs": len(specs), "parallel": nproc}

	// Set-up: one warm-up simulation, so the first measured iteration
	// does not pay for lazily built state.
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		expt.Run(specs[0])
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups))
	res.samples["setup_s"] = len(setups)

	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		its, err := desPhase(o.root, nproc, d)
		if err != nil {
			return res, err
		}
		desEndToEnd(its, res)
		res.set("peak_rss_mb", peakRSSMB())
		return res, nil
	}
	itsU, err := desPhase(o.root, nproc, d/2)
	if err != nil {
		return res, err
	}
	itsT, err := desPhase(o.root, nproc, d/2)
	if err != nil {
		return res, err
	}
	rec := newRecorder()
	var wall, busyNs time.Duration
	var jobsNs []int64
	var sim stats.Snapshot
	for n, it := range itsT {
		iter := rec.newID()
		for _, j := range it.jobs {
			rec.add(Span{Req: iter, ID: rec.newID(), Parent: iter, Name: "expt.job",
				Start: int64(j.start.Sub(rec.epoch)), End: int64(j.end.Sub(rec.epoch))})
			busyNs += j.end.Sub(j.start)
			jobsNs = append(jobsNs, int64(j.end.Sub(j.start)))
		}
		wall += it.wall
		if n == 0 {
			sim = it.kernel
		}
	}
	if err := writeSpans(o, rec); err != nil {
		return res, err
	}
	attempted, _ := desOps(itsU...)
	ops, _ := desOps(itsT...)
	res.attempted = attempted + ops
	s := sim.Sim
	res.set("sim.events_per_s", ratio(float64(s.EventsScheduled)*float64(len(itsT)), busyNs.Seconds()))
	res.set("sim.fastpath_ratio", ratio(float64(s.FastAdvances), float64(s.FastAdvances+s.Handoffs)))
	res.set("sim.handoffs", float64(s.Handoffs))
	res.set("expt.run_p50_ms", histOf(jobsNs).quantile(0.5)/1e6)
	res.set("expt.run_max_ms", float64(slices.Max(jobsNs))/1e6)
	res.set("expt.parallel_efficiency", ratio(busyNs.Seconds(), wall.Seconds()*float64(nproc)))
	res.samples["expt.run_p50_ms"] = len(jobsNs)
	c := sim.Cache
	res.set("cache.hit_ratio", ratio(float64(c.Hits), float64(c.Hits+c.Misses)))
	res.set("cache.evictions_per_op", ratio(float64(c.Evictions), float64(c.Hits+c.Misses)))
	res.set("cache.placeholder_hits_per_kmiss", ratio(1000*float64(c.PlaceholderHits), float64(c.Misses)))
	res.set("acm.consults_per_miss", ratio(float64(c.Consults), float64(c.Misses)))
	res.set("acm.overrule_ratio", ratio(float64(c.Overrules), float64(c.Consults)))
	res.set("acm.vindicated_ratio", ratio(float64(c.Vindicated), float64(c.Overrules)))
	res.set("bench.trace_overhead", 1-ratio(desRate(itsT), desRate(itsU)))
	return res, nil
}

func appNames(apps []expt.AppSpec) []string {
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = fmt.Sprintf("%s/%v", a.Name, a.Mode)
	}
	return out
}

// desPhase runs Figure 5 iterations for about d (at least one), stopping
// before an iteration that would run past d by more than half of one,
// and checks each against the golden copies.
func desPhase(root string, nproc int, d time.Duration) ([]*desIter, error) {
	var its []*desIter
	start := time.Now()
	for {
		cpu0 := cpuTime()
		it, err := runFig5(nproc)
		if err != nil {
			return nil, err
		}
		it.cpu = cpuTime() - cpu0
		if err := checkGolden(root, it); err != nil {
			return nil, err
		}
		its = append(its, it)
		el := time.Since(start)
		if el+it.wall/2 >= d {
			break
		}
	}
	return its, nil
}

// desOps counts an iteration set's simulated block accesses and I/Os.
func desOps(its ...*desIter) (accesses, ios int64) {
	for _, it := range its {
		for _, j := range it.jobs {
			accesses += j.accesses
			ios += j.ios
		}
	}
	return accesses, ios
}

func desRate(its []*desIter) float64 {
	var wall time.Duration
	for _, it := range its {
		wall += it.wall
	}
	ops, _ := desOps(its...)
	return ratio(float64(ops), wall.Seconds())
}

// desEndToEnd fills the end-to-end metrics of des, each the median over
// the phase's Figure 5 iterations. There is no wire: an op is one
// simulated block access, and the read and write latency metrics both
// report the wall time a simulation spends per access (p50 and p99 over
// an iteration's simulations), since the simulator's cost cannot be
// split by access kind from outside.
func desEndToEnd(its []*desIter, res *result) {
	var rate, cpu, p50, p99 []float64
	samples := 0
	for _, it := range its {
		ops, _ := desOps(it)
		rate = append(rate, ratio(float64(ops), it.wall.Seconds()))
		cpu = append(cpu, ratio(float64(it.cpu.Nanoseconds())/1e3, float64(ops)))
		var per []int64
		for _, j := range it.jobs {
			if j.accesses > 0 {
				per = append(per, int64(j.end.Sub(j.start))*1000/j.accesses) // ps
			}
		}
		h := histOf(per)
		p50, p99 = append(p50, h.quantile(0.5)/1e6), append(p99, h.quantile(0.99)/1e6)
		samples += len(per)
	}
	ops, ios := desOps(its...)
	res.attempted = ops
	res.set("ops_per_s", median(rate))
	for _, n := range []string{"read_p50_us", "write_p50_us", "read_p99_us", "write_p99_us"} {
		res.samples[n] = samples
	}
	res.set("read_p50_us", median(p50))
	res.set("write_p50_us", median(p50))
	res.set("read_p99_us", median(p99))
	res.set("write_p99_us", median(p99))
	res.set("store_blocks_per_op", ratio(float64(ios), float64(ops)))
	res.set("cpu_us_per_op", median(cpu))
}

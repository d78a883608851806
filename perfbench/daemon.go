package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/stats"
)

// setupRuns is how many times a run sets its workload up; setup_s is
// the median, and only the last set-up is measured.
const setupRuns = 11

func setupIn(w daemonWorkload, dir string) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rg, err := w.setup(dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return rg, nil
}

// setupOnly is the child side of childSetups: it sets the workload up n
// times, tearing each down, and prints the set-up times as JSON.
func setupOnly(w daemonWorkload, o opts, n int) error {
	if _, err := w.gen(o.seed); err != nil {
		return err
	}
	var times []float64
	for i := 0; i < n; i++ {
		dir := filepath.Join(o.work, "setup")
		t0 := time.Now()
		rg, err := setupIn(w, dir)
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		rg.abort()
		os.RemoveAll(dir)
	}
	return json.NewEncoder(os.Stdout).Encode(times)
}

// childSetups runs n set-ups of the run's workload in a child process
// and returns their times.
func childSetups(o opts, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--setup-only", strconv.Itoa(n))
	cmd.Dir = o.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("set-up child: %w", err)
	}
	var times []float64
	if err := json.Unmarshal(out, &times); err != nil {
		return nil, fmt.Errorf("set-up child: %w", err)
	}
	return times, nil
}

// rig is one daemon workload, set up and warmed, ready to measure.
type rig struct {
	sessions []session
	tap      *tap // on the daemon's block store, or on the cluster origin
	// kernel returns the daemon's kernel counters, summed over nodes.
	kernel func() (stats.Snapshot, error)
	// finish closes the clients, drains and closes the daemon (which
	// flushes it), reads every block back from the store, or from a new
	// handle on the origin, and checks it against the model.
	finish func() error
	// abort tears the rig down without checking anything.
	abort func()
}

// daemonWorkload is a workload that serves its ops through acfcd.
type daemonWorkload interface {
	// gen makes the workload's inputs from the seed and returns the
	// SHA-256 of the generated op stream.
	gen(seed uint64) (string, error)
	// config describes the daemon configuration, for provenance.
	config() map[string]any
	setup(dir string) (*rig, error)
	// wireless replays the same op stream straight into core.Live
	// kernels with inline fills, recording core and store spans in rec.
	wireless(dir string, rec *recorder, d time.Duration) (*phase, error)
}

func runDaemon(w daemonWorkload, o opts) (*result, error) {
	res := newResult()
	hash, err := w.gen(o.seed)
	if err != nil {
		return nil, err
	}
	res.prov["input_sha256"] = hash
	res.prov["daemon"] = w.config()

	// The other set-ups run in a child process: a shut-down server keeps
	// its kernel arenas, and they must not count in this run's memory.
	// The traced run does not report setup_s and sets up once.
	var setups []float64
	if !o.trace {
		if setups, err = childSetups(o, setupRuns-1); err != nil {
			return nil, err
		}
	}
	dir := filepath.Join(o.work, "setup")
	t0 := time.Now()
	rg, err := setupIn(w, dir)
	if err != nil {
		return nil, err
	}
	setups = append(setups, time.Since(t0).Seconds())
	res.set("setup_s", median(setups))
	res.samples["setup_s"] = len(setups)

	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		err := measureEndToEnd(rg, d, res)
		res.set("peak_rss_mb", peakRSSMB())
		return res, err
	}
	err = measureLayers(w, rg, d, o, res)
	if ferr := rg.finish(); err == nil {
		err = ferr
	}
	return res, err
}

// measureEndToEnd is the untraced run: one timed phase, then the final
// flush and check. The store traffic charged to the phase includes
// writing back the blocks its ops left dirty, which the flush does.
func measureEndToEnd(rg *rig, d time.Duration, res *result) error {
	tc0 := rg.tap.counts()
	ph, err := runPhase(rg.sessions, d, 0, nil)
	if ferr := rg.finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	tc := rg.tap.counts().sub(tc0)
	res.attempted, res.failed = ph.ops, ph.fails
	ops := float64(ph.ops)
	res.set("ops_per_s", ph.windowRate())
	res.set("read_p50_us", ph.latency(opRead, 0.50))
	res.set("read_p99_us", ph.latency(opRead, 0.99))
	res.set("write_p50_us", ph.latency(opWrite, 0.50))
	res.set("write_p99_us", ph.latency(opWrite, 0.99))
	for _, n := range []string{"read_p50_us", "read_p99_us"} {
		res.samples[n] = ph.samples(opRead)
	}
	for _, n := range []string{"write_p50_us", "write_p99_us"} {
		res.samples[n] = ph.samples(opWrite)
	}
	res.set("store_blocks_per_op", ratio(float64(tc.blocks()), ops))
	res.set("cpu_us_per_op", ph.cpuPerOp())
	return nil
}

// measureLayers is the traced run: an untraced wire phase, a traced
// wire phase over the same daemon, then the wire-less pass. Each gets a
// share of the run's seconds.
func measureLayers(w daemonWorkload, rg *rig, d time.Duration, o opts, res *result) error {
	phU, err := runPhase(rg.sessions, d*2/5, 0, nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	k0, err := rg.kernel()
	if err != nil {
		return err
	}
	pc0, tc0 := readProc(), rg.tap.counts()
	rg.tap.rec.Store(rec)
	lo := rec.now()
	phT, err := runPhase(rg.sessions, d*2/5, 0, rec)
	hi := rec.now()
	rg.tap.rec.Store(nil)
	if err != nil {
		return err
	}
	pc, tc := readProc().sub(pc0), rg.tap.counts().sub(tc0)
	k1, err := rg.kernel()
	if err != nil {
		return err
	}
	recL := newRecorder()
	phL, err := w.wireless(filepath.Join(o.work, "wireless"), recL, d/5)
	if err != nil {
		return fmt.Errorf("wire-less pass: %w", err)
	}
	res.attempted = phU.ops + phT.ops + phL.ops
	res.failed = phU.fails + phT.fails + phL.fails
	if err := writeSpans(o, rec, recL); err != nil {
		return err
	}

	ops := float64(phT.ops)
	spans := rec.snapshot()
	clientNs, nClient := 0.0, 0.0
	for _, s := range spans {
		if s.Name == "client.read" || s.Name == "client.write" {
			clientNs += float64(s.dur())
			nClient++
		}
	}
	spansL := recL.snapshot()
	self := selfTimes(spansL)
	coreSelf := map[string][]int64{}
	coreNs := 0.0
	for _, s := range spansL {
		if s.Name == "core.read" || s.Name == "core.write" {
			coreSelf[s.Name] = append(coreSelf[s.Name], self[s.ID])
			coreNs += float64(self[s.ID])
		}
	}
	nCore := float64(len(coreSelf["core.read"]) + len(coreSelf["core.write"]))
	res.samples["core.read_p50_ns"] = len(coreSelf["core.read"])
	res.samples["core.write_p50_ns"] = len(coreSelf["core.write"])

	store := rg.tap.name
	storeSpans := append(byName(spans, store+".read"), byName(spans, store+".write")...)
	storeNs := 0.0
	for _, s := range storeSpans {
		storeNs += float64(s.dur())
	}
	c, f := subCache(k1, k0), subFill(k1, k0)

	res.set("server.syscalls_per_op", ratio(float64(pc.syscalls), ops))
	res.set("server.allocs_per_op", ratio(float64(pc.mallocs), ops))
	res.set("server.wire_share", 1-ratio(ratio(coreNs, nCore)+ratio(storeNs, nClient), ratio(clientNs, nClient)))
	res.set("server.wire_copy_fallbacks_per_kop", ratio(1000*float64(f.WireCopyFallbacks), ops))
	res.set("server.fill_queue_high_water", float64(k1.Fill.FillQueueHighWater))
	res.set("server.fill_batch_mean_blocks", ratio(float64(f.FillBatchBlocks), float64(f.BatchedFills)))
	res.set("server.writeback_stalls_per_kop", ratio(1000*float64(f.WritebackStalls), ops))
	res.set("core.read_p50_ns", histOf(coreSelf["core.read"]).quantile(0.5))
	res.set("core.write_p50_ns", histOf(coreSelf["core.write"]).quantile(0.5))
	res.set("core.busy_share", ratio(coreNs, float64(phL.elapsed)))
	res.set("core.prefetch_useful_ratio", ratio(float64(f.PrefetchHits), float64(f.PrefetchIssued)))
	res.set("core.coalesced_ratio", ratio(float64(f.CoalescedMisses), float64(c.Misses)))
	res.set("core.writeback_hits", float64(f.WritebackHits))
	res.set("cache.hit_ratio", ratio(float64(c.Hits), float64(c.Hits+c.Misses)))
	res.set("cache.evictions_per_op", ratio(float64(c.Evictions), ops))
	res.set("cache.placeholder_hits_per_kmiss", ratio(1000*float64(c.PlaceholderHits), float64(c.Misses)))
	res.set("acm.consults_per_miss", ratio(float64(c.Consults), float64(c.Misses)))
	res.set("acm.overrule_ratio", ratio(float64(c.Overrules), float64(c.Consults)))
	res.set("acm.vindicated_ratio", ratio(float64(c.Vindicated), float64(c.Overrules)))

	// spanLat sets metric to the q-quantile of the named spans, in µs.
	spanLat := func(metric, span string, q float64) {
		var ds []int64
		for _, s := range byName(spans, span) {
			ds = append(ds, s.dur())
		}
		res.samples[metric] = len(ds)
		res.set(metric, histOf(ds).quantile(q)/1e3)
	}
	if store == "disk" {
		res.set("disk.read_calls_per_op", ratio(float64(tc.readCalls), ops))
		res.set("disk.write_calls_per_op", ratio(float64(tc.writeCalls), ops))
		res.set("disk.blocks_per_call", ratio(float64(tc.blocks()), float64(tc.calls())))
		spanLat("disk.read_p50_us", "disk.read", 0.5)
		spanLat("disk.read_p99_us", "disk.read", 0.99)
		spanLat("disk.write_p50_us", "disk.write", 0.5)
		res.set("disk.busy_share", busy(storeSpans, lo, hi))
		res.set("disk.errors", float64(tc.errs))
	} else {
		res.set("cluster.origin_read_calls_per_op", ratio(float64(tc.readCalls), ops))
		res.set("cluster.origin_blocks_per_call", ratio(float64(tc.blocks()), float64(tc.calls())))
		spanLat("cluster.origin_read_p50_us", "origin.read", 0.5)
		res.set("cluster.origin_busy_share", busy(storeSpans, lo, hi))
		res.set("cluster.peer_fills", float64(f.PeerFills))
		res.set("cluster.peer_fill_misses", float64(f.PeerFillMisses))
		res.set("cluster.peer_fill_errors", float64(f.PeerFillErrors))
	}
	res.set("bench.trace_overhead", 1-ratio(phT.windowRate(), phU.windowRate()))
	res.prov["phases"] = map[string]any{
		"untraced_ops": phU.ops, "traced_ops": phT.ops, "wireless_ops": phL.ops,
		"untraced_ops_per_s": phU.windowRate(), "traced_ops_per_s": phT.windowRate(),
	}
	return nil
}

// subCache and subFill are the counter deltas b→a. High-water marks
// are not deltas; callers read them from a directly.
func subCache(a, b stats.Snapshot) (d cache.Stats) {
	x, y := a.Cache, b.Cache
	d = x
	d.Hits -= y.Hits
	d.Misses -= y.Misses
	d.Evictions -= y.Evictions
	d.UnrefEvictions -= y.UnrefEvictions
	d.Consults -= y.Consults
	d.Overrules -= y.Overrules
	d.PlaceholderHits -= y.PlaceholderHits
	d.Vindicated -= y.Vindicated
	d.Transfers -= y.Transfers
	d.Revocations -= y.Revocations
	d.AllocSwaps -= y.AllocSwaps
	return d
}

func subFill(a, b stats.Snapshot) (d stats.FillStats) {
	x, y := a.Fill, b.Fill
	d = x
	d.StoreReads -= y.StoreReads
	d.CoalescedMisses -= y.CoalescedMisses
	d.WritebackHits -= y.WritebackHits
	d.PrefetchIssued -= y.PrefetchIssued
	d.PrefetchHits -= y.PrefetchHits
	d.WritebacksQueued -= y.WritebacksQueued
	d.WritebackStalls -= y.WritebackStalls
	d.WritebackErrors -= y.WritebackErrors
	d.WireCopyFallbacks -= y.WireCopyFallbacks
	d.BatchedFills -= y.BatchedFills
	d.FillBatchBlocks -= y.FillBatchBlocks
	d.WritebackBatches -= y.WritebackBatches
	d.PeerFills -= y.PeerFills
	d.PeerFillMisses -= y.PeerFillMisses
	d.PeerFillErrors -= y.PeerFillErrors
	return d
}

// writeSpans stores the traced run's spans under the build directory,
// replacing the previous traced run's of the same workload.
func writeSpans(o opts, recs ...*recorder) error {
	dir := filepath.Join(o.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, r := range recs {
		if err := r.write(filepath.Join(dir, fmt.Sprintf("%s-%d.tsv", o.workload, i))); err != nil {
			return err
		}
	}
	return nil
}

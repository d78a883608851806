package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names a reported metric and its unit. BENCHMARK.json lists
// the same names; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the daemon or of the experiment
// harness sees, reported by the untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"store_blocks_per_op", "blocks/op"},
	{"cpu_us_per_op", "us/op"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per module. A metric
// of a layer a workload does not run reads 0.
var perLayer = []metricDef{
	{"server.syscalls_per_op", "calls/op"},
	{"server.allocs_per_op", "allocs/op"},
	{"server.wire_share", "ratio"},
	{"server.wire_copy_fallbacks_per_kop", "1/kop"},
	{"server.fill_queue_high_water", "fills"},
	{"server.fill_batch_mean_blocks", "blocks"},
	{"server.writeback_stalls_per_kop", "1/kop"},
	{"core.read_p50_ns", "ns"},
	{"core.write_p50_ns", "ns"},
	{"core.busy_share", "ratio"},
	{"core.prefetch_useful_ratio", "ratio"},
	{"core.coalesced_ratio", "ratio"},
	{"core.writeback_hits", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions_per_op", "1/op"},
	{"cache.placeholder_hits_per_kmiss", "1/kmiss"},
	{"acm.consults_per_miss", "1/miss"},
	{"acm.overrule_ratio", "ratio"},
	{"acm.vindicated_ratio", "ratio"},
	{"disk.read_calls_per_op", "calls/op"},
	{"disk.write_calls_per_op", "calls/op"},
	{"disk.blocks_per_call", "blocks/call"},
	{"disk.read_p50_us", "us"},
	{"disk.read_p99_us", "us"},
	{"disk.write_p50_us", "us"},
	{"disk.busy_share", "ratio"},
	{"disk.errors", "count"},
	{"cluster.origin_read_calls_per_op", "calls/op"},
	{"cluster.origin_blocks_per_call", "blocks/call"},
	{"cluster.origin_read_p50_us", "us"},
	{"cluster.origin_busy_share", "ratio"},
	{"cluster.peer_fills", "count"},
	{"cluster.peer_fill_misses", "count"},
	{"cluster.peer_fill_errors", "count"},
	{"sim.events_per_s", "events/s"},
	{"sim.fastpath_ratio", "ratio"},
	{"sim.handoffs", "count"},
	{"expt.run_p50_ms", "ms"},
	{"expt.run_max_ms", "ms"},
	{"expt.parallel_efficiency", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

// result is one run's outcome. Metrics not set read 0.
type result struct {
	attempted, failed int64
	values            map[string]float64
	samples           map[string]int
	prov              map[string]any
}

func newResult() *result {
	return &result{values: make(map[string]float64), samples: make(map[string]int), prov: make(map[string]any)}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metrics as a table, then the provenance as one JSON
// line, then the result object as the last line.
func (r *result) report(w io.Writer, defs []metricDef, correct bool) error {
	ms := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[d.name] = jsonMetric{v, d.unit}
		if n, ok := r.samples[d.name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %-10s (%d samples)\n", d.name, v, d.unit, n)
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	fmt.Fprintf(w, "  %-36s %14.4f ratio      (%d failed of %d attempted)\n", "fail_ratio",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	r.prov["samples"] = r.samples
	prov, err := json.Marshal(map[string]any{"provenance": r.prov})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(prov))
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

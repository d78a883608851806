package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json's metric and workload lists in
// step with what the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range doc.Workloads {
		ws = append(ws, w.Name)
	}
	sort.Strings(ws)
	if !slices.Equal(ws, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", ws, workloadNames())
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)", c.what, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the
// metrics the command prints in step: same names, same units, same order.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []metric
		want []metricDef
	}{
		{"end_to_end", b.EndToEnd, endToEndMetrics},
		{"per_layer", b.PerLayer, perLayerMetrics},
	} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s lists %d metrics, the command prints %d", c.name, len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s (%s), the command prints %s (%s)", c.name, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The metric lists and workload names the benchmark prints must be the
// ones BENCHMARK.json declares, in the same order with the same units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list string
		spec []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.list, len(c.spec), len(c.code))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.list, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for name := range batchWorkloads {
		want = append(want, name)
	}
	want = append(want, "serve")
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("workloads: BENCHMARK.json %v, benchmark %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", got, want)
			break
		}
	}
}

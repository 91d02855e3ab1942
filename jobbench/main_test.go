package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json lists exactly
// the workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(jobLimit) {
		t.Errorf("%d workloads listed, program has %d", len(b.Workloads), len(jobLimit))
	}
	for _, w := range b.Workloads {
		if _, ok := jobLimit[w.Name]; !ok {
			t.Errorf("listed workload %q unknown to the program", w.Name)
		}
	}
	var e2e, layers []def
	for _, m := range b.EndToEnd {
		e2e = append(e2e, def{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layers = append(layers, def{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("end_to_end = %v, program reports %v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layers, perLayerDefs) {
		t.Errorf("per_layer = %v, program reports %v", layers, perLayerDefs)
	}
}

package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root must name exactly the workloads and
// metrics this program reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bj struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("workload %d: %v", i, err)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, list := range []struct {
		json []def
		prog []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(list.json) != len(list.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics where the program reports %d", len(list.json), len(list.prog))
			continue
		}
		for i, d := range list.json {
			if d.Name != list.prog[i].name || d.Unit != list.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s (%s), program reports %s (%s)",
					i, d.Name, d.Unit, list.prog[i].name, list.prog[i].unit)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is not a valid name", d.Name)
			}
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// smokeSeconds is each window's length in a smoke run.
const smokeSeconds = 1

// benchmarkSpec is the part of BENCHMARK.json the smoke run checks the
// emitted metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSmoke runs every workload briefly, untraced and traced, and fails
// unless each run verifies clean and emits exactly the metrics
// BENCHMARK.json declares, with their units. The lint-module run
// extracting and loading its pinned input is part of verifying clean.
func runSmoke(root string, out io.Writer) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[1][m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	for _, wl := range workloads {
		for trace := 0; trace < 2; trace++ {
			o := options{workload: wl.name, seed: 1, seconds: smokeSeconds, trace: trace == 1, root: root}
			res, err := runOnce(o, io.Discard)
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", wl.name, trace, err)
			}
			if !res.Correct || res.Failed > 0 || res.Attempted == 0 {
				return fmt.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d",
					wl.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if err := sameMetrics(res.Metrics, want[trace]); err != nil {
				return fmt.Errorf("%s trace=%d: %w", wl.name, trace, err)
			}
			fmt.Fprintf(out, "smoke %-14s trace=%d ok: %d operations, %d metrics\n",
				wl.name, trace, res.Attempted, len(res.Metrics))
		}
	}
	return nil
}

// sameMetrics reports the first difference between the emitted metrics
// and the declared name -> unit set.
func sameMetrics(got map[string]metricValue, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s not emitted", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s emitted in %q, declared in %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s emitted but not declared", name)
		}
	}
	return nil
}

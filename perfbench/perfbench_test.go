package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// The self-test runs every workload for a few operations at tiny scales:
//
//	cd perfbench && go test .
//
// It checks that the workloads together emit exactly the metrics
// BENCHMARK.json names, with the units it gives them, and that an answer
// differing from the oracle is counted as failed.

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func shortOptions(workload string, trace bool) options {
	secs := time.Second
	if workload == "ingest-notify" {
		secs = 2 * incPeriod // two ingest rounds
	}
	return options{seed: defaultSeed, seconds: secs, trace: trace, short: true}
}

// TestWorkloadsEmitDeclaredMetrics checks that every workload emits exactly
// the end-to-end metrics untraced and exactly the per-layer metrics traced,
// each in the unit BENCHMARK.json gives it.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, mode := range []struct {
		trace    bool
		declared []declaredMetric
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		for _, w := range bf.Workloads {
			run, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
			}
			rep, err := run(context.Background(), shortOptions(w.Name, mode.trace))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, mode.trace, err)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed", w.Name, mode.trace, rep.failed, rep.attempted)
			}
			emitted := map[string]metric{}
			for name, m := range rep.metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s (trace %v): metric %s is %v", w.Name, mode.trace, name, m.Value)
				}
				emitted[name] = m
			}
			for _, d := range mode.declared {
				m, ok := emitted[d.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): BENCHMARK.json names %s but the workload does not emit it", w.Name, mode.trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s (trace %v): %s is emitted in %q, BENCHMARK.json says %q", w.Name, mode.trace, d.Name, m.Unit, d.Unit)
				case !mode.trace && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
				delete(emitted, d.Name)
			}
			for name := range emitted {
				t.Errorf("%s (trace %v): %s is emitted but BENCHMARK.json does not name it", w.Name, mode.trace, name)
			}
		}
	}
}

func TestPerLayerUnitsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, perLayerUnits %d", len(bf.PerLayer), len(perLayerUnits))
	}
	for _, d := range bf.PerLayer {
		if unit := perLayerUnits[d.Name]; unit != d.Unit {
			t.Errorf("%s: perLayerUnits says %q, BENCHMARK.json %q", d.Name, unit, d.Unit)
		}
	}
}

func TestCorruptedReferenceCountsAsFailed(t *testing.T) {
	for _, name := range workloadNames() {
		opts := shortOptions(name, false)
		opts.corrupt = true
		rep, err := workloads[name](context.Background(), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.failed == 0 {
			t.Errorf("%s: an answer checked against a corrupted reference was not counted as failed", name)
		}
	}
}

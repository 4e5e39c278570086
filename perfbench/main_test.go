package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyParams(corrupt bool) params {
	return params{seed: 3, workers: 1, clients: 2, tiny: true, corrupt: corrupt}
}

// TestCatalogMatchesBenchmarkFile keeps metrics.go and the workload
// table in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), perfbench %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, perfbench %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, perfbench %+v", i, m, d)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || d.moves == "" || d.still == "" {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, perfbench %+v", i, m, d)
		}
	}
}

// TestTinyRunsEmitEveryMetric runs each workload at a tiny size, untraced
// and traced, and requires every declared metric with its unit and a
// clean correctness record.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		for _, traced := range []bool{false, true} {
			res := runTiny(t, wl, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", wl.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl.name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s is %v, want > 0", wl.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestWrongExpectationIsCounted makes each workload's reference
// disagree with the program and requires the disagreement to show in
// the result: failed > 0, correct false, and failed_frac > 0 traced.
func TestWrongExpectationIsCounted(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		for _, traced := range []bool{false, true} {
			res := runTiny(t, wl, traced, true)
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d with a wrong reference", wl.name, traced, res.Correct, res.Failed)
			}
			if traced && res.Metrics["failed_frac"].Value <= 0 {
				t.Errorf("%s: failed_frac = %v with a wrong reference", wl.name, res.Metrics["failed_frac"].Value)
			}
		}
	}
}

func runTiny(t *testing.T, wl *workload, traced, corrupt bool) result {
	t.Helper()
	var rep report
	var res result
	var err error
	if traced {
		res, err = runTraced(wl, tinyParams(corrupt), 400*time.Millisecond, &rep)
	} else {
		res, err = runPlain(wl, tinyParams(corrupt), 200*time.Millisecond, &rep)
	}
	if err != nil {
		t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
	}
	return res
}

// TestUsageErrorPrintsNoResult: a bad invocation exits nonzero and
// prints nothing on standard output.
func TestUsageErrorPrintsNoResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the tables
// the program prints from in step, and inside the file's format limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the allowed form", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		unique(m.Name)
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q or bound %v outside the limits", m.Name, m.Unit, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		unique(m.Name)
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %s: unit %q outside the allowed form", m.Name, m.Unit)
		}
	}
}

func checkMetrics(t *testing.T, out outcome, defs []metricDef) {
	t.Helper()
	if len(out.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := out.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.unit {
			t.Errorf("metric %s: got %+v (present=%v)", d.name, v, ok)
		}
	}
}

// TestWorkloadsSelfCheck runs every workload for 5+10 rounds, untraced
// twice and traced once: every run passes its correctness check, every
// declared metric appears with a finite value, and the counts that do
// not depend on timing repeat exactly.
func TestWorkloadsSelfCheck(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			o := options{seed: 7, rounds: 10, outDir: t.TempDir()}
			var runs [2]outcome
			for r := range runs {
				out, err := runUntraced(wl, o)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted != o.rounds {
					t.Fatalf("run %d: correct=%v failed=%d attempted=%d: %s", r, out.Correct, out.Failed, out.Attempted, out.why)
				}
				checkMetrics(t, out, endToEnd)
				for _, d := range endToEnd {
					if out.Metrics[d.name].Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, must be positive", d.name, out.Metrics[d.name].Value)
					}
				}
				runs[r] = out
			}
			exact := []string{"uplink_bytes_per_round", "downlink_bytes_per_round"}
			if wl.name != "sim-paper-k25" {
				// Open's worst-case search breaks ties between equally bad
				// Byzantine sets by goroutine timing, so two sim-paper-k25
				// runs can (rarely) train against different sets.
				exact = append(exact, "final_accuracy")
			}
			for _, name := range exact {
				if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs of the same seed: %v vs %v", name, a, b)
				}
			}
			traced, err := runTraced(wl, o)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run incorrect: %s", traced.why)
			}
			checkMetrics(t, traced, perLayer)
			if _, err := os.Stat(o.outDir + "/trace-" + wl.name + ".jsonl"); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}

// TestCorruptedParameterFailsFleetCheck flips one mantissa bit of a
// fleet's final parameters: the bit-identity check must notice.
func TestCorruptedParameterFailsFleetCheck(t *testing.T) {
	ref64 := []float64{0.5, -1.25, 3}
	ref32 := []float32{0.5, -1.25, 3}
	if err := bitIdentical(ref64, ref64, nil, nil); err != nil {
		t.Fatalf("identical f64 vectors rejected: %v", err)
	}
	if err := bitIdentical(nil, nil, ref32, ref32); err != nil {
		t.Fatalf("identical f32 vectors rejected: %v", err)
	}
	bad64 := append([]float64(nil), ref64...)
	bad64[1] = math.Float64frombits(math.Float64bits(bad64[1]) ^ 1)
	if bitIdentical(bad64, ref64, nil, nil) == nil {
		t.Error("one flipped f64 bit went unnoticed")
	}
	bad32 := append([]float32(nil), ref32...)
	bad32[2] = math.Float32frombits(math.Float32bits(bad32[2]) ^ 1)
	if bitIdentical(nil, nil, bad32, ref32) == nil {
		t.Error("one flipped f32 bit went unnoticed")
	}
	if bitIdentical(ref64[:2], ref64, nil, nil) == nil {
		t.Error("a short vector went unnoticed")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every workload at the quick sizes, untraced and traced, on the
// default and the held-out seed: the benchmark builds, all four
// workloads answer correctly against the oracle, and each run carries
// every metric BENCHMARK.json names for it.
func TestQuickRuns(t *testing.T) {
	out := t.TempDir()
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := runOne(w, seed, 1, traced, true, out)
				if err != nil {
					t.Fatalf("seed %d %s traced=%v: %v", seed, w.name, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("seed %d %s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
						seed, w.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				for _, d := range endToEnd {
					if v, ok := res.EndToEnd[d.Name]; !ok || v <= 0 {
						t.Errorf("seed %d %s: end-to-end metric %s = %v, want a positive value", seed, w.name, d.Name, v)
					}
				}
				if len(res.EndToEnd) != len(endToEnd) {
					t.Errorf("seed %d %s: %d end-to-end metrics reported, the table has %d", seed, w.name, len(res.EndToEnd), len(endToEnd))
				}
				if !traced {
					continue
				}
				for _, d := range perLayer {
					if _, ok := res.PerLayer[d.Name]; !ok {
						t.Errorf("seed %d %s: per-layer metric %s is not reported", seed, w.name, d.Name)
					}
				}
				if len(res.PerLayer) != len(perLayer) {
					t.Errorf("seed %d %s: %d per-layer metrics reported, the table has %d", seed, w.name, len(res.PerLayer), len(perLayer))
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("span file: %v", err)
				}
			}
		}
	}
}

// BENCHMARK.json at the root repeats the tables in run.go and
// workload.go; this keeps the two from drifting apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.describe() {
			t.Errorf("workload %d = %+v, want {%s %s}", i, got, w.name, w.describe())
		}
		if len(w.describe()) > 200 || strings.Contains(w.describe(), "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.describe()))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, the program has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// compare's verdicts on made-up result files: a metric 20% worse with
// tight runs regressed, a metric with scattered runs is unresolved.
func TestCompareVerdicts(t *testing.T) {
	file := func(scale map[string]float64, noisy string) resultFile {
		var f resultFile
		for r := 0; r < 5; r++ {
			run := suiteRun{Seed: int64(r + 1)}
			for _, w := range workloads {
				res := &result{Workload: w.name, EndToEnd: map[string]float64{}}
				for _, d := range endToEnd {
					v := 100 + float64(r) // runs within 4% of each other
					if d.Name == noisy {
						v = 100 + 30*float64(r)
					}
					if s, ok := scale[d.Name]; ok {
						v *= s
					}
					res.EndToEnd[d.Name] = v
				}
				run.Workloads = append(run.Workloads, res)
			}
			f.Runs = append(f.Runs, run)
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", file(nil, ""))
	var out bytes.Buffer
	if code := compareMain([]string{a, a}, &out); code != 0 || strings.Contains(out.String(), "regressed") {
		t.Errorf("a file against itself: exit %d\n%s", code, out.String())
	}
	// p50 rises 20% (worse), qps rises 20% (better), open_p95 is noisy.
	b := write("b.json", file(map[string]float64{"p50_ms": 1.2, "qps": 1.2}, "open_p95_ms"))
	out.Reset()
	if code := compareMain([]string{a, b}, &out); code != 1 {
		t.Errorf("a worse file: exit %d, want 1", code)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		want := map[string]string{"p50_ms": "regressed", "qps": "ok", "open_p95_ms": "unresolved", "p95_ms": "ok"}[f[1]]
		if want != "" && f[len(f)-1] != want {
			t.Errorf("verdict for %s %s is %q, want %q", f[0], f[1], f[len(f)-1], want)
		}
	}
}

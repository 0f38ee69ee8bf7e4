package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSmoke runs all four workloads at 1/50 of the reference scale, one
// untraced and one traced pass each, and requires every named metric to be
// measured and every output check to pass. It is the whole benchmark in
// under twenty seconds, so it runs under -short too.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			r, err := run(sp.scaled(1.0/50), defaultSeed, t.TempDir(), 1, true, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range r.problems {
				t.Errorf("check failed: %s", p)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%d of %d ops failed", r.failed, r.attempted)
			}
			for _, table := range [][]metric{endToEnd, perLayer} {
				for _, m := range table {
					v, ok := r.metrics[m.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s was not measured", m.name)
					}
					if m.unit == "" || (m.better != "lower" && m.better != "higher") {
						t.Errorf("%s has unit %q and direction %q", m.name, m.unit, m.better)
					}
				}
			}
			for _, m := range endToEnd {
				if r.metrics[m.name] <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never zero", m.name, r.metrics[m.name])
				}
			}
			for _, name := range []string{"client.lagged_replicas", "server.throttles"} {
				if r.metrics[name] != 0 {
					t.Errorf("%s = %v, want 0", name, r.metrics[name])
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go and
// pass.go from drifting apart: the driver reads the one, the program
// reports by the other.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the workloads are sized for %d", doc.RunSeconds, refSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in specs", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in specs", i, w.Name, specs[i].name)
		}
	}
	same := func(kind string, got []jm, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in metrics.go", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, metrics.go has %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s: bound in BENCHMARK.json does not match metrics.go (%v)", g.Name, w.bound)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd, true)
	same("per-layer", doc.PerLayer, perLayer, false)
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which the driver judges the spread by.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

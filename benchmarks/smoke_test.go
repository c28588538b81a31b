package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"stateslice"
	"stateslice/benchmarks/oracle"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestNoDrift pins the names this program prints to the ones BENCHMARK.json
// declares: workloads with their rationale, end-to-end metrics with unit,
// direction and bound, per-layer metrics with unit and direction.
func TestNoDrift(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := f.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, wl.name, wl.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := f.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := f.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}

// TestOracleReadsTheWorkloads checks the oracle's own reading of every
// workload file against the engine's parser: same number of queries, same
// windows, same thresholds, in the same order.
func TestOracleReadsTheWorkloads(t *testing.T) {
	for _, wl := range workloads {
		qs, err := oracle.ParseQueries(wl.text())
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		w, err := stateslice.ParseWorkload(wl.text())
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if len(qs) != len(w.Queries) {
			t.Fatalf("%s: oracle reads %d queries, the engine %d", wl.name, len(qs), len(w.Queries))
		}
		for i, q := range w.Queries {
			minA := 0.0
			if th, ok := q.Filter.(stateslice.Threshold); ok {
				minA = 1 - th.S
			}
			if qs[i].Window != int64(q.Window) || qs[i].MinA != minA || q.FilterB != nil {
				t.Errorf("%s query %d: oracle reads window %d, A.value >= %g; the engine %d, %g (B filter %v)",
					wl.name, i, qs[i].Window, qs[i].MinA, int64(q.Window), minA, q.FilterB)
			}
		}
	}
}

// TestSmoke runs every workload through all three passes at a hundredth of
// the normal length: the digests must match the oracle, every declared
// metric must be present and finite, and the busy shares must partition the
// traced wall.
func TestSmoke(t *testing.T) {
	m := modeFull
	m.setups = 0 // the passes' own three are enough here
	for _, wl := range workloads {
		if wl.opEvery > 0 {
			// At this length the real cadence would schedule one operation;
			// a tighter one runs every kind in every pass.
			tight := *wl
			tight.opEvery = 60
			wl = &tight
		}
		t.Run(wl.name, func(t *testing.T) {
			rep, err := runWorkload(wl, 2006, 0.12, m)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Errorf("%d of %d attempted operations failed: %v", rep.failed, rep.attempted, rep.notes)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				line := resultLine(rep, defs)
				for _, d := range defs {
					mv, ok := line.Metrics[d.name]
					if !ok || mv.Unit == "" {
						t.Errorf("metric %s: in the result line %v, unit %q", d.name, ok, mv.Unit)
					}
					if v := rep.values[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v", d.name, v)
					}
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("result line carries %d metrics, want %d", len(line.Metrics), len(defs))
				}
			}
			for _, d := range endToEnd {
				if rep.values[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", d.name, rep.values[d.name])
				}
			}
			sum := 0.0
			for _, name := range busyShares {
				sum += rep.values[name]
			}
			if math.Abs(sum-1) > 0.02 {
				t.Errorf("busy shares sum to %g, want 1 ± 0.02", sum)
			}
			if len(rep.spans) == 0 {
				t.Error("the traced pass recorded no spans")
			}
			barrier := rep.values["shard.checkpoint_ms"] > 0 && rep.values["shard.barrier_shadow_share"] > 0
			if barrier != (wl.opEvery > 0) {
				t.Errorf("barrier metrics present: %v, workload scripts session operations: %v", barrier, wl.opEvery > 0)
			}
			if filters := rep.values["operator.filter.cmp"] > 0; filters && wl.name != "filtered" && wl.name != "churn" {
				t.Errorf("operator.filter.cmp = %g on a workload without selections or merged slices", rep.values["operator.filter.cmp"])
			}
		})
	}
}

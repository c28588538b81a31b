package stateslice_test

// Count goldens: the paper's fixed point frozen as numbers. Every Figure
// 17/18/19 panel at test scale pins, per strategy, the CostMeter by kind plus
// the mean sampled state size; the fanout chain (12 unfiltered equijoin
// queries) pins the same sequentially and sharded at p ∈ {1, 2, 4} on both
// merge topologies; the benchmark's filtered query set under CPU-Opt and
// Mem-Opt and three small filtered or routed chains pin the selections and
// routers on a chain's result path. The shape tests in internal/bench check orderings and the
// benchmark bounds medians; neither notices a refactor that moves a count by
// one, and these files do. Refresh with
//
//	go test -run TestCountGoldens -update .

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"stateslice"
	"stateslice/internal/bench"
	"stateslice/internal/chain"
	"stateslice/internal/cost"
	"stateslice/internal/engine"
	"stateslice/internal/operator"
	"stateslice/internal/plan"
	"stateslice/internal/stream"
	"stateslice/internal/workload"
)

// The test scale of internal/bench's shape tests.
const (
	goldenDuration = 25.0
	goldenSeed     = 1234
)

var goldenRates = []float64{20, 60}

// countLine renders one run's counts; every CostMeter field is listed and
// the mean state size keeps all of its float64 bits.
func countLine(label string, m operator.CostMeter, memAvg float64) string {
	return fmt.Sprintf("%s probe=%d purge=%d route=%d union=%d filter=%d split=%d hash=%d invocations=%d mem_avg=%s\n",
		label, m.Probe, m.Purge, m.Route, m.Union, m.Filter, m.Split, m.Hash, m.Invocations,
		strconv.FormatFloat(memAvg, 'g', -1, 64))
}

// goldenRun runs a plan over the input with the harness's sampling.
func goldenRun(t *testing.T, p *engine.Plan, input []*stream.Tuple, sampleEvery int) (operator.CostMeter, float64) {
	t.Helper()
	res, err := engine.Run(p, input, engine.Config{SampleEvery: sampleEvery})
	if err != nil {
		t.Fatal(err)
	}
	if res.OrderViolations != 0 {
		t.Fatalf("%s: %d order violations", p.Name, res.OrderViolations)
	}
	return res.Meter, res.Memory.Avg
}

func goldenInput(t *testing.T, rate float64) []*stream.Tuple {
	t.Helper()
	input, err := stream.Generate(stream.GeneratorConfig{
		RateA: rate, RateB: rate, Duration: stream.Seconds(goldenDuration), Seed: goldenSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return input
}

// figureCounts reproduces the Figure 17/18 panel runs (RunPanel: the three
// strategies, sampled every arrival) and the Figure 19 panel runs
// (RunChainVariants: Mem-Opt and CPU-Opt chains, sampled every 4th arrival).
func figureCounts(t *testing.T) string {
	var b strings.Builder
	for _, p := range append(bench.Fig17Panels(), bench.Fig18Panels()...) {
		w, err := workload.ThreeQueries(p.Dist, p.SSigma, p.S1)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range goldenRates {
			input := goldenInput(t, rate)
			for _, s := range bench.Strategies3() {
				var pl *engine.Plan
				switch s {
				case bench.PullUp:
					pl, err = plan.BuildPullUp(w, false)
				case bench.PushDown:
					pl, err = plan.BuildPushDown(w, false)
				default:
					var sp *plan.StateSlicePlan
					sp, err = plan.BuildStateSlice(w, plan.StateSliceConfig{})
					if sp != nil {
						pl = sp.Plan
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				m, mem := goldenRun(t, pl, input, 1)
				b.WriteString(countLine(fmt.Sprintf("%s rate=%g %s", p.Label, rate, s), m, mem))
			}
		}
	}
	for _, p := range bench.Fig19Panels() {
		w, err := workload.NQueries(p.Dist, p.Queries, 0.025)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range goldenRates {
			cpu, err := chain.CPUOptEnds(workload.Specs(w), cost.ChainParams{
				LambdaA: rate, LambdaB: rate, TupleKB: 1, SelJoin: 0.025, Csys: bench.DefaultCsys,
			})
			if err != nil {
				t.Fatal(err)
			}
			input := goldenInput(t, rate)
			for _, v := range []struct {
				name bench.ChainVariant
				ends []stream.Time
			}{{bench.MemOpt, nil}, {bench.CPUOpt, workload.EndsToTimes(cpu.Ends)}} {
				sp, err := plan.BuildStateSlice(w, plan.StateSliceConfig{Ends: v.ends, Name: string(v.name)})
				if err != nil {
					t.Fatal(err)
				}
				m, mem := goldenRun(t, sp.Plan, input, 4)
				b.WriteString(countLine(fmt.Sprintf("%s rate=%g %s slices=%d", p.Label, rate, v.name, len(sp.Slices())), m, mem))
			}
		}
	}
	return b.String()
}

// fanoutWorkload is the benchmark's fanout query set: windows 2.5 s, 5 s,
// ..., 30 s, unfiltered, on an equijoin.
func fanoutWorkload() stateslice.Workload {
	w := stateslice.Workload{Join: stateslice.Equijoin{}}
	for i := 1; i <= 12; i++ {
		w.Queries = append(w.Queries, stateslice.Query{
			Name: fmt.Sprintf("Q%d", i), Window: stateslice.Time(i) * 2500 * stateslice.Millisecond,
		})
	}
	return w
}

// fanoutCounts runs the fanout chain sequentially, then sharded at p = 1, 2
// and 4 on the slice-merge topology (the default for a fixed unfiltered
// chain) and on the per-query topology (WithMigratable), and last at p = 1
// on both topologies with a drain after every input.
func fanoutCounts(t *testing.T) string {
	input, err := stateslice.Generate(stateslice.GeneratorConfig{
		RateA: 20, RateB: 20, Duration: 40 * stateslice.Second, KeyDomain: 40, Seed: goldenSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	// drained runs feed one tuple at a time and drain the session after
	// each, so every replica's feed slab holds exactly one input whatever
	// the goroutine schedule: the slab boundaries, and with them every
	// count at p = 1, are a function of the input alone.
	run := func(label string, shards int, drained bool, opts ...stateslice.Option) {
		p, err := stateslice.Build(fanoutWorkload(), stateslice.MemOpt, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var res *stateslice.Result
		if drained {
			s, err := p.NewSession(stateslice.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range input {
				if err := s.Feed(tu); err != nil {
					t.Fatal(err)
				}
				s.Drain()
			}
			res = s.Finish()
			err = res.Err
		} else {
			res, err = p.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.OrderViolations != 0 {
			t.Fatalf("%s: %d order violations", label, res.OrderViolations)
		}
		line := countLine(fmt.Sprintf("fanout %s outputs=%d", label, res.TotalOutputs()), res.Meter, res.Memory.Avg)
		if shards > 0 && !drained {
			// The cross-replica merge orders whichever replica slabs have
			// arrived, and a replica's feed slab holds whatever arrived
			// while it was busy, so the union comparison count depends on
			// goroutine timing; every other count is a function of the
			// input. The drained p = 1 rows fix every slab at one input
			// and pin the union count too.
			line = strings.Replace(line, fmt.Sprintf(" union=%d ", res.Meter.Union), " union=timing-dependent ", 1)
		}
		b.WriteString(line)
	}
	run("sequential", 0, false)
	for _, p := range []int{1, 2, 4} {
		run(fmt.Sprintf("p=%d slice-merge", p), p, false, stateslice.WithShards(p))
		run(fmt.Sprintf("p=%d per-query", p), p, false, stateslice.WithShards(p), stateslice.WithMigratable())
	}
	run("p=1 slice-merge drained", 1, true, stateslice.WithShards(1))
	run("p=1 per-query drained", 1, true, stateslice.WithShards(1), stateslice.WithMigratable())
	return b.String()
}

// filteredCounts runs the benchmark's filtered query set (lineage marks,
// gates, routers and mask filters on one chain) under CPU-Opt and Mem-Opt,
// then three small chains: a query served by the first slice alone that
// shares its selection with a multi-slice query, a selection on stream B,
// and a router on the first slice.
func filteredCounts(t *testing.T) string {
	src, err := os.ReadFile(filepath.Join("benchmarks", "workloads", "filtered.sql"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := stateslice.ParseWorkload(string(src))
	if err != nil {
		t.Fatal(err)
	}
	input, err := stateslice.Generate(stateslice.GeneratorConfig{
		RateA: 40, RateB: 40, Duration: 20 * stateslice.Second, KeyDomain: 40, Seed: goldenSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	model := stateslice.CostModel{RateA: 150, RateB: 150, JoinSelectivity: 0.025, Csys: stateslice.DefaultCsys, TupleKB: stateslice.DefaultTupleKB}
	for _, s := range []stateslice.Strategy{stateslice.CPUOpt, stateslice.MemOpt} {
		p, err := stateslice.Build(w, s, stateslice.WithCostParams(model))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.OrderViolations != 0 {
			t.Fatalf("filtered %s: %d order violations", s, res.OrderViolations)
		}
		b.WriteString(countLine(fmt.Sprintf("filtered %s slices=%d outputs=%d", s, len(p.Ends()), res.TotalOutputs()), res.Meter, res.Memory.Avg))
	}

	small := goldenInput(t, 40)
	sel := stream.Threshold{S: 0.5}
	for _, c := range []struct {
		label string
		w     plan.Workload
		ends  []stream.Time
	}{
		{"same-predicate first-slice/multi-slice", plan.Workload{Join: stream.FractionMatch{S: 0.1}, Queries: []plan.Query{
			{Window: 2 * stream.Second, Filter: sel},
			{Window: 8 * stream.Second, Filter: sel},
			{Window: 10 * stream.Second},
		}}, nil},
		{"B-side selection", plan.Workload{Join: stream.FractionMatch{S: 0.1}, Queries: []plan.Query{
			{Window: 2 * stream.Second},
			{Window: 5 * stream.Second, FilterB: sel},
			{Window: 8 * stream.Second, Filter: stream.Threshold{S: 0.7}, FilterB: sel},
		}}, nil},
		{"router on slice 0", plan.Workload{Join: stream.FractionMatch{S: 0.1}, Queries: []plan.Query{
			{Window: 1 * stream.Second},
			{Window: 2 * stream.Second, Filter: sel},
			{Window: 4 * stream.Second},
			{Window: 6 * stream.Second, Filter: sel},
		}}, []stream.Time{2 * stream.Second, 6 * stream.Second}},
	} {
		sp, err := plan.BuildStateSlice(c.w, plan.StateSliceConfig{Ends: c.ends})
		if err != nil {
			t.Fatal(err)
		}
		m, mem := goldenRun(t, sp.Plan, small, 1)
		b.WriteString(countLine(fmt.Sprintf("%s slices=%d", c.label, len(sp.Slices())), m, mem))
	}
	return b.String()
}

func TestCountGoldens(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(*testing.T) string
	}{
		{"counts-figures", figureCounts},
		{"counts-fanout", fanoutCounts},
		{"counts-filtered", filteredCounts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.gen(t)
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run: go test -run TestCountGoldens -update .)", err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) || i < len(wl); i++ {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
					}
				}
			}
		})
	}
}

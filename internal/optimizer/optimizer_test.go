package optimizer

import (
	"strings"
	"testing"

	"stateslice/internal/chain"
	"stateslice/internal/cost"
	"stateslice/internal/plan"
	"stateslice/internal/stream"
	"stateslice/internal/workload"
)

// testParams is a cost model where merging matters: high Csys makes extra
// slices expensive, so CPU-Opt and Mem-Opt genuinely diverge on some
// workloads.
var testParams = cost.ChainParams{LambdaA: 50, LambdaB: 50, TupleKB: 0.1, SelJoin: 0.1, Csys: 4}

func twoQueryWorkload() plan.Workload {
	return plan.Workload{
		Queries: []plan.Query{
			{Window: stream.Seconds(1)},
			{Window: stream.Seconds(60), Filter: stream.Threshold{S: 0.01}},
		},
		Join: stream.Equijoin{},
	}
}

func compile(t *testing.T, l *Logical, mode Mode) *Logical {
	t.Helper()
	if err := Compile(l, Preset(mode)); err != nil {
		t.Fatalf("Compile(%s): %v", mode, err)
	}
	return l
}

func TestPassOrder(t *testing.T) {
	l := compile(t, &Logical{Workload: twoQueryWorkload(), Params: testParams}, ChainMem)
	var order []string
	for _, n := range l.Trace {
		if len(order) == 0 || order[len(order)-1] != n.Pass {
			order = append(order, n.Pass)
		}
	}
	want := []string{"normalize", "placement", "sharing", "shards", "lower"}
	if len(order) != len(want) {
		t.Fatalf("pass order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pass order %v, want %v", order, want)
		}
	}
}

func TestChainMemDefaults(t *testing.T) {
	l := compile(t, &Logical{Workload: twoQueryWorkload(), Params: testParams}, ChainMem)
	if l.Sharing != ChainMem {
		t.Errorf("sharing %s, want mem-opt", l.Sharing)
	}
	if l.Ends != nil {
		t.Errorf("mem-opt without pinned ends keeps Ends nil (the builder derives distinct windows), got %v", l.Ends)
	}
	if l.ChainCost == nil || l.ChainCost.CPU <= 0 {
		t.Errorf("chain cost not modelled: %+v", l.ChainCost)
	}
	if l.Shards != 0 {
		t.Errorf("no shards requested, got %d", l.Shards)
	}
}

func TestChainCPUEndsMatchDijkstra(t *testing.T) {
	w := twoQueryWorkload()
	l := compile(t, &Logical{Workload: w, Params: testParams}, ChainCPU)
	res, err := chain.CPUOptEnds(workload.Specs(w), testParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Ends) != len(res.Ends) {
		t.Fatalf("ends %v, Dijkstra found %v", l.Ends, res.Ends)
	}
	for i, e := range res.Ends {
		if l.Ends[i] != stream.Seconds(e) {
			t.Fatalf("ends %v, Dijkstra found %v", l.Ends, res.Ends)
		}
	}
	if l.ChainCost == nil || l.ChainCost.CPU != res.CPU {
		t.Errorf("chain cost %+v, want CPU %g", l.ChainCost, res.CPU)
	}
}

// TestChainAutoPicksCheaper pins the Auto contract: the resolved sharing is
// whichever layout the model prices cheaper in CPU, with ties to Mem-Opt.
func TestChainAutoPicksCheaper(t *testing.T) {
	// Many close windows under a high Csys: merging wins, CPU-Opt diverges
	// from Mem-Opt.
	var w plan.Workload
	w.Join = stream.Equijoin{}
	for i := 1; i <= 8; i++ {
		w.Queries = append(w.Queries, plan.Query{Window: stream.Seconds(float64(i))})
	}
	specs := workload.Specs(w)
	memCost, err := cost.ChainCost(specs, chain.MemOptEnds(specs), testParams)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chain.CPUOptEnds(specs, testParams)
	if err != nil {
		t.Fatal(err)
	}
	wantMode := ChainMem
	if res.CPU < memCost.CPU {
		wantMode = ChainCPU
	}
	l := compile(t, &Logical{Workload: w, Params: testParams}, ChainAuto)
	if l.Sharing != wantMode {
		t.Errorf("auto resolved to %s; model prices mem-opt at %g, cpu-opt at %g", l.Sharing, memCost.CPU, res.CPU)
	}
	if l.Sharing == ChainAuto {
		t.Error("auto must resolve to a concrete layout")
	}
	if !traceContains(l, "sharing", "auto picked") {
		t.Errorf("trace does not record the auto choice:\n%s", RenderTrace(l.Trace))
	}
}

func TestPinnedEnds(t *testing.T) {
	pin := []stream.Time{stream.Seconds(1), stream.Seconds(60)}
	l := compile(t, &Logical{Workload: twoQueryWorkload(), Params: testParams, PinnedEnds: pin}, ChainMem)
	if len(l.Ends) != 2 || l.Ends[0] != pin[0] || l.Ends[1] != pin[1] {
		t.Errorf("ends %v, want the pinned %v", l.Ends, pin)
	}
	if !traceContains(l, "sharing", "pinned") {
		t.Errorf("trace does not mention pinning:\n%s", RenderTrace(l.Trace))
	}
}

func TestPlacementSurvival(t *testing.T) {
	l := compile(t, &Logical{Workload: twoQueryWorkload(), Params: testParams}, ChainMem)
	// Q1 (1s) is unfiltered, so survival at chain entry is 1; past 1s only
	// the filtered Q2 remains, so survival drops to its selectivity.
	if !traceContains(l, "placement", "σ'(0s)=1") || !traceContains(l, "placement", "σ'(1s)=0.01") {
		t.Errorf("survival trace wrong:\n%s", RenderTrace(l.Trace))
	}
	if !traceContains(l, "placement", "lineage-marked") {
		t.Errorf("placement does not record lineage:\n%s", RenderTrace(l.Trace))
	}
	l = compile(t, &Logical{Workload: twoQueryWorkload(), Params: testParams, DisableLineage: true}, ChainMem)
	if !traceContains(l, "placement", "lineage disabled") {
		t.Errorf("placement does not record the lineage ablation:\n%s", RenderTrace(l.Trace))
	}
}

func TestBaselineModes(t *testing.T) {
	for mode, want := range map[Mode]string{
		ModePullUp:   "pull-up baseline",
		ModePushDown: "push-down baseline",
		ModeUnshared: "one independent plan per query",
	} {
		l := compile(t, &Logical{Workload: twoQueryWorkload(), Params: testParams}, mode)
		if l.Sharing != mode {
			t.Errorf("%s: sharing %s", mode, l.Sharing)
		}
		if l.Ends != nil {
			t.Errorf("%s: baselines have no chain, got ends %v", mode, l.Ends)
		}
		if !traceContains(l, "sharing", want) {
			t.Errorf("%s: trace lacks %q:\n%s", mode, want, RenderTrace(l.Trace))
		}
	}
}

func TestShardsHash(t *testing.T) {
	l := compile(t, &Logical{Workload: twoQueryWorkload(), Params: testParams, RequestedShards: 4}, ChainMem)
	if l.Shards != 4 || l.UseKeyRange {
		t.Errorf("shards %d, useKeyRange %v; want 4 hash-partitioned", l.Shards, l.UseKeyRange)
	}
	if !traceContains(l, "shards", "hash-partitioned") {
		t.Errorf("trace lacks the partitioner:\n%s", RenderTrace(l.Trace))
	}
}

func TestShardsBandRange(t *testing.T) {
	w := twoQueryWorkload()
	w.Join = stream.BandJoin{B: 2}
	l := compile(t, &Logical{
		Workload: w, Params: testParams,
		RequestedShards: 3, KeyMin: -10, KeyMax: 119, KeyRangeDeclared: true,
	}, ChainMem)
	if l.Shards != 3 || !l.UseKeyRange {
		t.Errorf("shards %d, useKeyRange %v; want 3 range-partitioned", l.Shards, l.UseKeyRange)
	}
	if !traceContains(l, "shards", "-10..119") || !traceContains(l, "shards", "band-2") {
		t.Errorf("trace lacks the range detail:\n%s", RenderTrace(l.Trace))
	}
}

func TestAutoShards(t *testing.T) {
	cases := []struct {
		name     string
		join     stream.JoinPredicate
		min, max int64
		declared bool
		procs    int
		want     int
	}{
		{"procs-bound", stream.Equijoin{}, 0, 0, false, 8, 8},
		{"ceiling-16", stream.Equijoin{}, 0, 0, false, 64, 16},
		{"domain-caps-equi", stream.Equijoin{}, 0, 3, true, 8, 4},
		{"band-divides-by-4B", stream.BandJoin{B: 1}, 0, 119, true, 64, 16}, // 120/4 = 30 > 16
		{"band-small-domain", stream.BandJoin{B: 5}, 0, 39, true, 8, 2},     // 40/20 = 2
		{"band-at-least-one", stream.BandJoin{B: 50}, 0, 9, true, 8, 1},
	}
	for _, c := range cases {
		w := twoQueryWorkload()
		w.Join = c.join
		l := compile(t, &Logical{
			Workload: w, Params: testParams, AutoShards: true,
			KeyMin: c.min, KeyMax: c.max, KeyRangeDeclared: c.declared, MaxProcs: c.procs,
		}, ChainMem)
		if l.Shards != c.want {
			t.Errorf("%s: inferred p=%d, want %d", c.name, l.Shards, c.want)
		}
	}
}

func TestNormalizeRejectsInvalid(t *testing.T) {
	w := plan.Workload{
		Queries: []plan.Query{{Window: stream.Seconds(60)}, {Window: stream.Seconds(1)}},
		Join:    stream.Equijoin{},
	}
	err := Compile(&Logical{Workload: w, Params: testParams}, Preset(ChainMem))
	if err == nil || !strings.Contains(err.Error(), "normalize pass") {
		t.Fatalf("unsorted workload error %v, want a normalize-pass failure", err)
	}
}

func TestLowerTargets(t *testing.T) {
	l := compile(t, &Logical{Workload: twoQueryWorkload(), Params: testParams}, ChainMem)
	if !traceContains(l, "lower", "sequential engine") {
		t.Errorf("lower trace:\n%s", RenderTrace(l.Trace))
	}
	l = compile(t, &Logical{Workload: twoQueryWorkload(), Params: testParams, RequestedShards: 4}, ChainMem)
	if !traceContains(l, "lower", "sharded executor (p=4)") {
		t.Errorf("lower trace:\n%s", RenderTrace(l.Trace))
	}
}

func TestModeStrings(t *testing.T) {
	for mode, want := range map[Mode]string{
		ChainMem: "mem-opt", ChainCPU: "cpu-opt", ChainAuto: "auto",
		ModePullUp: "pull-up", ModePushDown: "push-down", ModeUnshared: "unshared",
	} {
		if got := mode.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(mode), got, want)
		}
	}
}

func traceContains(l *Logical, pass, substr string) bool {
	for _, n := range l.Trace {
		if n.Pass == pass && strings.Contains(n.Detail, substr) {
			return true
		}
	}
	return false
}

package chain

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"stateslice/internal/cost"
)

func cp() cost.ChainParams {
	return cost.ChainParams{LambdaA: 50, LambdaB: 50, TupleKB: 0.1, SelJoin: 0.025, Csys: 3}
}

func TestMemOptEnds(t *testing.T) {
	qs := []cost.QuerySpec{
		{Window: 5, Sel: 1}, {Window: 5, Sel: 0.5}, {Window: 10, Sel: 1}, {Window: 30, Sel: 1},
	}
	got := MemOptEnds(qs)
	want := []float64{5, 10, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MemOptEnds = %v, want %v", got, want)
	}
}

// cpuOptEndsDP solves the same problem with a dynamic program over the
// topologically ordered boundary nodes — the O(N^2) formulation the
// principle of optimality (Lemma 2) justifies: an independent oracle for the
// Dijkstra implementation.
func cpuOptEndsDP(queries []cost.QuerySpec, p cost.ChainParams) (*Result, error) {
	if err := cost.ValidateQueries(queries); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bounds := append([]float64{0}, cost.DistinctWindows(queries)...)
	n := len(bounds)
	dist := make([]float64, n)
	prev := make([]int, n)
	for v := 1; v < n; v++ {
		dist[v] = math.Inf(1)
		prev[v] = -1
		for u := 0; u < v; u++ {
			if d := dist[u] + cost.EdgeCost(queries, bounds[u], bounds[v], p); d < dist[v] {
				dist[v] = d
				prev[v] = u
			}
		}
	}
	var ends []float64
	for v := n - 1; v > 0; v = prev[v] {
		ends = append(ends, bounds[v])
	}
	reverse(ends)
	res := &Result{Ends: ends, CPU: dist[n-1]}
	mem, err := memoryOf(queries, ends, p)
	if err != nil {
		return nil, err
	}
	res.MemoryKB = mem
	return res, nil
}

// bruteForceCPUOpt enumerates every possible chain (every subset of the
// distinct windows that contains the largest) and returns the cheapest: the
// exponential optimality oracle, in the spirit of the paper's optimality
// proofs. It refuses more than 20 distinct windows.
func bruteForceCPUOpt(queries []cost.QuerySpec, p cost.ChainParams) (*Result, error) {
	if err := cost.ValidateQueries(queries); err != nil {
		return nil, err
	}
	windows := cost.DistinctWindows(queries)
	m := len(windows) - 1 // optional boundaries (the last is mandatory)
	if m > 20 {
		return nil, fmt.Errorf("chain: brute force limited to 20 distinct windows, got %d", m+1)
	}
	best := &Result{CPU: math.Inf(1)}
	for mask := 0; mask < 1<<m; mask++ {
		var ends []float64
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				ends = append(ends, windows[i])
			}
		}
		ends = append(ends, windows[m])
		c, err := cost.ChainCost(queries, ends, p)
		if err != nil {
			return nil, err
		}
		if c.CPU < best.CPU {
			best = &Result{Ends: ends, CPU: c.CPU, MemoryKB: c.MemoryKB}
		}
	}
	return best, nil
}

func TestCPUOptAgainstBruteForce(t *testing.T) {
	// The optimality claim of Section 5.2: Dijkstra over the slice-merge
	// DAG finds the minimum-CPU chain. Compare all three solvers on
	// randomized workloads.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(8)
		var qs []cost.QuerySpec
		w := 0.0
		for i := 0; i < n; i++ {
			w += 0.5 + 10*rng.Float64()
			sel := 1.0
			if rng.Float64() < 0.5 {
				sel = 0.05 + 0.9*rng.Float64()
			}
			qs = append(qs, cost.QuerySpec{Window: w, Sel: sel})
		}
		p := cost.ChainParams{
			LambdaA: 5 + 100*rng.Float64(),
			LambdaB: 5 + 100*rng.Float64(),
			TupleKB: 0.1,
			SelJoin: rng.Float64() * 0.5,
			Csys:    rng.Float64() * 10,
		}
		dij, err := CPUOptEnds(qs, p)
		if err != nil {
			t.Fatalf("trial %d: dijkstra: %v", trial, err)
		}
		dp, err := cpuOptEndsDP(qs, p)
		if err != nil {
			t.Fatalf("trial %d: dp: %v", trial, err)
		}
		bf, err := bruteForceCPUOpt(qs, p)
		if err != nil {
			t.Fatalf("trial %d: brute force: %v", trial, err)
		}
		if math.Abs(dij.CPU-bf.CPU) > 1e-6*math.Max(1, bf.CPU) {
			t.Errorf("trial %d: dijkstra cost %g != brute force %g (ends %v vs %v)",
				trial, dij.CPU, bf.CPU, dij.Ends, bf.Ends)
		}
		if math.Abs(dp.CPU-bf.CPU) > 1e-6*math.Max(1, bf.CPU) {
			t.Errorf("trial %d: dp cost %g != brute force %g", trial, dp.CPU, bf.CPU)
		}
		// The chain cost of the returned ends must equal the reported
		// optimum (the path reconstruction is consistent).
		chk, err := cost.ChainCost(qs, dij.Ends, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(chk.CPU-dij.CPU) > 1e-6*math.Max(1, dij.CPU) {
			t.Errorf("trial %d: reconstructed chain costs %g, reported %g", trial, chk.CPU, dij.CPU)
		}
	}
}

func TestCPUOptNeverWorseThanMemOptOrFullMerge(t *testing.T) {
	qs := []cost.QuerySpec{
		{Window: 1, Sel: 1}, {Window: 2, Sel: 1}, {Window: 3, Sel: 1},
		{Window: 25, Sel: 1}, {Window: 27, Sel: 1}, {Window: 30, Sel: 1},
	}
	p := cp()
	opt, err := CPUOptEnds(qs, p)
	if err != nil {
		t.Fatal(err)
	}
	memOpt, err := cost.ChainCost(qs, MemOptEnds(qs), p)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := cost.ChainCost(qs, []float64{30}, p)
	if err != nil {
		t.Fatal(err)
	}
	if opt.CPU > memOpt.CPU+1e-9 {
		t.Errorf("CPU-Opt %g worse than Mem-Opt %g", opt.CPU, memOpt.CPU)
	}
	if opt.CPU > merged.CPU+1e-9 {
		t.Errorf("CPU-Opt %g worse than full merge %g", opt.CPU, merged.CPU)
	}
}

func TestCPUOptMergesSkewedWindows(t *testing.T) {
	// Section 7.3: for skewed window distributions with low join
	// selectivity, CPU-Opt merges the clustered small windows; for
	// high-routing-cost settings it keeps them sliced. With a large
	// Csys and tiny S1, tightly clustered windows must merge.
	qs := []cost.QuerySpec{
		{Window: 1, Sel: 1}, {Window: 1.1, Sel: 1}, {Window: 1.2, Sel: 1},
		{Window: 30, Sel: 1},
	}
	p := cp()
	p.Csys = 20
	p.SelJoin = 0.001
	opt, err := CPUOptEnds(qs, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Ends) >= 4 {
		t.Errorf("expected merging of clustered windows, got ends %v", opt.Ends)
	}
	// With zero overhead and huge join selectivity, routing dominates:
	// the chain must stay fully sliced.
	p.Csys = 0
	p.SelJoin = 1
	opt, err = CPUOptEnds(qs, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Ends) != 4 {
		t.Errorf("expected fully sliced chain, got ends %v", opt.Ends)
	}
}

func TestCPUOptValidation(t *testing.T) {
	if _, err := CPUOptEnds(nil, cp()); err == nil {
		t.Error("empty workload must fail")
	}
	bad := cp()
	bad.LambdaA = 0
	if _, err := CPUOptEnds([]cost.QuerySpec{{Window: 1, Sel: 1}}, bad); err == nil {
		t.Error("invalid params must fail")
	}
	if _, err := bruteForceCPUOpt(nil, cp()); err == nil {
		t.Error("brute force with empty workload must fail")
	}
	var many []cost.QuerySpec
	for i := 1; i <= 25; i++ {
		many = append(many, cost.QuerySpec{Window: float64(i), Sel: 1})
	}
	if _, err := bruteForceCPUOpt(many, cp()); err == nil {
		t.Error("brute force must refuse huge workloads")
	}
}

func TestPlanMigration(t *testing.T) {
	steps, err := PlanMigration([]float64{5, 10, 20, 30}, []float64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	want := []MigrationStep{{MergeOp, 20}, {MergeOp, 5}}
	if !reflect.DeepEqual(steps, want) {
		t.Errorf("steps = %v, want %v", steps, want)
	}
	steps, err = PlanMigration([]float64{30}, []float64{5, 10, 30})
	if err != nil {
		t.Fatal(err)
	}
	want = []MigrationStep{{SplitOp, 5}, {SplitOp, 10}}
	if !reflect.DeepEqual(steps, want) {
		t.Errorf("steps = %v, want %v", steps, want)
	}
	steps, err = PlanMigration([]float64{5, 30}, []float64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	want = []MigrationStep{{MergeOp, 5}, {SplitOp, 10}}
	if !reflect.DeepEqual(steps, want) {
		t.Errorf("steps = %v, want %v", steps, want)
	}
	if got, _ := PlanMigration([]float64{5, 30}, []float64{5, 30}); len(got) != 0 {
		t.Errorf("identity migration must be empty, got %v", got)
	}
}

func TestPlanMigrationValidation(t *testing.T) {
	cases := [][2][]float64{
		{{}, {10}},
		{{10}, {}},
		{{10, 5}, {10}},
		{{5, 5, 10}, {10}},
		{{-1, 10}, {10}},
		{{5, 10}, {5, 20}}, // final boundaries differ
	}
	for i, c := range cases {
		if _, err := PlanMigration(c[0], c[1]); err == nil {
			t.Errorf("case %d (%v -> %v): expected error", i, c[0], c[1])
		}
	}
}

func TestMigrationOpString(t *testing.T) {
	if MergeOp.String() != "merge" || SplitOp.String() != "split" {
		t.Error("op names wrong")
	}
	if s := (MigrationStep{SplitOp, 2.5}).String(); s != "split@2.5s" {
		t.Errorf("step string = %q", s)
	}
}

package stateslice_test

import (
	"testing"

	"stateslice"
)

// The facade tests double as compile-time checks that the public API stays
// usable end to end, mirroring the README quick start.

func exampleWorkload() stateslice.Workload {
	return stateslice.Workload{
		Queries: []stateslice.Query{
			{Name: "Q1", Window: 2 * stateslice.Second},
			{Name: "Q2", Window: 8 * stateslice.Second, Filter: stateslice.Threshold{S: 0.4}},
		},
		Join: stateslice.FractionMatch{S: 0.15},
	}
}

func exampleInput(t *testing.T) []*stateslice.Tuple {
	t.Helper()
	input, err := stateslice.Generate(stateslice.GeneratorConfig{
		RateA: 25, RateB: 25, Duration: 30 * stateslice.Second, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return input
}

func TestQuickStartMemOpt(t *testing.T) {
	w := exampleWorkload()
	p, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Ends()); got != 2 {
		t.Fatalf("Mem-Opt chain has %d slices, want one per distinct window", got)
	}
	res, err := p.Run(stateslice.SliceSource(exampleInput(t)), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOutputs() == 0 {
		t.Fatal("no results produced")
	}
	if res.OrderViolations != 0 {
		t.Fatal("results out of order")
	}
	if res.SinkCounts[0] == 0 || res.SinkCounts[1] == 0 {
		t.Fatalf("per-query counts: %v", res.SinkCounts)
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	w := exampleWorkload()
	input := exampleInput(t)
	model := stateslice.CostModel{
		RateA: 25, RateB: 25,
		JoinSelectivity: 0.15,
		Csys:            stateslice.DefaultCsys,
		TupleKB:         stateslice.DefaultTupleKB,
	}
	counts := make(map[stateslice.Strategy][]uint64)
	for _, s := range stateslice.Strategies() {
		var opts []stateslice.Option
		if s == stateslice.CPUOpt {
			opts = append(opts, stateslice.WithCostParams(model))
		}
		p, err := stateslice.Build(w, s, opts...)
		if err != nil {
			t.Fatalf("Build(%s): %v", s, err)
		}
		res, err := p.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		counts[s] = res.SinkCounts
	}
	want := counts[stateslice.Unshared]
	for s, got := range counts {
		for qi := range want {
			if got[qi] != want[qi] {
				t.Errorf("%s query %d delivered %d results, unshared %d", s, qi, got[qi], want[qi])
			}
		}
	}
}

func TestSessionMigration(t *testing.T) {
	w := exampleWorkload()
	input := exampleInput(t)
	p, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithMigratable())
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range input {
		if i == len(input)/2 {
			if err := p.Migrate([]stateslice.Time{8 * stateslice.Second}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Feed(tp); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Finish()
	if res.OrderViolations != 0 {
		t.Fatal("migration broke ordering")
	}
	// The merged chain has one slice serving both windows.
	if got := len(p.Ends()); got != 1 {
		t.Fatalf("%d slices after merge", got)
	}
}

func TestCostModelFacade(t *testing.T) {
	p := stateslice.CostParams{
		LambdaA: 50, LambdaB: 50, W1: 60, W2: 3600,
		TupleKB: 0.1, SelSigma: 0.01, SelJoin: 0.1,
	}
	sl, pu, pd := stateslice.StateSliceCost(p), stateslice.PullUpCost(p), stateslice.PushDownCost(p)
	if sl.MemoryKB >= pu.MemoryKB || sl.CPU >= pu.CPU {
		t.Error("state-slice must beat pull-up on the motivating example")
	}
	if sl.MemoryKB >= pd.MemoryKB || sl.CPU >= pd.CPU {
		t.Error("state-slice must beat push-down on the motivating example")
	}
	s := stateslice.ComputeSavings(60.0/3600, 0.01, 0.1)
	if s.MemVsPullUp < 0.45 {
		t.Errorf("motivating-example memory saving %.2f, want near the 50%% the paper reports", s.MemVsPullUp)
	}
}

func TestOptimizerFacade(t *testing.T) {
	qs := []stateslice.QuerySpec{
		{Window: 1, Sel: 1}, {Window: 1.5, Sel: 1}, {Window: 30, Sel: 1},
	}
	if got := stateslice.MemOptEnds(qs); len(got) != 3 {
		t.Errorf("MemOptEnds = %v", got)
	}
	res, err := stateslice.CPUOptEnds(qs, stateslice.ChainParams{
		LambdaA: 50, LambdaB: 50, SelJoin: 0.01, Csys: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ends) >= 3 {
		t.Errorf("CPU-Opt should merge the clustered windows: %v", res.Ends)
	}
	steps, err := stateslice.PlanMigration([]float64{1, 1.5, 30}, res.Ends)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Error("migration to a merged chain needs steps")
	}
}

func TestBuildWithEnds(t *testing.T) {
	w := exampleWorkload()
	p, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithEnds(8*stateslice.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ends()) != 1 {
		t.Fatal("explicit single boundary must build one slice")
	}
	if _, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithEnds(3*stateslice.Second)); err == nil {
		t.Error("boundary below the largest window must fail")
	}
}

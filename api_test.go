package stateslice_test

// Tests of the strategy-driven Build API: build determinism and Auto
// resolution, streaming Source/Sink execution, the verbatim CostModel
// semantics, hash-probing eligibility reporting, and first-class chain
// migration.

import (
	"fmt"
	"strings"
	"testing"

	"stateslice"
)

// renderResults flattens per-query result tuples into a comparable string:
// byte-identical runs render identically.
func renderResults(results [][]*stateslice.Tuple) string {
	var b strings.Builder
	for qi, rs := range results {
		fmt.Fprintf(&b, "Q%d:", qi)
		for _, t := range rs {
			fmt.Fprintf(&b, " %s@%s#%d", t, t.Time, t.Seq)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// buildCollected builds the workload under a strategy, runs it, and returns
// its rendered per-query results.
func buildCollected(t *testing.T, w stateslice.Workload, s stateslice.Strategy, input []*stateslice.Tuple, opts ...stateslice.Option) string {
	t.Helper()
	p, err := stateslice.Build(w, s, append([]stateslice.Option{stateslice.WithCollect()}, opts...)...)
	if err != nil {
		t.Fatalf("Build(%s): %v", s, err)
	}
	res, err := p.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatalf("%s: %v", s, err)
	}
	return renderResults(res.Results)
}

// TestBuildEquivalence asserts that Build is deterministic — two independent
// builds of the same workload render byte-identical per-query results for
// every strategy — and that Auto resolves to one of the chain layouts and
// matches a direct build of the resolved strategy byte-for-byte.
func TestBuildEquivalence(t *testing.T) {
	w := exampleWorkload()
	input := exampleInput(t)
	model := stateslice.CostModel{
		RateA: 25, RateB: 25,
		JoinSelectivity: 0.15,
		Csys:            stateslice.DefaultCsys,
		TupleKB:         stateslice.DefaultTupleKB,
	}

	for _, s := range stateslice.Strategies() {
		var opts []stateslice.Option
		if s == stateslice.CPUOpt {
			opts = append(opts, stateslice.WithCostParams(model))
		}
		p, err := stateslice.Build(w, s, append(opts, stateslice.WithCollect())...)
		if err != nil {
			t.Fatalf("Build(%s): %v", s, err)
		}
		if got := p.Strategy(); got != s {
			t.Errorf("Build(%s).Strategy() = %s", s, got)
		}
		first := buildCollected(t, w, s, input, opts...)
		second := buildCollected(t, w, s, input, opts...)
		if first != second {
			t.Errorf("Build(%s) is not deterministic", s)
		}
	}

	// Auto defers the layout choice to the sharing pass; the built plan
	// reports the resolved strategy and is byte-identical to building it
	// directly.
	auto, err := stateslice.Build(w, stateslice.Auto, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	rs := auto.Strategy()
	if rs != stateslice.MemOpt && rs != stateslice.CPUOpt {
		t.Fatalf("Auto resolved to %s, want mem-opt or cpu-opt", rs)
	}
	autoRes, err := auto.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResults(autoRes.Results), buildCollected(t, w, rs, input); got != want {
		t.Errorf("Auto results differ from a direct %s build", rs)
	}
}

// TestWithBatchSize covers the micro-batch build option: batched runs match
// the per-tuple default byte-for-byte, a RunConfig override wins, and a zero
// batch size is rejected.
func TestWithBatchSize(t *testing.T) {
	w := exampleWorkload()
	input := exampleInput(t)

	ref, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := renderResults(refRes.Results)

	for _, k := range []int{7, 64, -1} {
		p, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect(), stateslice.WithBatchSize(k))
		if err != nil {
			t.Fatalf("WithBatchSize(%d): %v", k, err)
		}
		res, err := p.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.OrderViolations != 0 {
			t.Errorf("k=%d: %d order violations", k, res.OrderViolations)
		}
		if got := renderResults(res.Results); got != want {
			t.Errorf("k=%d results differ from the per-tuple schedule", k)
		}
	}

	// A RunConfig with its own batch size overrides the option.
	p, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect(), stateslice.WithBatchSize(-1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(stateslice.SliceSource(input), stateslice.RunConfig{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderResults(res.Results); got != want {
		t.Error("RunConfig.BatchSize override results differ")
	}

	if _, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithBatchSize(0)); err == nil {
		t.Error("WithBatchSize(0) must be rejected")
	}
}

// TestChannelSourceMatchesBatch proves a channel-backed streaming run
// yields byte-identical per-query results to the batch run of the same
// workload.
func TestChannelSourceMatchesBatch(t *testing.T) {
	w := exampleWorkload()
	input := exampleInput(t)

	batch, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	batchRes, err := batch.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}

	streamed, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan *stateslice.Tuple, 8)
	go func() {
		defer close(ch)
		for _, tp := range input {
			ch <- tp
		}
	}()
	chanRes, err := streamed.Run(stateslice.ChannelSource(ch), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}

	if chanRes.Inputs != batchRes.Inputs {
		t.Errorf("channel run fed %d tuples, batch %d", chanRes.Inputs, batchRes.Inputs)
	}
	if got, want := renderResults(chanRes.Results), renderResults(batchRes.Results); got != want {
		t.Error("channel-backed source results differ from batch run")
	}

	// WarmupFraction needs a total input size: unsized sources must be
	// rejected loudly, not silently sampled without a warm-up.
	unsized, err := stateslice.Build(w, stateslice.MemOpt)
	if err != nil {
		t.Fatal(err)
	}
	empty := make(chan *stateslice.Tuple)
	close(empty)
	if _, err := unsized.Run(stateslice.ChannelSource(empty), stateslice.RunConfig{WarmupFraction: 0.2}); err == nil {
		t.Error("WarmupFraction with an unsized source must fail")
	}
	if _, err := unsized.Run(stateslice.ChannelSource(empty), stateslice.RunConfig{WarmupFraction: 0.2, ExpectedInputs: 100}); err != nil {
		t.Errorf("WarmupFraction with explicit ExpectedInputs: %v", err)
	}
}

// TestGeneratorSourceMatchesGenerate asserts the streaming generator yields
// exactly the batch generator's tuple sequence.
func TestGeneratorSourceMatchesGenerate(t *testing.T) {
	cfg := stateslice.GeneratorConfig{
		RateA: 25, RateB: 25, Duration: 10 * stateslice.Second, KeyDomain: 16, Seed: 11,
	}
	batch, err := stateslice.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := stateslice.GeneratorSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := stateslice.CollectSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d tuples, batch %d", len(streamed), len(batch))
	}
	for i := range batch {
		if *streamed[i] != *batch[i] {
			t.Fatalf("tuple %d differs: %+v vs %+v", i, streamed[i], batch[i])
		}
	}
}

// TestCostModelSemantics pins the WithCostParams contract: values are taken
// verbatim (an explicit Csys of 0 is honored, turning CPU-Opt into the
// unmerged Mem-Opt layout on this workload) and impossible zeros are
// rejected instead of silently defaulted.
func TestCostModelSemantics(t *testing.T) {
	w := stateslice.Workload{
		Queries: []stateslice.Query{
			{Window: stateslice.Seconds(1)},
			{Window: stateslice.Seconds(1.5)},
			{Window: stateslice.Seconds(30)},
		},
		Join: stateslice.FractionMatch{S: 0.15},
	}
	model := stateslice.CostModel{
		RateA: 50, RateB: 50,
		JoinSelectivity: 0.15,
		Csys:            0, // explicit zero: no scheduling overhead
		TupleKB:         1,
	}
	p0, err := stateslice.Build(w, stateslice.CPUOpt, stateslice.WithCostParams(model))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p0.Ends()); got != 3 {
		t.Errorf("Csys=0 chain has %d slices, want 3 (no overhead means nothing to merge here)", got)
	}
	model.Csys = 15
	p15, err := stateslice.Build(w, stateslice.CPUOpt, stateslice.WithCostParams(model))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p15.Ends()); got >= 3 {
		t.Errorf("Csys=15 chain has %d slices, want the clustered windows merged", got)
	}

	// Impossible zeros are errors, not defaults.
	bad := model
	bad.JoinSelectivity = 0
	if _, err := stateslice.Build(w, stateslice.CPUOpt, stateslice.WithCostParams(bad)); err == nil {
		t.Error("JoinSelectivity=0 must be rejected")
	}
	bad = model
	bad.RateA = 0
	if _, err := stateslice.Build(w, stateslice.CPUOpt, stateslice.WithCostParams(bad)); err == nil {
		t.Error("RateA=0 must be rejected")
	}
	bad = model
	bad.TupleKB = 0
	if _, err := stateslice.Build(w, stateslice.CPUOpt, stateslice.WithCostParams(bad)); err == nil {
		t.Error("TupleKB=0 must be rejected")
	}
	if err := stateslice.DefaultCostModel().Validate(); err != nil {
		t.Errorf("DefaultCostModel must validate: %v", err)
	}
}

// TestHashProbingEligibility pins the fixed reporting: plans without any
// regular window join refuse hash probing instead of silently succeeding.
func TestHashProbingEligibility(t *testing.T) {
	eq := stateslice.Workload{
		Queries: []stateslice.Query{
			{Window: 2 * stateslice.Second},
			{Window: 8 * stateslice.Second},
		},
		Join: stateslice.Equijoin{},
	}
	// State-slice chains contain only sliced joins: not eligible.
	if _, err := stateslice.Build(eq, stateslice.MemOpt, stateslice.WithHashProbing()); err == nil {
		t.Error("WithHashProbing on a sliced chain must be reported")
	}
	// Pull-up over an equijoin is eligible.
	if _, err := stateslice.Build(eq, stateslice.PullUp, stateslice.WithHashProbing()); err != nil {
		t.Errorf("WithHashProbing on pull-up: %v", err)
	}
	// Eligible join shape but a non-equijoin predicate still fails.
	if _, err := stateslice.Build(exampleWorkload(), stateslice.PullUp, stateslice.WithHashProbing()); err == nil {
		t.Error("hash probing without an equijoin must fail")
	}
}

// TestMigrateMethod drives online re-slicing through the Plan interface and
// verifies no result is lost or duplicated.
func TestMigrateMethod(t *testing.T) {
	w := exampleWorkload()
	input := exampleInput(t)

	p, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithMigratable())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Migrate([]stateslice.Time{8 * stateslice.Second}); err == nil {
		t.Error("Migrate without a session must fail")
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	half := len(input) / 2
	if err := sess.Consume(stateslice.SliceSource(input[:half])); err != nil {
		t.Fatal(err)
	}
	// Merge to one slice, then split at a boundary the chain never had.
	if err := p.Migrate([]stateslice.Time{8 * stateslice.Second}); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Ends()); got != 1 {
		t.Fatalf("after merge migration: %d slices", got)
	}
	if err := p.Migrate([]stateslice.Time{3 * stateslice.Second, 8 * stateslice.Second}); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Ends()); got != 2 {
		t.Fatalf("after split migration: %d slices", got)
	}
	if err := sess.Consume(stateslice.SliceSource(input[half:])); err != nil {
		t.Fatal(err)
	}
	res := sess.Finish()
	if res.OrderViolations != 0 {
		t.Error("migration broke ordering")
	}

	ref, err := stateslice.Build(w, stateslice.MemOpt)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range res.SinkCounts {
		if res.SinkCounts[qi] != refRes.SinkCounts[qi] {
			t.Errorf("query %d: migrated %d results, static %d", qi, res.SinkCounts[qi], refRes.SinkCounts[qi])
		}
	}

	// Invalid targets and ineligible plans.
	if err := p.Migrate([]stateslice.Time{3 * stateslice.Second}); err == nil {
		t.Error("target missing the largest boundary must fail")
	}
	static, err := stateslice.Build(w, stateslice.MemOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := static.Migrate([]stateslice.Time{8 * stateslice.Second}); err == nil {
		t.Error("Migrate without WithMigratable must fail")
	}
	pu, err := stateslice.Build(w, stateslice.PullUp)
	if err != nil {
		t.Fatal(err)
	}
	if err := pu.Migrate([]stateslice.Time{8 * stateslice.Second}); err == nil {
		t.Error("Migrate on a non-chain strategy must fail")
	}
}

// TestSinkStreams asserts WithSink callbacks observe every result of their
// query, in delivery order, while the run is still in flight.
func TestSinkStreams(t *testing.T) {
	w := exampleWorkload()
	input := exampleInput(t)
	var got []*stateslice.Tuple
	p, err := stateslice.Build(w, stateslice.MemOpt,
		stateslice.WithCollect(),
		stateslice.WithSink(1, stateslice.SinkFunc(func(t *stateslice.Tuple) { got = append(got, t) })))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != res.SinkCounts[1] {
		t.Fatalf("sink saw %d results, query delivered %d", len(got), res.SinkCounts[1])
	}
	for i, tp := range res.Results[1] {
		if got[i] != tp {
			t.Fatalf("sink result %d out of order", i)
		}
	}
	// Out-of-range sink indexes are rejected.
	if _, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithSink(5, stateslice.SinkFunc(func(*stateslice.Tuple) {}))); err == nil {
		t.Error("WithSink out-of-range query index must fail")
	}
}

// TestExplainAndEstimatedCost smoke-tests the introspection surface.
func TestExplainAndEstimatedCost(t *testing.T) {
	w := exampleWorkload()
	for _, s := range stateslice.Strategies() {
		p, err := stateslice.Build(w, s)
		if err != nil {
			t.Fatalf("Build(%s): %v", s, err)
		}
		if e := p.Explain(); !strings.Contains(e, s.String()) {
			t.Errorf("Explain(%s) does not mention the strategy:\n%s", s, e)
		}
		c, err := p.EstimatedCost()
		if err != nil {
			t.Errorf("EstimatedCost(%s): %v", s, err)
		} else if c.MemoryKB <= 0 || c.CPU <= 0 {
			t.Errorf("EstimatedCost(%s) = %+v, want positive costs", s, c)
		}
	}
	// The chain model prefers state-slice over pull-up on the motivating
	// two-query shape, mirroring Eq. (1) vs Eq. (3).
	sl, err := stateslice.Build(w, stateslice.MemOpt)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := stateslice.Build(w, stateslice.PullUp)
	if err != nil {
		t.Fatal(err)
	}
	slc, err := sl.EstimatedCost()
	if err != nil {
		t.Fatal(err)
	}
	puc, err := pu.EstimatedCost()
	if err != nil {
		t.Fatal(err)
	}
	if slc.MemoryKB >= puc.MemoryKB {
		t.Errorf("chain modelled memory %.1f KB, pull-up %.1f KB; chain must win", slc.MemoryKB, puc.MemoryKB)
	}
	// Eq. (1)/(2) are two-query formulas.
	three := stateslice.Workload{
		Queries: []stateslice.Query{
			{Window: 1 * stateslice.Second},
			{Window: 2 * stateslice.Second},
			{Window: 3 * stateslice.Second},
		},
		Join: stateslice.FractionMatch{S: 0.1},
	}
	p3, err := stateslice.Build(three, stateslice.PullUp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.EstimatedCost(); err == nil {
		t.Error("pull-up EstimatedCost must reject non-two-query workloads")
	}
}

// TestBuildOptionValidation pins the option/strategy compatibility matrix
// and the strategy name round-trip.
func TestBuildOptionValidation(t *testing.T) {
	w := exampleWorkload()
	if _, err := stateslice.Build(w, stateslice.PullUp, stateslice.WithEnds(8*stateslice.Second)); err == nil {
		t.Error("WithEnds on pull-up must fail")
	}
	if _, err := stateslice.Build(w, stateslice.CPUOpt, stateslice.WithEnds(8*stateslice.Second)); err == nil {
		t.Error("WithEnds on cpu-opt must fail")
	}
	if _, err := stateslice.Build(w, stateslice.Unshared, stateslice.WithMigratable()); err == nil {
		t.Error("WithMigratable on unshared must fail")
	}
	p, err := stateslice.Build(w, stateslice.MemOpt,
		stateslice.WithEnds(8*stateslice.Second), stateslice.WithName("custom-chain"))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Ends()); got != 1 {
		t.Errorf("explicit single boundary built %d slices", got)
	}
	if p.Name() != "custom-chain" {
		t.Errorf("WithName ignored: %q", p.Name())
	}
	for _, s := range stateslice.Strategies() {
		back, err := stateslice.ParseStrategy(s.String())
		if err != nil || back != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), back, err)
		}
	}
	if _, err := stateslice.ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy must reject unknown names")
	}
}

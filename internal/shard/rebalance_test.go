package shard

import (
	"fmt"
	"testing"

	"stateslice/internal/engine"
	"stateslice/internal/plan"
	"stateslice/internal/stream"
)

// Executor-level rebalancing tests: a mid-stream Rebalance must keep the
// merged output byte-identical to the sequential engine on both merge
// topologies and both partitioning schemes, must refuse to move on
// unimprovable skew, and must round-trip its learned cuts through the
// sharded checkpoint format.

// restoreFn mirrors factory for the rebuild path.
func restoreFn(w plan.Workload, cfg plan.StateSliceConfig) func(int, *plan.ChainCheckpoint) (*plan.StateSlicePlan, error) {
	return func(_ int, cp *plan.ChainCheckpoint) (*plan.StateSlicePlan, error) {
		return plan.RestoreStateSlice(w, cfg, cp)
	}
}

// runRebalanced drives input through the executor with a manual Rebalance at
// each of the given positions, returning the final result and whether any
// rebalance moved state.
func runRebalanced(t *testing.T, e *Executor, input []*stream.Tuple, at ...int) (*engine.Result, bool) {
	t.Helper()
	moved := false
	prev := 0
	for _, pos := range append(at, len(input)) {
		if err := e.Consume(stream.NewSliceSource(input[prev:pos])); err != nil {
			t.Fatal(err)
		}
		if pos == len(input) {
			break
		}
		m, err := e.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		moved = moved || m
		prev = pos
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res, moved
}

// TestRebalanceBandByteIdentical rebalances a quadratic-skew band feed
// mid-stream on every shard count and both merge topologies: ownership must
// actually move (the skew is clearly improvable) and the merged output must
// stay byte-identical to the sequential engine across the boundary.
func TestRebalanceBandByteIdentical(t *testing.T) {
	const dom = 64
	w := bandWorkload(1, 2*stream.Second, 5*stream.Second, 9*stream.Second)
	input := testInput(t, 9, dom)
	for _, tp := range input {
		tp.Key = (tp.Key * tp.Key) / dom
	}
	ref := engineRef(t, w, input)
	if ref.TotalOutputs() == 0 {
		t.Fatal("reference produced no results; the equivalence check is vacuous")
	}
	for _, p := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("p=%d/query-merge", p), func(t *testing.T) {
			cfg := bandConfig(p, 1, dom)
			cfg.Collect = true
			cfg.RestoreFn = restoreFn(w, plan.StateSliceConfig{})
			e, err := New(cfg, factory(w, plan.StateSliceConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			res, moved := runRebalanced(t, e, input, len(input)/3)
			if !moved {
				t.Error("rebalance refused to move state on a quadratic skew")
			}
			assertByteIdentical(t, fmt.Sprintf("rebalanced band p=%d", p), res, ref)
		})
		t.Run(fmt.Sprintf("p=%d/slice-merge", p), func(t *testing.T) {
			cfg := bandConfig(p, 1, dom)
			cfg.Collect = true
			cfg.SliceMerge = true
			for _, q := range w.Queries {
				cfg.Windows = append(cfg.Windows, q.Window)
			}
			cfg.RestoreFn = restoreFn(w, plan.StateSliceConfig{RawSliceResults: true})
			e, err := New(cfg, factory(w, plan.StateSliceConfig{RawSliceResults: true}))
			if err != nil {
				t.Fatal(err)
			}
			res, moved := runRebalanced(t, e, input, len(input)/3)
			if !moved {
				t.Error("rebalance refused to move state on a quadratic skew")
			}
			assertByteIdentical(t, fmt.Sprintf("rebalanced band p=%d slice-merge", p), res, ref)
		})
	}
}

// TestRebalanceHashByteIdentical is the equijoin variant: learned hash-space
// cuts replace the fixed mix-mod split mid-stream, with byte-identical
// merged output.
func TestRebalanceHashByteIdentical(t *testing.T) {
	const dom = 16
	w := chainWorkload(2*stream.Second, 6*stream.Second)
	input := testInput(t, 5, dom)
	for _, tp := range input {
		tp.Key = (tp.Key * tp.Key) / dom
	}
	ref := engineRef(t, w, input)
	if ref.TotalOutputs() == 0 {
		t.Fatal("reference produced no results")
	}
	for _, p := range []int{2, 4} {
		cfg := Config{Shards: p, PunctEvery: 64, Collect: true,
			RestoreFn: restoreFn(w, plan.StateSliceConfig{})}
		e, err := New(cfg, factory(w, plan.StateSliceConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		res, moved := runRebalanced(t, e, input, len(input)/3, 2*len(input)/3)
		if !moved {
			t.Errorf("p=%d: no rebalance moved state on a skewed equijoin feed", p)
		}
		assertByteIdentical(t, fmt.Sprintf("rebalanced hash p=%d", p), res, ref)
	}
}

// TestRebalanceSingleHotKeyNoOp pins the degenerate skew end to end: all
// mass on one key is maximally imbalanced yet unimprovable, so Rebalance
// must report a no-op — and keep reporting it — while the session stays
// healthy and byte-identical.
func TestRebalanceSingleHotKeyNoOp(t *testing.T) {
	const dom = 16
	w := bandWorkload(1, 3*stream.Second, 7*stream.Second)
	input := testInput(t, 13, 2)
	for _, tp := range input {
		tp.Key = 13
	}
	ref := engineRef(t, w, input)
	cfg := bandConfig(4, 1, dom)
	cfg.Collect = true
	cfg.RestoreFn = restoreFn(w, plan.StateSliceConfig{})
	e, err := New(cfg, factory(w, plan.StateSliceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Consume(stream.NewSliceSource(input[:len(input)/2])); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if moved, err := e.Rebalance(); err != nil || moved {
			t.Fatalf("Rebalance on a single hot key = (%v, %v), want a clean no-op", moved, err)
		}
	}
	if err := e.Consume(stream.NewSliceSource(input[len(input)/2:])); err != nil {
		t.Fatal(err)
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, "single hot key no-op", res, ref)
}

// TestRebalanceSingleShardNoOp: one replica has nothing to rebalance.
func TestRebalanceSingleShardNoOp(t *testing.T) {
	w := chainWorkload(2 * stream.Second)
	e, err := New(Config{Shards: 1, Collect: true,
		RestoreFn: restoreFn(w, plan.StateSliceConfig{})}, factory(w, plan.StateSliceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Consume(stream.NewSliceSource(testInput(t, 1, 8)[:200])); err != nil {
		t.Fatal(err)
	}
	if moved, err := e.Rebalance(); err != nil || moved {
		t.Fatalf("Rebalance on one shard = (%v, %v), want a clean no-op", moved, err)
	}
	if _, err := e.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceCheckpointRoundTrip rebalances, checkpoints, round-trips the
// blob through Encode/Decode and restores into a fresh executor: the learned
// cuts must survive the trip, and the pre-checkpoint plus post-restore
// outputs must concatenate to exactly the sequential run.
func TestRebalanceCheckpointRoundTrip(t *testing.T) {
	const dom = 16
	w := bandWorkload(1, 2*stream.Second, 5*stream.Second)
	input := testInput(t, 9, dom)
	for _, tp := range input {
		tp.Key = (tp.Key * tp.Key) / dom
	}
	ref := engineRef(t, w, input)
	half := len(input) / 2

	cfg := bandConfig(4, 1, dom)
	cfg.Collect = true
	cfg.RestoreFn = restoreFn(w, plan.StateSliceConfig{})
	e, err := New(cfg, factory(w, plan.StateSliceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Consume(stream.NewSliceSource(input[:half])); err != nil {
		t.Fatal(err)
	}
	moved, err := e.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("rebalance refused to move state; the round trip would not cover learned cuts")
	}
	liveCuts := append([]int64(nil), e.rpart.Cuts()...)
	if liveCuts == nil {
		t.Fatal("no learned cuts installed after a successful rebalance")
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(dec.BandCuts) != fmt.Sprint(liveCuts) {
		t.Fatalf("band cuts %v did not round-trip (got %v)", liveCuts, dec.BandCuts)
	}
	if dec.HashCuts != nil {
		t.Fatalf("band checkpoint decoded hash cuts %v", dec.HashCuts)
	}
	resA, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}

	rcfg := bandConfig(4, 1, dom)
	rcfg.Collect = true
	rcfg.RestoreFn = restoreFn(w, plan.StateSliceConfig{})
	rcfg.Restore = dec
	re, err := New(rcfg, factory(w, plan.StateSliceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(re.rpart.Cuts()); got != fmt.Sprint(liveCuts) {
		t.Fatalf("restore installed cuts %s, want %v", got, liveCuts)
	}
	if err := re.Consume(stream.NewSliceSource(input[half:])); err != nil {
		t.Fatal(err)
	}
	resB, err := re.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// resA holds everything the pre-checkpoint half emitted (Finish after
	// Checkpoint finalizes the same session); resB continues from the
	// restored frontier. Together they must be the sequential run.
	for qi := range ref.Results {
		both := append(append([]*stream.Tuple(nil), resA.Results[qi]...), resB.Results[qi]...)
		if d := diffResults(both, ref.Results[qi]); d != "" {
			t.Errorf("query %d: checkpoint/restore around a rebalance is not byte-identical to the sequential run: %s", qi, d)
		}
	}

	// A version-1 guard: cut vectors shaped wrong for the executor fail
	// restore validation up front.
	bad := *dec
	bad.BandCuts = []int64{1}
	if _, err := New(func() Config {
		c := bandConfig(4, 1, dom)
		c.RestoreFn = restoreFn(w, plan.StateSliceConfig{})
		c.Restore = &bad
		return c
	}(), factory(w, plan.StateSliceConfig{})); err == nil {
		t.Error("restore accepted a checkpoint with a wrong-length cut vector")
	}
}

// TestRebalanceOwnership pins the live ownership table: one entry per shard,
// contiguous band ranges under the installed cuts, shares summing to 1 once
// load was observed.
func TestRebalanceOwnership(t *testing.T) {
	const dom = 16
	w := bandWorkload(1, 3*stream.Second)
	input := testInput(t, 9, dom)
	for _, tp := range input {
		tp.Key = (tp.Key * tp.Key) / dom
	}
	cfg := bandConfig(4, 1, dom)
	cfg.Collect = true
	cfg.RestoreFn = restoreFn(w, plan.StateSliceConfig{})
	e, err := New(cfg, factory(w, plan.StateSliceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Consume(stream.NewSliceSource(input[:len(input)/2])); err != nil {
		t.Fatal(err)
	}
	if moved, err := e.Rebalance(); err != nil || !moved {
		t.Fatalf("Rebalance = (%v, %v), want a move", moved, err)
	}
	if err := e.Consume(stream.NewSliceSource(input[len(input)/2:])); err != nil {
		t.Fatal(err)
	}
	own := e.Ownership()
	if len(own) != 4 {
		t.Fatalf("Ownership returned %d entries for 4 shards", len(own))
	}
	var total float64
	for i, os := range own {
		if os.Shard != i {
			t.Errorf("entry %d describes shard %d", i, os.Shard)
		}
		if os.Range == "" {
			t.Errorf("shard %d has an empty range description", i)
		}
		total += os.Share
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("ownership shares sum to %v, want 1", total)
	}
	if _, err := e.Finish(); err != nil {
		t.Fatal(err)
	}
}

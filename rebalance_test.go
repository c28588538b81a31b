package stateslice_test

// Rebalancing through the public API: the acceptance skew-sweep (learned
// equi-depth ranges must beat the fixed Build-time split by >= 2x on the
// per-replica probe-comparison imbalance of a quadratic-skew band feed at
// p=8, byte-identically), the WithRebalance auto-trigger, the live ownership
// table in Explain, and the option's validation surface.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"stateslice"
)

// skewedBandInput generates a band-join feed whose keys follow a quadratic
// skew: k -> floor(k^2/dom) is concave, so the low keys soak up most of the
// mass while a fixed equi-width range split leaves the high shards idle.
func skewedBandInput(t testing.TB, seed int64, dom int64) []*stateslice.Tuple {
	t.Helper()
	input, err := stateslice.Generate(stateslice.GeneratorConfig{
		RateA: 40, RateB: 40, Duration: 20 * stateslice.Second, KeyDomain: dom, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range input {
		tp.Key = (tp.Key * tp.Key) / dom
	}
	return input
}

// probeImbalance returns the max/mean ratio of the per-replica probe
// comparison counts.
func probeImbalance(t *testing.T, res *stateslice.Result) float64 {
	t.Helper()
	if len(res.ReplicaComparisons) == 0 {
		t.Fatal("result carries no per-replica comparison counts")
	}
	var max, sum uint64
	for _, c := range res.ReplicaComparisons {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		t.Fatal("no probe comparisons recorded; the skew measurement is vacuous")
	}
	return float64(max) * float64(len(res.ReplicaComparisons)) / float64(sum)
}

// runShardedBand drives the skewed input through a sharded band session,
// rebalancing at each position in `at`, and returns the result.
func runShardedBand(t *testing.T, w stateslice.Workload, input []*stateslice.Tuple, dom int64, shards int, at []int, extra ...stateslice.Option) *stateslice.Result {
	t.Helper()
	opts := append([]stateslice.Option{
		stateslice.WithShards(shards), stateslice.WithKeyRange(0, dom-1), stateslice.WithCollect(),
	}, extra...)
	p, err := stateslice.Build(w, stateslice.MemOpt, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(context.Background())
	prev := 0
	for _, pos := range append(append([]int(nil), at...), len(input)) {
		if err := sess.Consume(stateslice.SliceSource(input[prev:pos])); err != nil {
			t.Fatal(err)
		}
		if pos == len(input) {
			break
		}
		moved, err := sess.Rebalance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !moved {
			t.Fatal("Rebalance refused to move state on a quadratic-skew band feed")
		}
		prev = pos
	}
	res := sess.Finish()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

// TestRebalanceSkewImprovement is the acceptance criterion: on a
// quadratic-skew band feed at p=8, a mid-stream rebalance must improve the
// max/mean per-replica probe-comparison ratio by at least 2x over the fixed
// partitioner, with byte-identical merged output.
func TestRebalanceSkewImprovement(t *testing.T) {
	const dom = 64
	w := bandWorkloadAPI(1)
	input := skewedBandInput(t, 9, dom)
	ref := sequentialReference(t, w, input)

	fixed := runShardedBand(t, w, input, dom, 8, nil)
	if got := renderResults(fixed.Results); got != ref {
		t.Fatal("fixed-partitioner sharded output differs from the sequential engine")
	}
	rebalanced := runShardedBand(t, w, input, dom, 8, []int{len(input) / 8})
	if got := renderResults(rebalanced.Results); got != ref {
		t.Fatal("rebalanced sharded output differs from the sequential engine")
	}

	fixedImb := probeImbalance(t, fixed)
	rebImb := probeImbalance(t, rebalanced)
	t.Logf("probe-comparison max/mean: fixed %.2f, rebalanced %.2f (%.2fx)", fixedImb, rebImb, fixedImb/rebImb)
	if fixedImb < 2 {
		t.Fatalf("fixed split imbalance %.2f; the skew scenario is too tame to accept against", fixedImb)
	}
	if fixedImb/rebImb < 2 {
		t.Errorf("rebalance improved the probe imbalance only %.2fx (fixed %.2f -> %.2f), want >= 2x",
			fixedImb/rebImb, fixedImb, rebImb)
	}
}

// TestRebalanceAutoTrigger pins WithRebalance: a sustained skew must trigger
// the move from the feed path with no Rebalance call, keep the output
// byte-identical, and land a near-balanced delivery share visible in the
// Explain ownership table.
func TestRebalanceAutoTrigger(t *testing.T) {
	const dom = 64
	w := bandWorkloadAPI(1)
	input := skewedBandInput(t, 11, dom)
	ref := sequentialReference(t, w, input)

	p, err := stateslice.Build(w, stateslice.MemOpt,
		stateslice.WithShards(8), stateslice.WithKeyRange(0, dom-1), stateslice.WithCollect(),
		stateslice.WithRebalance(stateslice.Rebalance{Threshold: 1.3, CheckEvery: 256, Sustained: 2}))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(context.Background())
	if err := sess.Consume(stateslice.SliceSource(input)); err != nil {
		t.Fatal(err)
	}
	explain := p.Explain()
	if !strings.Contains(explain, "ownership (live)") || !strings.Contains(explain, "shard 7") {
		t.Errorf("Explain on a live sharded session lacks the ownership table:\n%s", explain)
	}
	res := sess.Finish()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := renderResults(res.Results); got != ref {
		t.Fatal("auto-rebalanced output differs from the sequential engine")
	}
	// The trigger must actually have fired: with learned cuts installed the
	// probe imbalance lands well under the fixed split's.
	fixed := runShardedBand(t, w, input, dom, 8, nil)
	fixedImb, autoImb := probeImbalance(t, fixed), probeImbalance(t, res)
	t.Logf("probe-comparison max/mean: fixed %.2f, auto-rebalanced %.2f", fixedImb, autoImb)
	if autoImb >= fixedImb {
		t.Errorf("auto trigger never improved the probe imbalance (fixed %.2f, auto %.2f)", fixedImb, autoImb)
	}
}

// TestRebalanceValidation pins the option's misuse surface.
func TestRebalanceValidation(t *testing.T) {
	w := bandWorkloadAPI(1)
	if _, err := stateslice.Build(w, stateslice.MemOpt,
		stateslice.WithRebalance(stateslice.Rebalance{})); err == nil {
		t.Error("WithRebalance without WithShards must fail at Build")
	}

	// A sequential session has nothing to rebalance: ErrNotSharded.
	p, err := stateslice.Build(chaosWorkload(), stateslice.MemOpt)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(context.Background())
	if _, err := sess.Rebalance(context.Background()); !errors.Is(err, stateslice.ErrNotSharded) {
		t.Errorf("sequential Rebalance returned %v, want ErrNotSharded", err)
	}

	// A cancelled context gates entry.
	sp, err := stateslice.Build(chaosWorkload(), stateslice.MemOpt, stateslice.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	ssess, err := sp.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ssess.Close(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ssess.Rebalance(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Rebalance with a cancelled context returned %v, want context.Canceled", err)
	}
}

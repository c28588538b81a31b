package shard

import (
	"fmt"
	"testing"

	"stateslice/internal/engine"
	"stateslice/internal/plan"
	"stateslice/internal/stream"
)

// These tests pin the central claim of sharded execution: hash-partitioning
// an equijoin workload across P chain replicas and merging the replica
// outputs delivers byte-identical per-query result sequences — same tuples,
// same delivery order — as the sequential engine, at every shard count,
// under uniform and heavily skewed key distributions, with and without
// pushed-down selections, and across a mid-stream migration.

// shardCounts is the sweep under test.
var shardCounts = []int{1, 2, 4, 8}

// chainWorkload builds an equijoin workload over the given windows.
func chainWorkload(windows ...stream.Time) plan.Workload {
	w := plan.Workload{Join: stream.Equijoin{}}
	for _, win := range windows {
		w.Queries = append(w.Queries, plan.Query{Window: win})
	}
	return w
}

// testInput generates a keyed two-stream workload.
func testInput(t testing.TB, seed int64, keyDomain int64) []*stream.Tuple {
	t.Helper()
	input, err := stream.Generate(stream.GeneratorConfig{
		RateA: 40, RateB: 40,
		Duration:  20 * stream.Second,
		KeyDomain: keyDomain,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return input
}

// sameResult compares the identity of two joined results: the probing
// tuple's (Time, Seq) and both sources.
func sameResult(a, b *stream.Tuple) bool {
	return a.Time == b.Time && a.Seq == b.Seq &&
		a.A.Stream == b.A.Stream && a.A.Ord == b.A.Ord &&
		a.B.Stream == b.B.Stream && a.B.Ord == b.B.Ord
}

// renderResult formats one joined result for failure messages.
func renderResult(t *stream.Tuple) string {
	return fmt.Sprintf("%d/%d:(%d.%d,%d.%d)", t.Time, t.Seq, t.A.Stream, t.A.Ord, t.B.Stream, t.B.Ord)
}

// diffResults returns "" when two result sequences are identical, and
// otherwise describes their first difference.
func diffResults(got, want []*stream.Tuple) string {
	for i := range min(len(got), len(want)) {
		if !sameResult(got[i], want[i]) {
			return fmt.Sprintf("result %d is %s, want %s", i, renderResult(got[i]), renderResult(want[i]))
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	return ""
}

// factory returns a replica builder over a fixed workload and chain config.
func factory(w plan.Workload, cfg plan.StateSliceConfig) func(int) (*plan.StateSlicePlan, error) {
	return func(int) (*plan.StateSlicePlan, error) {
		return plan.BuildStateSlice(w, cfg)
	}
}

// engineRef runs the workload on the sequential per-tuple engine.
func engineRef(t *testing.T, w plan.Workload, input []*stream.Tuple) *engine.Result {
	t.Helper()
	sp, err := plan.BuildStateSlice(w, plan.StateSliceConfig{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(sp.Plan, input, engine.Config{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OrderViolations != 0 {
		t.Fatalf("reference run had %d order violations", res.OrderViolations)
	}
	return res
}

// runSharded executes the workload on the sharded executor (query-level
// merge path).
func runSharded(t *testing.T, w plan.Workload, input []*stream.Tuple, cfg Config) *engine.Result {
	t.Helper()
	cfg.Collect = true
	e, err := New(cfg, factory(w, plan.StateSliceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(stream.NewSliceSource(input))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runSlicedMerge executes the workload on the slice-merge fast path.
func runSlicedMerge(t *testing.T, w plan.Workload, input []*stream.Tuple, cfg Config) *engine.Result {
	t.Helper()
	cfg.Collect = true
	cfg.SliceMerge = true
	for _, q := range w.Queries {
		cfg.Windows = append(cfg.Windows, q.Window)
	}
	e, err := New(cfg, factory(w, plan.StateSliceConfig{RawSliceResults: true}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(stream.NewSliceSource(input))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertByteIdentical compares per-query result sequences and order.
func assertByteIdentical(t *testing.T, label string, got, want *engine.Result) {
	t.Helper()
	if got.OrderViolations != 0 {
		t.Errorf("%s: %d order violations", label, got.OrderViolations)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d queries, want %d", label, len(got.Results), len(want.Results))
	}
	for qi := range want.Results {
		if got.SinkCounts[qi] != want.SinkCounts[qi] {
			t.Errorf("%s: query %d delivered %d results, want %d",
				label, qi, got.SinkCounts[qi], want.SinkCounts[qi])
			continue
		}
		if d := diffResults(got.Results[qi], want.Results[qi]); d != "" {
			t.Errorf("%s: query %d result sequence differs from the sequential engine: %s", label, qi, d)
		}
	}
}

func TestShardedByteIdenticalUniformKeys(t *testing.T) {
	windows := []stream.Time{2 * stream.Second, 5 * stream.Second, 5 * stream.Second, 9 * stream.Second}
	w := chainWorkload(windows...)
	for seed := int64(1); seed <= 2; seed++ {
		input := testInput(t, seed, 16)
		ref := engineRef(t, w, input)
		if ref.TotalOutputs() == 0 {
			t.Fatal("reference produced no results; the equivalence check is vacuous")
		}
		for _, p := range shardCounts {
			res := runSharded(t, w, input, Config{Shards: p})
			assertByteIdentical(t, fmt.Sprintf("seed %d p=%d", seed, p), res, ref)
			res = runSlicedMerge(t, w, input, Config{Shards: p})
			assertByteIdentical(t, fmt.Sprintf("seed %d p=%d slice-merge", seed, p), res, ref)
		}
	}
}

// TestSliceMergeSkewAndBatch exercises the slice-merge fast path under the
// stressors of the query-level tests: skewed keys, a single hot key, and
// batched replicas.
func TestSliceMergeSkewAndBatch(t *testing.T) {
	w := chainWorkload(2*stream.Second, 6*stream.Second)
	const dom = 16
	input := testInput(t, 3, dom)
	for _, tp := range input {
		tp.Key = (tp.Key * tp.Key) / dom
	}
	ref := engineRef(t, w, input)
	for _, p := range shardCounts {
		res := runSlicedMerge(t, w, input, Config{Shards: p, PunctEvery: 64})
		assertByteIdentical(t, fmt.Sprintf("skew p=%d", p), res, ref)
	}

	hot := testInput(t, 4, dom)
	for _, tp := range hot {
		tp.Key = 5
	}
	hotRef := engineRef(t, w, hot)
	for _, p := range []int{2, 8} {
		res := runSlicedMerge(t, w, hot, Config{Shards: p, PunctEvery: 64})
		assertByteIdentical(t, fmt.Sprintf("hot-key p=%d", p), res, hotRef)
	}

	for _, k := range []int{7, -1} {
		res := runSlicedMerge(t, w, input, Config{Shards: 4, BatchSize: k})
		assertByteIdentical(t, fmt.Sprintf("slice-merge k=%d", k), res, ref)
	}
}

// TestRawSliceResultsValidation pins the eligibility rules of the raw
// replica mode behind the fast path.
func TestRawSliceResultsValidation(t *testing.T) {
	w := chainWorkload(2*stream.Second, 6*stream.Second)
	if _, err := plan.BuildStateSlice(w, plan.StateSliceConfig{RawSliceResults: true, Migratable: true}); err == nil {
		t.Error("RawSliceResults with Migratable must fail")
	}
	filtered := w
	filtered.Queries = append([]plan.Query(nil), w.Queries...)
	filtered.Queries[1].Filter = stream.Threshold{S: 0.5}
	if _, err := plan.BuildStateSlice(filtered, plan.StateSliceConfig{RawSliceResults: true}); err == nil {
		t.Error("RawSliceResults with filters must fail")
	}
	merged := plan.StateSliceConfig{RawSliceResults: true, Ends: []stream.Time{6 * stream.Second}}
	if _, err := plan.BuildStateSlice(w, merged); err == nil {
		t.Error("RawSliceResults with a window inside a merged slice must fail")
	}
}

// TestShardedBatchedReplicas exercises non-trivial engine micro-batches and
// a small punctuation period inside the replicas.
func TestShardedBatchedReplicas(t *testing.T) {
	w := chainWorkload(3*stream.Second, 8*stream.Second)
	input := testInput(t, 7, 16)
	ref := engineRef(t, w, input)
	for _, k := range []int{7, 64, -1} {
		res := runSharded(t, w, input, Config{Shards: 4, BatchSize: k, PunctEvery: 32})
		assertByteIdentical(t, fmt.Sprintf("k=%d", k), res, ref)
	}
}

// TestShardedSkewedKeys maps the uniform key domain through a quadratic so
// low keys dominate, plus the pathological single hot key where all state
// lives on one shard and every other replica only ever sees punctuation
// broadcasts.
func TestShardedSkewedKeys(t *testing.T) {
	w := chainWorkload(2*stream.Second, 6*stream.Second)
	const dom = 16
	for _, tc := range []struct {
		name string
		key  func(int64) int64
	}{
		{"quadratic-skew", func(k int64) int64 { return (k * k) / dom }},
		{"single-hot-key", func(int64) int64 { return 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			input := testInput(t, 3, dom)
			for _, tp := range input {
				tp.Key = tc.key(tp.Key)
			}
			ref := engineRef(t, w, input)
			if ref.TotalOutputs() == 0 {
				t.Fatal("reference produced no results")
			}
			for _, p := range shardCounts {
				res := runSharded(t, w, input, Config{Shards: p, PunctEvery: 64})
				assertByteIdentical(t, fmt.Sprintf("p=%d", p), res, ref)
			}
		})
	}
}

// TestShardedFilteredWorkload shards a chain with pushed-down selections on
// both streams: partitioning by key is orthogonal to the lineage machinery.
func TestShardedFilteredWorkload(t *testing.T) {
	w := plan.Workload{
		Queries: []plan.Query{
			{Window: 2 * stream.Second},
			{Window: 6 * stream.Second, Filter: stream.Threshold{S: 0.5}},
			{Window: 9 * stream.Second, Filter: stream.Threshold{S: 0.3}, FilterB: stream.Threshold{S: 0.6}},
		},
		Join: stream.Equijoin{},
	}
	input := testInput(t, 5, 8)
	ref := engineRef(t, w, input)
	if ref.TotalOutputs() == 0 {
		t.Fatal("reference produced no results")
	}
	for _, p := range []int{2, 5} {
		res := runSharded(t, w, input, Config{Shards: p})
		assertByteIdentical(t, fmt.Sprintf("filtered p=%d", p), res, ref)
	}
}

// TestShardedMigrationMidStream re-slices every replica mid-stream — merge
// to one slice, then split at a boundary the chain never had — and checks
// the results stay byte-identical to a sequential session migrated at the
// same stream position.
func TestShardedMigrationMidStream(t *testing.T) {
	w := chainWorkload(3*stream.Second, 8*stream.Second)
	input := testInput(t, 11, 16)
	half := len(input) / 2
	mig1 := []stream.Time{8 * stream.Second}
	mig2 := []stream.Time{5 * stream.Second, 8 * stream.Second}

	// Sequential reference: same migrations at the same position.
	refSP, err := plan.BuildStateSlice(w, plan.StateSliceConfig{Migratable: true, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	refSess, err := engine.NewSession(refSP.Plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range input {
		if i == half {
			if err := refSP.MigrateTo(refSess, mig1); err != nil {
				t.Fatal(err)
			}
			if err := refSP.MigrateTo(refSess, mig2); err != nil {
				t.Fatal(err)
			}
		}
		if err := refSess.Feed(tp); err != nil {
			t.Fatal(err)
		}
	}
	ref := refSess.Finish()
	if ref.OrderViolations != 0 {
		t.Fatalf("reference migration run had %d order violations", ref.OrderViolations)
	}

	for _, p := range shardCounts {
		e, err := New(Config{Shards: p, Collect: true},
			factory(w, plan.StateSliceConfig{Migratable: true}))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Consume(stream.NewSliceSource(input[:half])); err != nil {
			t.Fatal(err)
		}
		ends, err := e.Migrate(mig1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ends) != 1 {
			t.Fatalf("p=%d: %d slices after merge migration", p, len(ends))
		}
		ends, err = e.Migrate(mig2)
		if err != nil {
			t.Fatal(err)
		}
		if len(ends) != 2 {
			t.Fatalf("p=%d: %d slices after split migration", p, len(ends))
		}
		if err := e.Consume(stream.NewSliceSource(input[half:])); err != nil {
			t.Fatal(err)
		}
		res, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}
		assertByteIdentical(t, fmt.Sprintf("migrated p=%d", p), res, ref)
	}
}

// TestShardedErrors pins the executor's validation surface.
func TestShardedErrors(t *testing.T) {
	w := chainWorkload(2 * stream.Second)
	if _, err := New(Config{Shards: 0}, factory(w, plan.StateSliceConfig{})); err == nil {
		t.Error("Shards=0 must fail")
	}
	e, err := New(Config{Shards: 2}, factory(w, plan.StateSliceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	b := stream.ManualBuilder{}
	t2 := b.Add(stream.StreamA, 2*stream.Second)
	t1 := b.Add(stream.StreamB, 1*stream.Second)
	if err := e.Feed(t2); err != nil {
		t.Fatal(err)
	}
	if err := e.Feed(t1); err == nil {
		t.Error("out-of-order feed must fail")
	}
	if _, err := e.Migrate([]stream.Time{1 * stream.Second}); err == nil {
		t.Error("migrating a non-migratable replica must fail")
	}
	if _, err := e.Finish(); err != nil {
		t.Fatalf("finish after rejected feed: %v", err)
	}
	if err := e.Feed(t1); err == nil {
		t.Error("Feed after Finish must fail")
	}
}

// TestPartitionerSpreadsAndIsDeterministic checks the partitioner covers
// every shard on a modest uniform domain and never moves a key.
func TestPartitionerSpreadsAndIsDeterministic(t *testing.T) {
	p := NewPartitioner(8)
	seen := make(map[int]int)
	for k := int64(0); k < 64; k++ {
		s := p.Shard(k)
		if s < 0 || s >= 8 {
			t.Fatalf("key %d mapped to shard %d", k, s)
		}
		if s2 := p.Shard(k); s2 != s {
			t.Fatalf("key %d not deterministic: %d then %d", k, s, s2)
		}
		seen[s]++
	}
	if len(seen) != 8 {
		t.Errorf("64 uniform keys covered only %d of 8 shards", len(seen))
	}
	if NewPartitioner(1).Shard(12345) != 0 {
		t.Error("single shard must own every key")
	}
}

// TestPartitionerSpreadsClusteredKeys pins the reason the partitioner mixes
// through splitmix64 before the modulo: consecutive or clustered key values
// — the common case for auto-incremented or range-allocated keys, which a
// plain `key mod p` would send to shards round-robin within each cluster
// but pathologically for stride-p clusters — must still spread near
// uniformly across every shard. The mix is deterministic, so the bounds are
// exact, not flaky.
func TestPartitionerSpreadsClusteredKeys(t *testing.T) {
	const shards = 8
	p := NewPartitioner(shards)
	for _, tc := range []struct {
		name string
		keys func() []int64
	}{
		{"consecutive", func() []int64 {
			keys := make([]int64, 0, 4096)
			for k := int64(1_000_000); k < 1_004_096; k++ {
				keys = append(keys, k)
			}
			return keys
		}},
		{"strided clusters", func() []int64 {
			// Three far-apart clusters with stride equal to the shard
			// count — the worst case for an unmixed modulo, which would
			// map each whole cluster onto a single shard.
			var keys []int64
			for _, base := range []int64{0, 1 << 32, 7_777_777_777} {
				for i := int64(0); i < 1024; i++ {
					keys = append(keys, base+i*shards)
				}
			}
			return keys
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := tc.keys()
			counts := make([]int, shards)
			for _, k := range keys {
				counts[p.Shard(k)]++
			}
			mean := float64(len(keys)) / shards
			for s, c := range counts {
				if f := float64(c); f < 0.75*mean || f > 1.25*mean {
					t.Errorf("shard %d holds %d of %d keys (mean %.0f); clustered keys must spread near uniformly",
						s, c, len(keys), mean)
				}
			}
		})
	}
}

package stateslice_test

// Tests of the WithShards execution path through the public API: build-time
// validation of executor/option conflicts, byte-identical sharded execution
// across shard counts, sessions with mid-stream migration, and streaming
// sinks.

import (
	"strings"
	"sync"
	"testing"

	"stateslice"
)

// equijoinWorkload is the sharding-eligible example: same windows and
// filters as exampleWorkload, but joined on the key attribute.
func equijoinWorkload() stateslice.Workload {
	return stateslice.Workload{
		Queries: []stateslice.Query{
			{Name: "Q1", Window: 2 * stateslice.Second},
			{Name: "Q2", Window: 8 * stateslice.Second, Filter: stateslice.Threshold{S: 0.4}},
		},
		Join: stateslice.Equijoin{},
	}
}

// keyedInput generates a keyed input for equijoin workloads.
func keyedInput(t *testing.T) []*stateslice.Tuple {
	t.Helper()
	input, err := stateslice.Generate(stateslice.GeneratorConfig{
		RateA: 25, RateB: 25, Duration: 30 * stateslice.Second, KeyDomain: 12, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return input
}

// TestWithShardsValidation pins the build-time rules: exactly one executor
// per plan, chain strategies only, key-partitionable joins only.
func TestWithShardsValidation(t *testing.T) {
	eq := equijoinWorkload()
	for _, tc := range []struct {
		name string
		w    stateslice.Workload
		s    stateslice.Strategy
		opts []stateslice.Option
	}{
		{"zero shards", eq, stateslice.MemOpt, []stateslice.Option{stateslice.WithShards(0)}},
		{"negative shards", eq, stateslice.MemOpt, []stateslice.Option{stateslice.WithShards(-2)}},
		{"non-equijoin predicate", exampleWorkload(), stateslice.MemOpt, []stateslice.Option{stateslice.WithShards(2)}},
		{"non-chain strategy", eq, stateslice.PullUp, []stateslice.Option{stateslice.WithShards(2)}},
		{"with hash probing", eq, stateslice.MemOpt, []stateslice.Option{stateslice.WithShards(2), stateslice.WithHashProbing()}},
	} {
		if _, err := stateslice.Build(tc.w, tc.s, tc.opts...); err == nil {
			t.Errorf("%s: Build must fail", tc.name)
		}
	}

	// The compatible combinations build.
	for _, opts := range [][]stateslice.Option{
		{stateslice.WithShards(1)},
		{stateslice.WithShards(4), stateslice.WithBatchSize(8)},
		{stateslice.WithShards(4), stateslice.WithMigratable()},
		{stateslice.WithShards(2), stateslice.WithEnds(8 * stateslice.Second)},
		{stateslice.WithShards(2)},
	} {
		if _, err := stateslice.Build(eq, stateslice.MemOpt, opts...); err != nil {
			t.Errorf("compatible options rejected: %v", err)
		}
	}
}

// TestWithShardsByteIdentical runs the equijoin workload sharded at every
// p and compares per-query result sequences byte-for-byte against the
// sequential engine, including batched replicas and the CPU-Opt layout.
func TestWithShardsByteIdentical(t *testing.T) {
	w := equijoinWorkload()
	input := keyedInput(t)

	ref, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if refRes.TotalOutputs() == 0 {
		t.Fatal("reference produced no results; the equivalence check is vacuous")
	}
	want := renderResults(refRes.Results)

	for _, p := range []int{1, 2, 4, 8} {
		for _, k := range []int{0, 7} {
			opts := []stateslice.Option{stateslice.WithCollect(), stateslice.WithShards(p)}
			if k != 0 {
				opts = append(opts, stateslice.WithBatchSize(k))
			}
			sp, err := stateslice.Build(w, stateslice.MemOpt, opts...)
			if err != nil {
				t.Fatalf("p=%d k=%d: %v", p, k, err)
			}
			res, err := sp.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
			if err != nil {
				t.Fatalf("p=%d k=%d: %v", p, k, err)
			}
			if res.OrderViolations != 0 {
				t.Errorf("p=%d k=%d: %d order violations", p, k, res.OrderViolations)
			}
			if got := renderResults(res.Results); got != want {
				t.Errorf("p=%d k=%d: sharded results differ from the sequential engine", p, k)
			}
		}
	}

	// CPU-Opt replicas shard the same way.
	model := stateslice.DefaultCostModel()
	cp, err := stateslice.Build(w, stateslice.CPUOpt, stateslice.WithCollect(),
		stateslice.WithShards(3), stateslice.WithCostParams(model))
	if err != nil {
		t.Fatal(err)
	}
	cpRef, err := stateslice.Build(w, stateslice.CPUOpt, stateslice.WithCollect(),
		stateslice.WithCostParams(model))
	if err != nil {
		t.Fatal(err)
	}
	cpRefRes, err := cpRef.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cpRes, err := cp.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResults(cpRes.Results), renderResults(cpRefRes.Results); got != want {
		t.Error("sharded CPU-Opt results differ from the sequential CPU-Opt chain")
	}
}

// TestWithShardsFastPath pins the unfiltered Mem-Opt shape — the build
// auto-selects the slice-merge fast path there — against the sequential
// engine, byte for byte.
func TestWithShardsFastPath(t *testing.T) {
	w := stateslice.Workload{
		Queries: []stateslice.Query{
			{Window: 2 * stateslice.Second},
			{Window: 5 * stateslice.Second},
			{Window: 8 * stateslice.Second},
		},
		Join: stateslice.Equijoin{},
	}
	input := keyedInput(t)
	ref, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := renderResults(refRes.Results)
	for _, p := range []int{1, 3, 8} {
		sp, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect(), stateslice.WithShards(p))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sp.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.OrderViolations != 0 {
			t.Errorf("p=%d: %d order violations", p, res.OrderViolations)
		}
		if got := renderResults(res.Results); got != want {
			t.Errorf("p=%d: fast-path sharded results differ from the sequential engine", p)
		}
	}
}

// TestWithShardsSessionMigrate drives a sharded session with a mid-stream
// migration through the Plan interface and compares against a static run.
func TestWithShardsSessionMigrate(t *testing.T) {
	w := equijoinWorkload()
	input := keyedInput(t)

	p, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect(),
		stateslice.WithShards(4), stateslice.WithMigratable())
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
	if res.Err != nil {
		t.Fatalf("clean sharded session reported an error: %v", res.Err)
	}
	if res.OrderViolations != 0 {
		t.Error("sharded migration broke ordering")
	}

	// Reference 1: a sequential session applying the identical migrations
	// at the identical stream position must match byte-for-byte.
	ref, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect(), stateslice.WithMigratable())
	if err != nil {
		t.Fatal(err)
	}
	refSess, err := ref.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := refSess.Consume(stateslice.SliceSource(input[:half])); err != nil {
		t.Fatal(err)
	}
	if err := ref.Migrate([]stateslice.Time{8 * stateslice.Second}); err != nil {
		t.Fatal(err)
	}
	if err := ref.Migrate([]stateslice.Time{3 * stateslice.Second, 8 * stateslice.Second}); err != nil {
		t.Fatal(err)
	}
	if err := refSess.Consume(stateslice.SliceSource(input[half:])); err != nil {
		t.Fatal(err)
	}
	refRes := refSess.Finish()
	if got, want := renderResults(res.Results), renderResults(refRes.Results); got != want {
		t.Error("sharded migrated results differ from the sequential session with identical migrations")
	}

	// Reference 2: migration must not lose or duplicate results — the
	// per-query counts match the static chain's.
	static, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	staticRes, err := static.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range res.SinkCounts {
		if res.SinkCounts[qi] != staticRes.SinkCounts[qi] {
			t.Errorf("query %d: sharded migrated run delivered %d results, static %d",
				qi, res.SinkCounts[qi], staticRes.SinkCounts[qi])
		}
	}
}

// bandWorkloadAPI is the band-sharding example: a proximity join
// |A.Key - B.Key| <= width over the keyedInput domain.
func bandWorkloadAPI(width int64) stateslice.Workload {
	return stateslice.Workload{
		Queries: []stateslice.Query{
			{Name: "Q1", Window: 2 * stateslice.Second},
			{Name: "Q2", Window: 8 * stateslice.Second},
		},
		Join: stateslice.BandJoin{B: width},
	}
}

// TestWithShardsBandValidation pins the build-time rules of band-partitioned
// sharding: band predicates are legal with WithShards exactly when the key
// domain is declared, WithKeyRange is rejected anywhere else, and a
// predicate that is neither key- nor band-partitionable still fails with a
// clear error.
func TestWithShardsBandValidation(t *testing.T) {
	band := bandWorkloadAPI(1)
	for _, tc := range []struct {
		name    string
		w       stateslice.Workload
		opts    []stateslice.Option
		wantSub string
	}{
		{"band without key range", band,
			[]stateslice.Option{stateslice.WithShards(2)}, "WithKeyRange"},
		{"key range without shards", band,
			[]stateslice.Option{stateslice.WithKeyRange(0, 11)}, "WithShards"},
		{"key range on an equijoin", equijoinWorkload(),
			[]stateslice.Option{stateslice.WithShards(2), stateslice.WithKeyRange(0, 11)}, "hash-partitioned"},
		{"empty key range", band,
			[]stateslice.Option{stateslice.WithShards(2), stateslice.WithKeyRange(5, 4)}, "min <= max"},
		{"negative band width", bandWorkloadAPI(-1),
			[]stateslice.Option{stateslice.WithShards(2), stateslice.WithKeyRange(0, 11)}, "partitionable"},
		{"unpartitionable predicate", exampleWorkload(),
			[]stateslice.Option{stateslice.WithShards(2)}, "band-partitionable"},
	} {
		_, err := stateslice.Build(tc.w, stateslice.MemOpt, tc.opts...)
		if err == nil {
			t.Errorf("%s: Build must fail", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
	if _, err := stateslice.Build(band, stateslice.MemOpt,
		stateslice.WithShards(4), stateslice.WithKeyRange(0, 11)); err != nil {
		t.Errorf("band predicate with WithShards and WithKeyRange must build: %v", err)
	}
}

// TestWithShardsBandByteIdentical runs band workloads sharded through the
// public API across p ∈ {1,2,4,8} and B ∈ {0, 1, large} and compares the
// per-query sequences byte-for-byte against the sequential engine; the
// B = 0 runs are additionally compared against the Equijoin workload's
// results, which they must reproduce exactly.
func TestWithShardsBandByteIdentical(t *testing.T) {
	input := keyedInput(t)
	const dom = 12

	eqRef, err := stateslice.Build(stateslice.Workload{
		Queries: bandWorkloadAPI(0).Queries,
		Join:    stateslice.Equijoin{},
	}, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	eqRes, err := eqRef.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantEquijoin := renderResults(eqRes.Results)

	for _, width := range []int64{0, 1, 100} {
		w := bandWorkloadAPI(width)
		ref, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
		if err != nil {
			t.Fatal(err)
		}
		refRes, err := ref.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if refRes.TotalOutputs() == 0 {
			t.Fatalf("B=%d: reference produced no results; the equivalence check is vacuous", width)
		}
		want := renderResults(refRes.Results)
		if width == 0 && want != wantEquijoin {
			t.Error("sequential BandJoin{0} differs from Equijoin")
		}
		for _, p := range []int{1, 2, 4, 8} {
			sp, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect(),
				stateslice.WithShards(p), stateslice.WithKeyRange(0, dom-1))
			if err != nil {
				t.Fatalf("B=%d p=%d: %v", width, p, err)
			}
			res, err := sp.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
			if err != nil {
				t.Fatalf("B=%d p=%d: %v", width, p, err)
			}
			if res.OrderViolations != 0 {
				t.Errorf("B=%d p=%d: %d order violations", width, p, res.OrderViolations)
			}
			if got := renderResults(res.Results); got != want {
				t.Errorf("B=%d p=%d: band-sharded results differ from the sequential engine", width, p)
			}
			if width == 0 {
				if got := renderResults(res.Results); got != wantEquijoin {
					t.Errorf("p=%d: band-sharded B=0 results differ from the Equijoin reference", p)
				}
			}
		}
	}
}

// TestWithShardsBandExplain pins the Explain surface of a band plan: it
// must name the range partitioning, the replication band and the
// suppression — not the hash scheme the plan does not use.
func TestWithShardsBandExplain(t *testing.T) {
	p, err := stateslice.Build(bandWorkloadAPI(2), stateslice.MemOpt,
		stateslice.WithShards(4), stateslice.WithKeyRange(0, 99))
	if err != nil {
		t.Fatal(err)
	}
	s := p.Explain()
	for _, wantSub := range []string{"range(Key in [0,99])", "4 owner ranges", "band 2", "owner-suppressed"} {
		if !strings.Contains(s, wantSub) {
			t.Errorf("Explain missing %q:\n%s", wantSub, s)
		}
	}
	if strings.Contains(s, "splitmix64") {
		t.Errorf("band plan Explain claims hash partitioning:\n%s", s)
	}
}

// TestWithShardsSinks asserts WithSink callbacks observe every result of
// their query in delivery order under sharded execution.
func TestWithShardsSinks(t *testing.T) {
	w := equijoinWorkload()
	input := keyedInput(t)
	var mu sync.Mutex
	var got []*stateslice.Tuple
	p, err := stateslice.Build(w, stateslice.MemOpt,
		stateslice.WithCollect(),
		stateslice.WithShards(3),
		stateslice.WithSink(1, stateslice.SinkFunc(func(t *stateslice.Tuple) {
			mu.Lock()
			got = append(got, t)
			mu.Unlock()
		})))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(len(got)) != res.SinkCounts[1] {
		t.Fatalf("sink observed %d results, query delivered %d", len(got), res.SinkCounts[1])
	}
	for i, tp := range res.Results[1] {
		if got[i] != tp {
			t.Fatalf("sink delivery order diverges from collected results at %d", i)
		}
	}
}

// TestWithShardsExplain sanity-checks the plan surface of a sharded build.
func TestWithShardsExplain(t *testing.T) {
	p, err := stateslice.Build(equijoinWorkload(), stateslice.MemOpt, stateslice.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Ends()); got != 2 {
		t.Errorf("sharded Mem-Opt chain reports %d slices, want 2", got)
	}
	// The executor line must name the real partitioning function — the
	// partitioner mixes through splitmix64 before the modulo, so a plain
	// "hash(Key) mod p" would misdescribe how clustered keys spread.
	for _, wantSub := range []string{"shards=4", "splitmix64(Key) mod 4", "mergers", "one merge goroutine per founding query"} {
		if s := p.Explain(); !strings.Contains(s, wantSub) {
			t.Errorf("Explain missing %q:\n%s", wantSub, s)
		}
	}
	if s := p.Explain(); strings.Contains(s, "hash(Key)") {
		t.Errorf("Explain still claims a plain key hash:\n%s", s)
	}
	// An unfiltered chain takes the slice-merge path: one assembler.
	unfiltered := equijoinWorkload()
	unfiltered.Queries[1].Filter = nil
	wp, err := stateslice.Build(unfiltered, stateslice.MemOpt, stateslice.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if s := wp.Explain(); !strings.Contains(s, "on one assembly goroutine") {
		t.Errorf("Explain missing the assembly goroutine:\n%s", s)
	}
	if _, err := p.EstimatedCost(); err != nil {
		t.Errorf("EstimatedCost: %v", err)
	}
}

// TestWithShardsRunConfigRejections pins the RunConfig knobs sharded plans
// cannot honor.
func TestWithShardsRunConfigRejections(t *testing.T) {
	p, err := stateslice.Build(equijoinWorkload(), stateslice.MemOpt, stateslice.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(stateslice.SliceSource(keyedInput(t)), stateslice.RunConfig{Series: true}); err == nil {
		t.Error("RunConfig.Series must be rejected under sharding")
	}
	if _, err := p.NewSession(stateslice.RunConfig{WarmupFraction: 0.5}); err == nil {
		t.Error("RunConfig.WarmupFraction must be rejected under sharding")
	}
}

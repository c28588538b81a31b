package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"stateslice/internal/engine"
	"stateslice/internal/fault"
	"stateslice/internal/plan"
	"stateslice/internal/stream"
)

// These tests pin the assembly stage on top of the sharded executor:
// byte-identical results at every shard count on every workload shape,
// executor-level validation of slice-merge windows before any goroutine
// starts, and the propagation of injected replica failures to the driver —
// a failed replica must never look like a clean run.

// matrixInput is a shorter workload than testInput: the matrix runs every
// shard count per topology per distribution, and equivalence needs
// coverage of the merge interleavings, not volume — the full-length inputs
// stay on the single-sweep tests.
func matrixInput(t testing.TB, seed, keyDomain int64) []*stream.Tuple {
	t.Helper()
	input, err := stream.Generate(stream.GeneratorConfig{
		RateA: 40, RateB: 40,
		Duration:  8 * stream.Second,
		KeyDomain: keyDomain,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return input
}

// TestAssemblyWorkerMatrix checks equivalence with the sequential engine at
// every shard count on uniform, quadratically skewed and single-hot-key
// workloads, on both merge topologies.
func TestAssemblyWorkerMatrix(t *testing.T) {
	windows := []stream.Time{2 * stream.Second, 5 * stream.Second, 5 * stream.Second, 9 * stream.Second}
	w := chainWorkload(windows...)
	const dom = 16
	for _, tc := range []struct {
		name string
		key  func(int64) int64
	}{
		{"uniform", func(k int64) int64 { return k }},
		{"quadratic-skew", func(k int64) int64 { return (k * k) / dom }},
		{"single-hot-key", func(int64) int64 { return 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			input := matrixInput(t, 3, dom)
			for _, tp := range input {
				tp.Key = tc.key(tp.Key)
			}
			ref := engineRef(t, w, input)
			if ref.TotalOutputs() == 0 {
				t.Fatal("reference produced no results; the matrix is vacuous")
			}
			for _, p := range shardCounts {
				cfg := Config{Shards: p, PunctEvery: 64}
				res := runSlicedMerge(t, w, input, cfg)
				assertByteIdentical(t, fmt.Sprintf("fast p=%d", p), res, ref)
				res = runSharded(t, w, input, cfg)
				assertByteIdentical(t, fmt.Sprintf("general p=%d", p), res, ref)
			}
		})
	}
}

// TestAssemblyWorkersMigrated runs the sharded executor across a mid-stream
// migration (general path only; the fast path rejects migration), against a
// sequential session migrated at the same stream position.
func TestAssemblyWorkersMigrated(t *testing.T) {
	w := chainWorkload(3*stream.Second, 8*stream.Second)
	input := testInput(t, 11, 16)
	half := len(input) / 2
	target := []stream.Time{8 * stream.Second}

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
			if err := refSP.MigrateTo(refSess, target); err != nil {
				t.Fatal(err)
			}
		}
		if err := refSess.Feed(tp); err != nil {
			t.Fatal(err)
		}
	}
	ref := refSess.Finish()

	e, err := New(Config{Shards: 4, Collect: true},
		factory(w, plan.StateSliceConfig{Migratable: true}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Consume(stream.NewSliceSource(input[:half])); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Migrate(target); err != nil {
		t.Fatal(err)
	}
	if err := e.Consume(stream.NewSliceSource(input[half:])); err != nil {
		t.Fatal(err)
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, "migrated", res, ref)
}

// TestValidateSliceMergeWindows pins the executor-level window validation:
// misaligned slice-merge windows must fail in New — at build time, before
// any replica or assembly goroutine exists — not when the assembler first
// touches them.
func TestValidateSliceMergeWindows(t *testing.T) {
	w := chainWorkload(2*stream.Second, 6*stream.Second)
	for _, tc := range []struct {
		name    string
		windows []stream.Time
	}{
		{"window below the first boundary", []stream.Time{1 * stream.Second, 6 * stream.Second}},
		{"window between boundaries", []stream.Time{2 * stream.Second, 4 * stream.Second}},
	} {
		_, err := New(Config{Shards: 2, SliceMerge: true, Windows: tc.windows},
			factory(w, plan.StateSliceConfig{RawSliceResults: true}))
		if err == nil {
			t.Errorf("%s: New must fail", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "slice boundary") {
			t.Errorf("%s: error %q does not name the boundary mismatch", tc.name, err)
		}
	}
	if err := ValidateSliceMergeWindows(nil, []stream.Time{stream.Second}); err == nil {
		t.Error("empty boundary list must fail")
	}
	if err := ValidateSliceMergeWindows([]stream.Time{stream.Second}, nil); err == nil {
		t.Error("empty window list must fail")
	}
	if _, err := New(Config{Shards: 2, SliceMerge: true, Windows: []stream.Time{6 * stream.Second}},
		factory(w, plan.StateSliceConfig{RawSliceResults: true})); err == nil {
		t.Error("window-count mismatch must fail")
	}
}

// TestReplicaErrorPropagates injects a failure into one replica mid-run and
// checks the regression fixed in this package's Finish path: the error must
// surface to the driver on a subsequent Feed, and Finish must return it —
// never a silently clean-looking result.
func TestReplicaErrorPropagates(t *testing.T) {
	for _, fast := range []bool{false, true} {
		t.Run(map[bool]string{false: "general", true: "fast"}[fast], func(t *testing.T) {
			injected := errors.New("injected replica failure")
			var fed atomic.Int64
			restore := fault.Inject(fault.ReplicaFeed, func(int) error {
				if fed.Add(1) == 40 {
					return injected
				}
				return nil
			})
			defer restore()

			w := chainWorkload(2*stream.Second, 6*stream.Second)
			input := testInput(t, 5, 16)
			cfg := Config{Shards: 4, PunctEvery: 32}
			rcfg := plan.StateSliceConfig{}
			if fast {
				cfg.SliceMerge = true
				for _, q := range w.Queries {
					cfg.Windows = append(cfg.Windows, q.Window)
				}
				rcfg.RawSliceResults = true
			}
			e, err := New(cfg, factory(w, rcfg))
			if err != nil {
				t.Fatal(err)
			}
			var feedErr error
			for _, tp := range input {
				if feedErr = e.Feed(tp); feedErr != nil {
					break
				}
			}
			// The whole input can fit in the feed-channel buffers, so the
			// loop above may complete before any replica reaches the
			// failing tuple. Keep feeding the last timestamp until
			// backpressure forces the replicas through it and the sticky
			// error surfaces — bounded so a propagation bug still fails
			// the test instead of hanging it.
			last := input[len(input)-1]
			for i := 0; feedErr == nil && i < 1_000_000; i++ {
				feedErr = e.Feed(last)
			}
			if feedErr == nil {
				t.Error("Feed never surfaced the replica failure mid-run")
			} else if !errors.Is(feedErr, injected) {
				t.Errorf("Feed surfaced %v, want the injected failure", feedErr)
			}
			// The error must be sticky: later feeds keep failing.
			if err := e.Feed(input[len(input)-1]); err == nil {
				t.Error("Feed after a replica failure must keep failing")
			}
			res, err := e.Finish()
			if err == nil {
				t.Fatal("Finish dropped the replica failure")
			}
			if !errors.Is(err, injected) {
				t.Errorf("Finish returned %v, want the injected failure", err)
			}
			if res == nil {
				t.Fatal("Finish must still return the partial statistics")
			}
		})
	}
}

// TestReplicaErrorOnFinishOnly injects the failure into the very last
// tuple: the driver has no Feed left to observe it on, so Finish alone must
// report it.
func TestReplicaErrorOnFinishOnly(t *testing.T) {
	injected := errors.New("late replica failure")
	w := chainWorkload(2 * stream.Second)
	input := testInput(t, 9, 16)
	total := int64(len(input))
	var fed atomic.Int64
	restore := fault.Inject(fault.ReplicaFeed, func(int) error {
		if fed.Add(1) == total {
			return injected
		}
		return nil
	})
	defer restore()

	e, err := New(Config{Shards: 2}, factory(w, plan.StateSliceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Consume(stream.NewSliceSource(input)); err != nil && !errors.Is(err, injected) {
		t.Fatal(err)
	}
	if _, err := e.Finish(); !errors.Is(err, injected) {
		t.Fatalf("Finish returned %v, want the late injected failure", err)
	}
}

package plan

import (
	"fmt"
	"slices"
	"testing"

	"stateslice/internal/engine"
	"stateslice/internal/stream"
)

// Micro-batch equivalence: the engine's batch size K changes only *when*
// work happens, never *what* is computed. Unfiltered chains (distinct,
// duplicate and single windows), chains with pushed-down selections (lineage
// gates and mask filters) and chains migrated mid-stream must deliver
// byte-identical per-query results at K = 7, 64 and unbounded as under the
// paper-faithful per-tuple schedule, K = 1.

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

// unfilteredWorkload is a chain workload of one unfiltered query per window.
func unfilteredWorkload(windows ...stream.Time) Workload {
	w := Workload{Join: stream.FractionMatch{S: 0.2}}
	for _, win := range windows {
		w.Queries = append(w.Queries, Query{Window: win})
	}
	return w
}

func filteredWorkload() Workload {
	return Workload{
		Queries: []Query{
			{Window: 2 * stream.Second},
			{Window: 5 * stream.Second, Filter: stream.Threshold{S: 0.5}},
			{Window: 9 * stream.Second, Filter: stream.Threshold{S: 0.5}},
		},
		Join: stream.FractionMatch{S: 0.2},
	}
}

func batchInput(t *testing.T, seed int64) []*stream.Tuple {
	t.Helper()
	input, err := stream.Generate(stream.GeneratorConfig{
		RateA: 30, RateB: 30, Duration: 30 * stream.Second, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return input
}

func TestBatchedChainEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		w     Workload
		seeds []int64
	}{
		{"filtered", filteredWorkload(), []int64{7}},
		{"distinct-windows", unfilteredWorkload(2*stream.Second, 5*stream.Second, 9*stream.Second), []int64{1, 2, 3}},
		{"duplicate-windows", unfilteredWorkload(3*stream.Second, 3*stream.Second, 8*stream.Second), []int64{1, 2, 3}},
		{"single-window", unfilteredWorkload(4 * stream.Second), []int64{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range tc.seeds {
				input := batchInput(t, seed)
				run := func(batch int) *engine.Result {
					sp, err := BuildStateSlice(tc.w, StateSliceConfig{Collect: true})
					if err != nil {
						t.Fatal(err)
					}
					res, err := engine.Run(sp.Plan, input, engine.Config{BatchSize: batch})
					if err != nil {
						t.Fatal(err)
					}
					if res.OrderViolations != 0 {
						t.Fatalf("seed %d batch %d: %d order violations", seed, batch, res.OrderViolations)
					}
					return res
				}
				want := run(1).Results
				if slices.IndexFunc(want, func(rs []*stream.Tuple) bool { return len(rs) > 0 }) < 0 {
					t.Fatalf("seed %d: reference produced no results; the equivalence check is vacuous", seed)
				}
				for _, k := range []int{7, 64, -1} {
					got := run(k).Results
					for qi := range want {
						if d := diffResults(got[qi], want[qi]); d != "" {
							t.Errorf("seed %d batch %d: query %d results differ from the per-tuple schedule: %s", seed, k, qi, d)
						}
					}
				}
			}
		})
	}
}

// TestBatchedMigrationFlushes checks that a migration mid-stream drains the
// pending micro-batch first (MergeSlices requires empty inter-slice queues)
// and that the migrated batched run still matches the per-tuple one.
func TestBatchedMigrationFlushes(t *testing.T) {
	input := batchInput(t, 11)
	w := Workload{
		Queries: []Query{
			{Window: 2 * stream.Second},
			{Window: 5 * stream.Second},
			{Window: 9 * stream.Second},
		},
		Join: stream.FractionMatch{S: 0.2},
	}
	run := func(batch int) *engine.Result {
		sp, err := BuildStateSlice(w, StateSliceConfig{Collect: true, Migratable: true})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := engine.NewSession(sp.Plan, engine.Config{BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		for i, tp := range input {
			if err := sess.Feed(tp); err != nil {
				t.Fatal(err)
			}
			if i == len(input)/2 {
				// Merge the first two slices mid-batch.
				if err := sp.MergeSlices(sess, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		res := sess.Finish()
		if res.OrderViolations != 0 {
			t.Fatalf("batch %d: %d order violations", batch, res.OrderViolations)
		}
		return res
	}
	want := run(1).Results
	for _, k := range []int{7, 64, -1} {
		got := run(k).Results
		for qi := range want {
			if d := diffResults(got[qi], want[qi]); d != "" {
				t.Errorf("batch %d: query %d results differ after mid-stream migration: %s", k, qi, d)
			}
		}
	}
}

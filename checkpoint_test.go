package stateslice_test

// Checkpoint/restore suite: a barrier-consistent snapshot taken at feed k
// and restored into a fresh plan must continue the run exactly — the
// restored session's output concatenated onto the pre-checkpoint output is
// byte-identical to an uninterrupted run — for sequential chains, sharded
// executors on both merge topologies, band partitioning, and rosters with
// queries admitted mid-stream. The blob codec round-trips both forms and
// every shape mismatch fails loudly at Build or session creation.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"

	"stateslice"
)

// splitConsume drives a session over input[:k], checkpoints, then finishes,
// returning the checkpoint and the prefix results.
func splitConsume(t *testing.T, p stateslice.Plan, input []*stateslice.Tuple, k int) (*stateslice.Checkpoint, *stateslice.Result) {
	t.Helper()
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Consume(stateslice.SliceSource(input[:k])); err != nil {
		t.Fatal(err)
	}
	cp, err := sess.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Finish()
	if res.Err != nil {
		t.Fatalf("prefix session failed: %v", res.Err)
	}
	sess.Close(context.Background())
	return cp, res
}

// resumeConsume builds a restored plan with the extra options and drives it
// over the remaining input, returning its results.
func resumeConsume(t *testing.T, w stateslice.Workload, cp *stateslice.Checkpoint, input []*stateslice.Tuple, k int, opts ...stateslice.Option) *stateslice.Result {
	t.Helper()
	opts = append([]stateslice.Option{stateslice.WithCollect(), stateslice.WithRestore(cp)}, opts...)
	p, err := stateslice.Build(w, stateslice.MemOpt, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Consume(stateslice.SliceSource(input[k:])); err != nil {
		t.Fatal(err)
	}
	res := sess.Finish()
	if res.Err != nil {
		t.Fatalf("restored session failed: %v", res.Err)
	}
	sess.Close(context.Background())
	return res
}

// concatResults appends b's per-query sequences onto a's.
func concatResults(a, b [][]*stateslice.Tuple) [][]*stateslice.Tuple {
	if len(a) != len(b) {
		return nil
	}
	out := make([][]*stateslice.Tuple, len(a))
	for i := range a {
		out[i] = append(append([]*stateslice.Tuple{}, a[i]...), b[i]...)
	}
	return out
}

// TestCheckpointRestoreSequential checkpoints a sequential chain session
// mid-stream, restores it into a fresh plan, and asserts prefix + resumed
// output is byte-identical to the uninterrupted run — for the Mem-Opt
// layout, a filtered workload, and the blob round-trip in between.
func TestCheckpointRestoreSequential(t *testing.T) {
	w := equijoinWorkload() // Q2 carries a filter: predicates must survive restore pairing
	input := keyedInput(t)
	k := len(input) / 2
	want := sequentialReference(t, w, input)

	p, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	cp, prefix := splitConsume(t, p, input, k)
	if cp.Sharded() || cp.Shards() != 1 {
		t.Fatalf("sequential checkpoint claims sharded form (shards=%d)", cp.Shards())
	}
	if cp.Fed() != k {
		t.Fatalf("checkpoint Fed = %d, want %d", cp.Fed(), k)
	}
	if cp.StateTuples() == 0 {
		t.Fatal("mid-stream checkpoint holds no window state; the restore check is vacuous")
	}

	// Round-trip through the blob codec before restoring: the resumed run
	// exercises the decoded checkpoint, not the in-memory one.
	blob, err := cp.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := stateslice.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := decoded.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("checkpoint blob does not round-trip byte-identically")
	}

	resumed := resumeConsume(t, w, decoded, input, k)
	if got := renderResults(concatResults(prefix.Results, resumed.Results)); got != want {
		t.Error("prefix + restored output differs from the uninterrupted run")
	}
}

// TestCheckpointSessionContinues asserts a checkpoint is a pure snapshot:
// the session it was taken from keeps running and still produces the full
// uninterrupted output.
func TestCheckpointSessionContinues(t *testing.T) {
	w := equijoinWorkload()
	input := keyedInput(t)
	want := sequentialReference(t, w, input)
	p, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Consume(stateslice.SliceSource(input[:len(input)/2])); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sess.Consume(stateslice.SliceSource(input[len(input)/2:])); err != nil {
		t.Fatal(err)
	}
	res := sess.Finish()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := renderResults(res.Results); got != want {
		t.Error("a mid-stream checkpoint perturbed the session's own output")
	}
}

// TestCheckpointRestoreSharded runs the restore equivalence across the
// sharded matrix — (p ∈ {1,4}) × (query-merge, slice-merge) × (equijoin,
// band) — through the composite blob codec.
func TestCheckpointRestoreSharded(t *testing.T) {
	input := chaosInput(t)
	for _, tc := range recoverMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			defer assertGoroutinesReleased(t, goroutineBase())
			want := sequentialReference(t, tc.w, input)
			k := len(input) / 2
			opts := append([]stateslice.Option{stateslice.WithCollect()}, tc.opts...)
			p, err := stateslice.Build(tc.w, stateslice.MemOpt, opts...)
			if err != nil {
				t.Fatal(err)
			}
			cp, prefix := splitConsume(t, p, input, k)
			if !cp.Sharded() {
				t.Fatal("sharded checkpoint claims sequential form")
			}
			if cp.Fed() != k {
				t.Fatalf("checkpoint Fed = %d, want %d", cp.Fed(), k)
			}
			blob, err := cp.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := stateslice.DecodeCheckpoint(blob)
			if err != nil {
				t.Fatal(err)
			}
			resumed := resumeConsume(t, tc.w, decoded, input, k, tc.opts...)
			if got := renderResults(concatResults(prefix.Results, resumed.Results)); got != want {
				t.Error("prefix + restored sharded output differs from the uninterrupted run")
			}
		})
	}
}

// TestCheckpointRestoreAdmittedRoster checkpoints a session whose roster
// grew by a live Attach, restores it, and asserts the resumed run continues
// the admitted query's suffix stream exactly.
func TestCheckpointRestoreAdmittedRoster(t *testing.T) {
	defer assertGoroutinesReleased(t, goroutineBase())
	w := chaosWorkload()
	input := chaosInput(t)
	third := len(input) / 3
	q3 := stateslice.Query{Name: "Q3", Window: 4 * stateslice.Second}
	opts := []stateslice.Option{stateslice.WithCollect(), stateslice.WithShards(2), stateslice.WithMigratable()}

	// Reference: identical admission sequence, no checkpoint/restore.
	ref, err := stateslice.Build(w, stateslice.MemOpt, opts...)
	if err != nil {
		t.Fatal(err)
	}
	refSess, err := ref.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := refSess.Consume(stateslice.SliceSource(input[:third])); err != nil {
		t.Fatal(err)
	}
	if _, err := refSess.Attach(q3); err != nil {
		t.Fatal(err)
	}
	if err := refSess.Consume(stateslice.SliceSource(input[third:])); err != nil {
		t.Fatal(err)
	}
	refRes := refSess.Finish()
	if refRes.Err != nil {
		t.Fatal(refRes.Err)
	}
	refSess.Close(context.Background())
	if len(refRes.Results) != 3 || len(refRes.Results[2]) == 0 {
		t.Fatal("admitted query produced no results; the roster check is vacuous")
	}
	want := renderResults(refRes.Results)

	// Checkpointed run: admit, feed to 2/3, snapshot, abandon, restore.
	p, err := stateslice.Build(w, stateslice.MemOpt, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Consume(stateslice.SliceSource(input[:third])); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Attach(q3); err != nil {
		t.Fatal(err)
	}
	if err := sess.Consume(stateslice.SliceSource(input[third : 2*third])); err != nil {
		t.Fatal(err)
	}
	cp, err := sess.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prefix := sess.Finish()
	if prefix.Err != nil {
		t.Fatal(prefix.Err)
	}
	sess.Close(context.Background())

	resumed := resumeConsume(t, w, cp, input, 2*third,
		stateslice.WithShards(2), stateslice.WithMigratable())
	if len(resumed.Results) != 3 {
		t.Fatalf("restored roster has %d query slots, want 3 (admitted slot lost)", len(resumed.Results))
	}
	if got := renderResults(concatResults(prefix.Results, resumed.Results)); got != want {
		t.Error("restored admitted-roster output differs from the uninterrupted admission run")
	}
}

// churnSession drives a migratable session through detach/attach/merge/split
// cycles, rotating the query at slot 2.
type churnSession struct {
	sess   stateslice.Session
	plan   stateslice.Plan
	holder stateslice.QueryID
}

// cycle feeds ts in four equal blocks with one operation after each: detach
// the rotating query, attach a fresh one with its window, merge the slices
// around the 4 s boundary, split them again.
func (c *churnSession) cycle(t *testing.T, ts []*stateslice.Tuple) {
	t.Helper()
	n := len(ts) / 4
	ops := []func() error{
		func() error { return c.sess.Detach(c.holder) },
		func() (err error) {
			c.holder, err = c.sess.Attach(stateslice.Query{Window: 6 * stateslice.Second})
			return err
		},
		func() error {
			return c.plan.Migrate([]stateslice.Time{2 * stateslice.Second, 6 * stateslice.Second, 8 * stateslice.Second})
		},
		func() error { return c.plan.Migrate(churnBoundaries) },
	}
	for i, op := range ops {
		if err := c.sess.Consume(stateslice.SliceSource(ts[i*n : (i+1)*n])); err != nil {
			t.Fatal(err)
		}
		if err := op(); err != nil {
			t.Fatalf("churn operation %d: %v", i, err)
		}
	}
}

var churnBoundaries = []stateslice.Time{2 * stateslice.Second, 4 * stateslice.Second, 6 * stateslice.Second, 8 * stateslice.Second}

// TestCheckpointAfterAdmitChurn checkpoints a session after 50
// detach/attach/merge/split cycles, when every restructure barrier has
// reclaimed the union inputs it closed, restores the snapshot, and drives
// the original and the restored session through the same suffix: five more
// cycles, then the rest of the input. Every query's suffix output must be
// byte-identical, so the union input order the snapshot records agrees with
// the compacted input lists, sequentially and across two shards.
func TestCheckpointAfterAdmitChurn(t *testing.T) {
	defer assertGoroutinesReleased(t, goroutineBase())
	input, err := stateslice.Generate(stateslice.GeneratorConfig{
		RateA: 25, RateB: 25, Duration: 80 * stateslice.Second, KeyDomain: 5, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := stateslice.Workload{Join: stateslice.Equijoin{}}
	for _, win := range churnBoundaries {
		w.Queries = append(w.Queries, stateslice.Query{Window: win})
	}
	const cycleLen = 64
	for _, mode := range []struct {
		name   string
		shards int
	}{
		{"sequential", 0}, {"p=2", 2},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := []stateslice.Option{stateslice.WithCollect(), stateslice.WithMigratable()}
			if mode.shards > 0 {
				opts = append(opts, stateslice.WithShards(mode.shards))
			}
			start := func(opts ...stateslice.Option) *churnSession {
				p, err := stateslice.Build(w, stateslice.MemOpt, opts...)
				if err != nil {
					t.Fatal(err)
				}
				sess, err := p.NewSession(stateslice.RunConfig{})
				if err != nil {
					t.Fatal(err)
				}
				return &churnSession{sess: sess, plan: p, holder: 2}
			}
			orig := start(opts...)
			pos := 0
			for range 50 {
				orig.cycle(t, input[pos:pos+cycleLen])
				pos += cycleLen
			}
			cp, err := orig.sess.Checkpoint(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			blob, err := cp.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			if cp, err = stateslice.DecodeCheckpoint(blob); err != nil {
				t.Fatal(err)
			}
			cut := input[pos].Seq
			restored := start(append(opts, stateslice.WithRestore(cp))...)
			restored.holder = orig.holder
			for range 5 {
				orig.cycle(t, input[pos:pos+cycleLen])
				restored.cycle(t, input[pos:pos+cycleLen])
				pos += cycleLen
			}
			var results [2]*stateslice.Result
			for i, c := range []*churnSession{orig, restored} {
				if err := c.sess.Consume(stateslice.SliceSource(input[pos:])); err != nil {
					t.Fatal(err)
				}
				results[i] = c.sess.Finish()
				if results[i].Err != nil {
					t.Fatal(results[i].Err)
				}
				c.sess.Close(context.Background())
			}
			want, got := results[0], results[1]
			if len(got.Results) != len(want.Results) {
				t.Fatalf("restored session has %d query slots, original %d", len(got.Results), len(want.Results))
			}
			if len(got.Results[orig.holder]) == 0 {
				t.Fatal("the query attached after the restore produced nothing; the suffix check is vacuous")
			}
			for qi := range want.Results {
				if renderTuples(got.Results[qi]) != renderTuples(sinceSeq(want.Results[qi], cut)) {
					t.Errorf("query %d: restored suffix differs from the original session's", qi)
				}
			}
		})
	}
}

// TestCheckpointShapeValidation pins every restore-shape mismatch to a loud
// failure at Build or session creation, never a silent wrong answer.
func TestCheckpointShapeValidation(t *testing.T) {
	w := chaosWorkload()
	input := chaosInput(t)
	k := len(input) / 2

	seqPlan, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	seqCp, _ := splitConsume(t, seqPlan, input, k)

	shPlan, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect(), stateslice.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	shCp, _ := splitConsume(t, shPlan, input, k)

	for _, tc := range []struct {
		name string
		opts []stateslice.Option
	}{
		{"nil checkpoint", []stateslice.Option{stateslice.WithRestore(nil)}},
		{"sequential checkpoint into sharded plan", []stateslice.Option{stateslice.WithRestore(seqCp), stateslice.WithShards(2)}},
		{"sharded checkpoint into sequential plan", []stateslice.Option{stateslice.WithRestore(shCp)}},
		{"sharded checkpoint with wrong shard count", []stateslice.Option{stateslice.WithRestore(shCp), stateslice.WithShards(4)}},
	} {
		if _, err := stateslice.Build(w, stateslice.MemOpt, tc.opts...); err == nil {
			t.Errorf("%s: Build must fail", tc.name)
		}
	}

	// A workload mismatch (different windows) surfaces at session creation,
	// when the chain is rebuilt around the snapshot.
	other := stateslice.Workload{
		Queries: []stateslice.Query{{Name: "Q1", Window: 3 * stateslice.Second}},
		Join:    stateslice.Equijoin{},
	}
	if p, err := stateslice.Build(other, stateslice.MemOpt, stateslice.WithRestore(seqCp)); err == nil {
		if _, err := p.NewSession(stateslice.RunConfig{}); err == nil {
			t.Error("restoring into a different workload must fail")
		}
	}

	// A band-domain mismatch is caught when the executor validates the
	// snapshot's partitioning metadata.
	band := bandWorkloadAPI(1)
	bp, err := stateslice.Build(band, stateslice.MemOpt, stateslice.WithCollect(),
		stateslice.WithShards(2), stateslice.WithKeyRange(0, 11))
	if err != nil {
		t.Fatal(err)
	}
	bandCp, _ := splitConsume(t, bp, input, k)
	mismatch, err := stateslice.Build(band, stateslice.MemOpt, stateslice.WithCollect(),
		stateslice.WithRestore(bandCp), stateslice.WithShards(2), stateslice.WithKeyRange(0, 23))
	if err == nil {
		if _, err := mismatch.NewSession(stateslice.RunConfig{}); err == nil {
			t.Error("restoring with a different key domain must fail")
		}
	}

	// Garbage and truncated blobs must be rejected by the codec.
	if _, err := stateslice.DecodeCheckpoint([]byte("not a checkpoint")); err == nil {
		t.Error("DecodeCheckpoint must reject garbage")
	}
	blob, err := shCp.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stateslice.DecodeCheckpoint(blob[:len(blob)-3]); err == nil {
		t.Error("DecodeCheckpoint must reject a truncated blob")
	}
	if _, err := stateslice.DecodeCheckpoint(append(append([]byte{}, blob...), 0xFF)); err == nil {
		t.Error("DecodeCheckpoint must reject trailing bytes")
	}

	// Checkpoint is a chain capability: non-chain strategies reject it.
	pu, err := stateslice.Build(w, stateslice.PullUp)
	if err != nil {
		t.Fatal(err)
	}
	puSess, err := pu.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := puSess.Checkpoint(context.Background()); err == nil {
		t.Error("Checkpoint on a non-chain strategy must fail")
	}
	puSess.Finish()
}

// checkpointBlob runs a session of the chaos workload over input and returns
// the serialized checkpoint taken after the last tuple.
func checkpointBlob(tb testing.TB, input []*stateslice.Tuple, opts ...stateslice.Option) []byte {
	tb.Helper()
	p, err := stateslice.Build(chaosWorkload(), stateslice.MemOpt, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	defer sess.Close(context.Background())
	if err := sess.Consume(stateslice.SliceSource(input)); err != nil {
		tb.Fatal(err)
	}
	cp, err := sess.Checkpoint(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	blob, err := cp.Bytes()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to DecodeCheckpoint, seeded with
// real blobs of a sequential and a two-shard session. Every input must either
// fail to decode or yield a checkpoint whose Bytes decode again to the same
// blob; no input may panic, and decoding may allocate only in proportion to
// the input's length.
func FuzzDecodeCheckpoint(f *testing.F) {
	input := chaosInput(f)[:8]
	f.Add(checkpointBlob(f, input))
	f.Add(checkpointBlob(f, input, stateslice.WithShards(2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocated)
		before := allocated[0].Value.Uint64()
		cp, err := stateslice.DecodeCheckpoint(data)
		metrics.Read(allocated)
		if grew := allocated[0].Value.Uint64() - before; grew > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		blob, err := cp.Bytes()
		if err != nil {
			t.Fatalf("decoded checkpoint does not encode: %v", err)
		}
		again, err := stateslice.DecodeCheckpoint(blob)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		blob2, err := again.Bytes()
		if err != nil {
			t.Fatalf("re-decoded checkpoint does not encode: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatal("re-encoded blob does not round-trip byte-identically")
		}
	})
}

// TestCheckpointBlobCompat pins the chain blob of a fixed, unfiltered,
// non-migratable Mem-Opt chain: a checkpoint taken today must equal the
// committed blob byte for byte, and the committed blob must restore and
// continue the run byte-identically. The blob was written by the build that
// wired one union per query; refreshing it (-update) is a format change and
// needs a version bump.
func TestCheckpointBlobCompat(t *testing.T) {
	w := stateslice.Workload{
		Queries: []stateslice.Query{
			{Name: "Q1", Window: 1 * stateslice.Second},
			{Name: "Q2", Window: 2 * stateslice.Second},
			{Name: "Q3", Window: 4 * stateslice.Second},
		},
		Join: stateslice.Equijoin{},
	}
	input := keyedInput(t)
	k := len(input) / 2
	want := sequentialReference(t, w, input)
	path := filepath.Join("testdata", "checkpoint-memopt-unfiltered.blob")

	p, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	cp, prefix := splitConsume(t, p, input, k)
	blob, err := cp.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run: go test -run TestCheckpointBlobCompat -update .)", err)
	}
	if !bytes.Equal(blob, committed) {
		t.Errorf("checkpoint blob differs from %s (%d vs %d bytes)", path, len(blob), len(committed))
	}
	decoded, err := stateslice.DecodeCheckpoint(committed)
	if err != nil {
		t.Fatal(err)
	}
	resumed := resumeConsume(t, w, decoded, input, k)
	if got := renderResults(concatResults(prefix.Results, resumed.Results)); got != want {
		t.Error("prefix + output restored from the committed blob differs from the uninterrupted run")
	}
}

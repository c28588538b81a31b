package stateslice_test

// Tests of live query admission through the public API: Session.Attach and
// Session.Detach on running chains — suffix byte-identicality against
// built-in queries across execution modes and merge topologies, detach under
// key skew, validation, the restructuring guard, and the live Explain
// surface.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"stateslice"
)

// renderTuples renders one query's result sequence for byte-for-byte
// comparison (renderResults compares whole result sets, but admission runs
// and their built-in references index the same query differently).
func renderTuples(rs []*stateslice.Tuple) string {
	var b strings.Builder
	for _, t := range rs {
		fmt.Fprintf(&b, " %s@%s#%d", t, t.Time, t.Seq)
	}
	return b.String()
}

// sinceSeq filters a result sequence to tuples whose probing male arrived at
// or after the given sequence number — the post-admission suffix.
func sinceSeq(rs []*stateslice.Tuple, seq uint64) []*stateslice.Tuple {
	var out []*stateslice.Tuple
	for _, t := range rs {
		if t.Seq >= seq {
			out = append(out, t)
		}
	}
	return out
}

// beforeSeq filters a result sequence to tuples whose probing male arrived
// before the given sequence number — the pre-detach prefix.
func beforeSeq(rs []*stateslice.Tuple, seq uint64) []*stateslice.Tuple {
	var out []*stateslice.Tuple
	for _, t := range rs {
		if t.Seq < seq {
			out = append(out, t)
		}
	}
	return out
}

// TestAdmitSuffixByteIdentical attaches a query mid-stream — sequential and
// sharded at p ∈ {1,4}, over both merge topologies (hash-partitioned
// equijoin and band partitioning with boundary replication) — and compares
// its results byte-for-byte against the post-admission suffix of the same
// query built in from the start. The pre-existing query's full sequence must
// be untouched by the admission.
func TestAdmitSuffixByteIdentical(t *testing.T) {
	input := keyedInput(t)
	half := len(input) / 2
	cutSeq := input[half].Seq
	attached := stateslice.Query{Name: "Qnew", Window: 3 * stateslice.Second}

	for _, topo := range []struct {
		name string
		join stateslice.JoinPredicate
		opts []stateslice.Option // partitioning extras for sharded builds
	}{
		{"equijoin", stateslice.Equijoin{}, nil},
		{"band", stateslice.BandJoin{B: 1}, []stateslice.Option{stateslice.WithKeyRange(0, 11)}},
	} {
		base := stateslice.Workload{
			Queries: []stateslice.Query{{Name: "Qbig", Window: 8 * stateslice.Second}},
			Join:    topo.join,
		}
		full := stateslice.Workload{
			Queries: []stateslice.Query{attached, {Name: "Qbig", Window: 8 * stateslice.Second}},
			Join:    topo.join,
		}
		// Reference 1: the attached query built in from the start — the
		// admitted query must reproduce its post-admission suffix byte for
		// byte. (The full sequences of the two chains are not comparable:
		// within one probing male, pair order depends on the slice layout,
		// and the layouts only coincide from the admission's split on.)
		ref, err := stateslice.Build(full, stateslice.MemOpt, stateslice.WithCollect())
		if err != nil {
			t.Fatal(err)
		}
		refRes, err := ref.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		wantNewSuffix := renderTuples(sinceSeq(refRes.Results[0], cutSeq))
		if wantNewSuffix == "" {
			t.Fatalf("%s: built-in reference has no post-admission results; the suffix check is vacuous", topo.name)
		}
		// Reference 2: the base workload run with no admission at all —
		// the pre-existing query's whole sequence must be untouched by
		// the mid-stream attach.
		baseRef, err := stateslice.Build(base, stateslice.MemOpt, stateslice.WithCollect())
		if err != nil {
			t.Fatal(err)
		}
		baseRes, err := baseRef.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		wantBig := renderTuples(baseRes.Results[0])

		for _, mode := range []struct {
			name   string
			shards int
		}{
			{"sequential", 0}, {"p=1", 1}, {"p=4", 4},
		} {
			opts := []stateslice.Option{stateslice.WithCollect(), stateslice.WithMigratable()}
			if mode.shards > 0 {
				opts = append(opts, stateslice.WithShards(mode.shards))
				opts = append(opts, topo.opts...)
			}
			p, err := stateslice.Build(base, stateslice.MemOpt, opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", topo.name, mode.name, err)
			}
			sess, err := p.NewSession(stateslice.RunConfig{})
			if err != nil {
				t.Fatalf("%s/%s: %v", topo.name, mode.name, err)
			}
			if err := sess.Consume(stateslice.SliceSource(input[:half])); err != nil {
				t.Fatalf("%s/%s: %v", topo.name, mode.name, err)
			}
			id, err := sess.Attach(attached)
			if err != nil {
				t.Fatalf("%s/%s: Attach: %v", topo.name, mode.name, err)
			}
			if id != 1 {
				t.Fatalf("%s/%s: Attach returned ID %d, want 1", topo.name, mode.name, id)
			}
			// The admission split the single (0,8s] slice at the new
			// query's window.
			if ends := p.Ends(); len(ends) != 2 || ends[0] != 3*stateslice.Second {
				t.Fatalf("%s/%s: chain after Attach is %v, want [3s 8s]", topo.name, mode.name, ends)
			}
			if err := sess.Consume(stateslice.SliceSource(input[half:])); err != nil {
				t.Fatalf("%s/%s: %v", topo.name, mode.name, err)
			}
			res := sess.Finish()
			if res.Err != nil {
				t.Fatalf("%s/%s: session error: %v", topo.name, mode.name, res.Err)
			}
			if res.OrderViolations != 0 {
				t.Errorf("%s/%s: %d order violations", topo.name, mode.name, res.OrderViolations)
			}
			if got := renderTuples(res.Results[0]); got != wantBig {
				t.Errorf("%s/%s: the admission changed the pre-existing query's results", topo.name, mode.name)
			}
			if got := renderTuples(res.Results[1]); got != wantNewSuffix {
				t.Errorf("%s/%s: attached query's results differ from the built-in query's post-admission suffix", topo.name, mode.name)
			}
		}
	}
}

// TestAdmitDetachUnderSkew detaches the largest-window query mid-stream
// under heavy key skew (3 keys across 4 shards: idle replicas, concentrated
// state). The surviving query must match a static reference byte-for-byte,
// the detached query must keep exactly its pre-detach prefix, and the chain
// must garbage-collect the slices only the detached query read.
func TestAdmitDetachUnderSkew(t *testing.T) {
	input, err := stateslice.Generate(stateslice.GeneratorConfig{
		RateA: 25, RateB: 25, Duration: 30 * stateslice.Second, KeyDomain: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	half := len(input) / 2
	cutSeq := input[half].Seq
	w := stateslice.Workload{
		Queries: []stateslice.Query{
			{Name: "Qshort", Window: 2 * stateslice.Second},
			{Name: "Qlong", Window: 8 * stateslice.Second},
		},
		Join: stateslice.Equijoin{},
	}
	ref, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(stateslice.SliceSource(input), stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantShort := renderTuples(refRes.Results[0])
	wantLongPrefix := renderTuples(beforeSeq(refRes.Results[1], cutSeq))
	if wantLongPrefix == "" || len(refRes.Results[1]) == len(beforeSeq(refRes.Results[1], cutSeq)) {
		t.Fatal("reference prefix is vacuous: the detached query needs results on both sides of the cut")
	}

	for _, mode := range []struct {
		name   string
		shards int
	}{
		{"sequential", 0}, {"p=4", 4},
	} {
		opts := []stateslice.Option{stateslice.WithCollect(), stateslice.WithMigratable()}
		if mode.shards > 0 {
			opts = append(opts, stateslice.WithShards(mode.shards))
		}
		p, err := stateslice.Build(w, stateslice.MemOpt, opts...)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		sess, err := p.NewSession(stateslice.RunConfig{})
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if err := sess.Consume(stateslice.SliceSource(input[:half])); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if err := sess.Detach(1); err != nil {
			t.Fatalf("%s: Detach: %v", mode.name, err)
		}
		// The (2s,8s] slice served only the detached query and must be
		// garbage-collected.
		if ends := p.Ends(); len(ends) != 1 || ends[0] != 2*stateslice.Second {
			t.Fatalf("%s: chain after Detach is %v, want [2s]", mode.name, ends)
		}
		if err := sess.Detach(1); err == nil {
			t.Errorf("%s: detaching an already-detached query must fail", mode.name)
		}
		if err := sess.Consume(stateslice.SliceSource(input[half:])); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		res := sess.Finish()
		if res.Err != nil {
			t.Fatalf("%s: session error: %v", mode.name, res.Err)
		}
		if res.OrderViolations != 0 {
			t.Errorf("%s: %d order violations", mode.name, res.OrderViolations)
		}
		if got := renderTuples(res.Results[0]); got != wantShort {
			t.Errorf("%s: the detach changed the surviving query's results", mode.name)
		}
		if got := renderTuples(res.Results[1]); got != wantLongPrefix {
			t.Errorf("%s: detached query's results differ from its pre-detach prefix", mode.name)
		}
	}
}

// TestAdmitDuringMigrateRejected pins the restructuring guard: a result sink
// fired from inside a live migration's drain must not be able to start an
// admission on the half-restructured chain.
func TestAdmitDuringMigrateRejected(t *testing.T) {
	w := stateslice.Workload{
		Queries: []stateslice.Query{
			{Window: 2 * stateslice.Second},
			{Window: 8 * stateslice.Second},
		},
		Join: stateslice.Equijoin{},
	}
	var (
		sess      stateslice.Session
		attempted bool
		attachErr error
	)
	p, err := stateslice.Build(w, stateslice.MemOpt,
		stateslice.WithMigratable(),
		stateslice.WithBatchSize(-1), // buffer everything until the migration drains
		stateslice.WithSink(1, stateslice.SinkFunc(func(*stateslice.Tuple) {
			if !attempted {
				attempted = true
				_, attachErr = sess.Attach(stateslice.Query{Window: 3 * stateslice.Second})
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	sess, err = p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	input := keyedInput(t)
	if err := sess.Consume(stateslice.SliceSource(input[:len(input)/2])); err != nil {
		t.Fatal(err)
	}
	if err := p.Migrate([]stateslice.Time{8 * stateslice.Second}); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if !attempted {
		t.Fatal("the migration's drain delivered no result; the reentrancy check is vacuous")
	}
	if attachErr == nil {
		t.Fatal("Attach from inside a live migration must fail")
	}
	if !strings.Contains(attachErr.Error(), "restructured") {
		t.Errorf("guard error %q does not name the restructuring conflict", attachErr)
	}
	if _, err := sess.Attach(stateslice.Query{Window: 3 * stateslice.Second}); err != nil {
		t.Errorf("Attach after the migration completed must succeed: %v", err)
	}
}

// TestAdmitValidation pins the admission error surface.
func TestAdmitValidation(t *testing.T) {
	unfiltered := stateslice.Workload{
		Queries: []stateslice.Query{
			{Window: 2 * stateslice.Second},
			{Window: 8 * stateslice.Second},
		},
		Join: stateslice.Equijoin{},
	}
	newSession := func(t *testing.T, w stateslice.Workload, s stateslice.Strategy, opts ...stateslice.Option) stateslice.Session {
		t.Helper()
		p, err := stateslice.Build(w, s, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := p.NewSession(stateslice.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}

	sess := newSession(t, unfiltered, stateslice.MemOpt, stateslice.WithMigratable())
	for _, tc := range []struct {
		name    string
		q       stateslice.Query
		wantSub string
	}{
		{"filtered query", stateslice.Query{Window: 3 * stateslice.Second, Filter: stateslice.Threshold{S: 0.5}}, "unfiltered"},
		{"zero window", stateslice.Query{}, "non-positive"},
		{"window beyond the chain", stateslice.Query{Window: 9 * stateslice.Second}, "exceeds"},
	} {
		if _, err := sess.Attach(tc.q); err == nil {
			t.Errorf("%s: Attach must fail", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
	if err := sess.Detach(5); err == nil {
		t.Error("Detach out of range must fail")
	}
	if err := sess.Detach(-1); err == nil {
		t.Error("Detach of a negative ID must fail")
	}
	if err := sess.Detach(0); err != nil {
		t.Fatalf("Detach(0): %v", err)
	}
	if err := sess.Detach(1); err == nil {
		t.Error("detaching the last live query must fail")
	} else if !strings.Contains(err.Error(), "no live query") {
		t.Errorf("error %q does not name the last-query rule", err)
	}

	attach := stateslice.Query{Window: 3 * stateslice.Second}
	if _, err := newSession(t, unfiltered, stateslice.MemOpt).Attach(attach); err == nil {
		t.Error("Attach on a non-migratable chain must fail")
	} else if !strings.Contains(err.Error(), "WithMigratable") {
		t.Errorf("error %q does not point at WithMigratable", err)
	}
	if _, err := newSession(t, unfiltered, stateslice.PullUp).Attach(attach); err == nil {
		t.Error("Attach on a pull-up plan must fail")
	} else if !strings.Contains(err.Error(), "admission") {
		t.Errorf("error %q does not name admission", err)
	}
	if _, err := newSession(t, equijoinWorkload(), stateslice.MemOpt, stateslice.WithMigratable()).Attach(attach); err == nil {
		t.Error("Attach on a filtered workload must fail")
	} else if !strings.Contains(err.Error(), "unfiltered workload") {
		t.Errorf("error %q does not name the unfiltered restriction", err)
	}
	if _, err := newSession(t, unfiltered, stateslice.MemOpt, stateslice.WithShards(2)).Attach(attach); err == nil {
		t.Error("Attach on a non-migratable sharded plan must fail")
	} else if !strings.Contains(err.Error(), "WithMigratable") {
		t.Errorf("error %q does not point at WithMigratable", err)
	}
	if _, err := stateslice.Build(unfiltered, stateslice.MemOpt, stateslice.WithResultHandler(nil)); err == nil {
		t.Error("a nil result handler must be rejected at Build")
	}
}

// TestAdmitExplainLive asserts Explain renders the live query set: attached
// queries appear, detached queries are marked, and the chain layout follows
// the admission's splits and garbage collection.
func TestAdmitExplainLive(t *testing.T) {
	base := stateslice.Workload{
		Queries: []stateslice.Query{{Name: "Qbig", Window: 8 * stateslice.Second}},
		Join:    stateslice.Equijoin{},
	}
	for _, mode := range []struct {
		name   string
		shards int
	}{
		{"sequential", 0}, {"p=2", 2},
	} {
		opts := []stateslice.Option{stateslice.WithMigratable()}
		if mode.shards > 0 {
			opts = append(opts, stateslice.WithShards(mode.shards))
		}
		p, err := stateslice.Build(base, stateslice.MemOpt, opts...)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		sess, err := p.NewSession(stateslice.RunConfig{})
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if s := p.Explain(); !strings.Contains(s, "Qbig") || strings.Contains(s, "Qnew") {
			t.Errorf("%s: Explain before admission:\n%s", mode.name, s)
		}
		if _, err := sess.Attach(stateslice.Query{Name: "Qnew", Window: 3 * stateslice.Second}); err != nil {
			t.Fatalf("%s: Attach: %v", mode.name, err)
		}
		if s := p.Explain(); !strings.Contains(s, "Qnew: window 3s") {
			t.Errorf("%s: Explain does not list the attached query:\n%s", mode.name, s)
		} else if strings.Contains(s, "(detached)") {
			t.Errorf("%s: Explain marks a live query detached:\n%s", mode.name, s)
		}
		if err := sess.Detach(0); err != nil {
			t.Fatalf("%s: Detach: %v", mode.name, err)
		}
		s := p.Explain()
		if !strings.Contains(s, "(detached)") || !strings.Contains(s, "Qbig") {
			t.Errorf("%s: Explain does not mark the detached query:\n%s", mode.name, s)
		}
		if !strings.Contains(s, "(0s,3s]") || strings.Contains(s, "8s]") {
			t.Errorf("%s: Explain chain did not follow the garbage collection:\n%s", mode.name, s)
		}
		sess.Finish()
	}
}

// TestAdmitResultHandler asserts WithResultHandler streams every query's
// results with the right ID — including a query admitted after Build, which
// WithSink cannot address.
func TestAdmitResultHandler(t *testing.T) {
	input := keyedInput(t)
	half := len(input) / 2
	base := stateslice.Workload{
		Queries: []stateslice.Query{{Name: "Qbig", Window: 8 * stateslice.Second}},
		Join:    stateslice.Equijoin{},
	}
	for _, mode := range []struct {
		name   string
		shards int
	}{
		{"sequential", 0}, {"p=2", 2},
	} {
		var mu sync.Mutex
		counts := map[stateslice.QueryID]uint64{}
		opts := []stateslice.Option{
			stateslice.WithMigratable(),
			stateslice.WithResultHandler(func(id stateslice.QueryID, _ *stateslice.Tuple) {
				mu.Lock()
				counts[id]++
				mu.Unlock()
			}),
		}
		if mode.shards > 0 {
			opts = append(opts, stateslice.WithShards(mode.shards))
		}
		p, err := stateslice.Build(base, stateslice.MemOpt, opts...)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		sess, err := p.NewSession(stateslice.RunConfig{})
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if err := sess.Consume(stateslice.SliceSource(input[:half])); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		id, err := sess.Attach(stateslice.Query{Name: "Qnew", Window: 3 * stateslice.Second})
		if err != nil {
			t.Fatalf("%s: Attach: %v", mode.name, err)
		}
		if err := sess.Consume(stateslice.SliceSource(input[half:])); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		res := sess.Finish()
		if res.Err != nil {
			t.Fatalf("%s: session error: %v", mode.name, res.Err)
		}
		mu.Lock()
		if counts[id] == 0 {
			t.Errorf("%s: the handler saw no results of the attached query", mode.name)
		}
		for qi, want := range res.SinkCounts {
			if got := counts[stateslice.QueryID(qi)]; got != want {
				t.Errorf("%s: handler saw %d results of query %d, sink delivered %d", mode.name, got, qi, want)
			}
		}
		mu.Unlock()
	}
}

// TestAdmitAttachOnParsedWorkload attaches a query to a sharded chain built
// from SliceQL text. ParseWorkload returns a query slice with spare capacity,
// and every shard replica is built from that one Workload value: a plan that
// appended the attached query to the slice it was given had all replicas'
// barrier goroutines writing the same backing array, which this test shows
// under -race. Each built plan owns its copy of the queries.
func TestAdmitAttachOnParsedWorkload(t *testing.T) {
	w, err := stateslice.ParseWorkload(`
		Q1: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 2000 ms;
		Q2: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 5000 ms;
		Q3: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 8000 ms;`)
	if err != nil {
		t.Fatal(err)
	}
	if cap(w.Queries) == len(w.Queries) {
		t.Fatal("the parsed query slice has no spare capacity; the test no longer reaches the shared-append case")
	}
	p, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithShards(2), stateslice.WithMigratable())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	input := keyedInput(t)
	for _, tp := range input[:len(input)/2] {
		if err := sess.Feed(tp); err != nil {
			t.Fatal(err)
		}
	}
	id, err := sess.Attach(stateslice.Query{Name: "Qnew", Window: 3 * stateslice.Second})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	for _, tp := range input[len(input)/2:] {
		if err := sess.Feed(tp); err != nil {
			t.Fatal(err)
		}
	}
	res := sess.Finish()
	if res.Err != nil {
		t.Fatalf("session error: %v", res.Err)
	}
	if res.SinkCounts[id] == 0 {
		t.Error("the attached query produced no results")
	}
	if len(w.Queries) != 3 {
		t.Errorf("Attach changed the caller's workload: %d queries, want 3", len(w.Queries))
	}
}

package operator

import (
	"testing"

	"stateslice/internal/stream"
)

// Allocation regression guards for the zero-copy hot paths. The tuple split
// and the probe of a sliced join must not allocate per processed tuple: the
// male/female reference copies ride on queue items, probes iterate state
// spans in place, and joined results come from a slab (amortized to a
// fraction of an allocation each). A regression here silently multiplies GC
// pressure by the input rate, so it fails the build rather than a benchmark.

// neverMatch is a join predicate with no matches, isolating the probe loop
// from result emission.
type neverMatch struct{}

func (neverMatch) Match(a, b *stream.Tuple) bool { return false }
func (neverMatch) String() string                { return "never" }

func TestTupleSplitAllocatesNothing(t *testing.T) {
	in := stream.NewQueue()
	ci := NewChainInput("ci", in)
	out := ci.Out().NewQueue()
	tp := &stream.Tuple{Time: 1, Seq: 1, Stream: stream.StreamA, Ord: 1}
	// Warm the queues so ring growth is behind us.
	for i := 0; i < 64; i++ {
		in.PushTuple(tp)
	}
	ci.Step(nil, -1)
	for !out.Empty() {
		out.Pop()
	}
	avg := testing.AllocsPerRun(200, func() {
		in.PushTuple(tp)
		ci.Step(nil, -1)
		out.Pop()
		out.Pop()
	})
	if avg != 0 {
		t.Errorf("tuple split allocates %.2f objects per tuple, want 0 (roles must ride on queue items)", avg)
	}
}

func TestProbeAllocatesNothingPerTuple(t *testing.T) {
	// The generic Match loop, and both key-column kernels.
	for _, pred := range []stream.JoinPredicate{neverMatch{}, stream.Equijoin{}, stream.BandJoin{B: 2}} {
		// Unattached result/next ports discard, so only the probe itself
		// runs: a male scanning 100 females, none of which it matches.
		j, in, male := probeFixture(t, pred, 100)
		var m CostMeter
		avg := testing.AllocsPerRun(200, func() {
			in.Push(stream.RoleItem(male, stream.RoleMale))
			j.Step(&m, -1)
		})
		if avg != 0 {
			t.Errorf("%s: probing a male over 100 females allocates %.2f objects, want 0", pred, avg)
		}
		// AllocsPerRun makes one warm-up call before its 200 runs.
		if want := uint64(201 * 100); m.Probe != want {
			t.Errorf("%s: %d probe comparisons charged, want one per female per male (%d)", pred, m.Probe, want)
		}
	}
}

func TestJoinedResultsAmortizedBySlab(t *testing.T) {
	in := stream.NewQueue()
	j, err := NewSlicedBinaryJoin("j", 0, 1000*stream.Second, stream.CrossProduct{}, in)
	if err != nil {
		t.Fatal(err)
	}
	resQ := j.Result().NewQueue()
	var mb stream.ManualBuilder
	for i := 0; i < 8; i++ {
		f := mb.Add(stream.StreamB, stream.Time(i))
		in.Push(stream.RoleItem(f, stream.RoleFemale))
	}
	j.Step(nil, -1)
	male := mb.Add(stream.StreamA, 200)
	// Every probe matches: 8 results per male. Slab chunks hold 256
	// results, so the amortized cost must stay well under one allocation
	// per result (8 results/run, 1 chunk per 32 runs).
	avg := testing.AllocsPerRun(200, func() {
		in.Push(stream.RoleItem(male, stream.RoleMale))
		j.Step(nil, -1)
		for !resQ.Empty() {
			resQ.Pop()
		}
	})
	if avg > 0.5 {
		t.Errorf("emitting 8 joined results allocates %.2f objects per male, want slab-amortized (< 0.5)", avg)
	}
}

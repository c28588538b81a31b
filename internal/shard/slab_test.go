package shard

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"stateslice/internal/engine"
	"stateslice/internal/plan"
	"stateslice/internal/stream"
)

// These tests pin the load-sized feed edge: the driver sends a shard's
// partial slab whenever the shard's replica is idle, so slab boundaries
// follow goroutine timing. The output must not (stream.SlabCap states why
// boundaries never change results), a flush whose slabs all left mid-step
// must still reach the sinks, and a stalled replica must still stop the
// driver at the documented lead cap.

// newExecutor builds an executor over the workload on the query-level merge
// path, or on the slice-merge fast path when sliceMerge is set, collecting
// every query's results.
func newExecutor(t *testing.T, w plan.Workload, cfg Config, sliceMerge bool) *Executor {
	t.Helper()
	cfg.Collect = true
	var pcfg plan.StateSliceConfig
	if sliceMerge {
		cfg.SliceMerge = true
		for _, q := range w.Queries {
			cfg.Windows = append(cfg.Windows, q.Window)
		}
		pcfg.RawSliceResults = true
	}
	e, err := New(cfg, factory(w, pcfg))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runScheduled feeds the input one tuple at a time, drains the executor
// after every drainEvery-th input (never when drainEvery is 0) and
// finishes. Draining after every input makes every feed slab hold exactly
// one input; 0 leaves the slab boundaries to the goroutine schedule.
func runScheduled(t *testing.T, w plan.Workload, input []*stream.Tuple, p int, sliceMerge bool, drainEvery int) *engine.Result {
	t.Helper()
	e := newExecutor(t, w, Config{Shards: p}, sliceMerge)
	for i, tp := range input {
		if err := e.Feed(tp); err != nil {
			t.Fatal(err)
		}
		if drainEvery > 0 && (i+1)%drainEvery == 0 {
			e.Drain()
		}
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// maxSliceResults returns the most results one input contributed to the
// part of the wide query's answer that the narrow query (a prefix of its
// slices) does not cover — the output of the wide query's last slices for
// that input.
func maxSliceResults(wide, narrow []*stream.Tuple) int {
	per := make(map[uint64]int)
	for _, r := range wide {
		per[r.Seq]++
	}
	for _, r := range narrow {
		per[r.Seq]--
	}
	most := 0
	for _, n := range per {
		most = max(most, n)
	}
	return most
}

// TestPartialSlabsByteIdentical runs p ∈ {1, 2, 4} on both merge topologies
// under three feed schedules — a drain after every input (one-input slabs),
// a drain every 7 inputs, and free-running — and compares each against the
// sequential engine. The hot-key input makes one slice emit more than a
// slab of results for a single input, so result slabs leave mid-step and
// the assembler's union step at the end of each replica flush is what
// delivers them.
func TestPartialSlabsByteIdentical(t *testing.T) {
	const dom = 16
	for _, tc := range []struct {
		name string
		w    plan.Workload
		key  func(int64) int64
	}{
		{"uniform", chainWorkload(2*stream.Second, 5*stream.Second, 9*stream.Second), func(k int64) int64 { return k }},
		{"hot-key", chainWorkload(2*stream.Second, 6*stream.Second), func(int64) int64 { return 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			input := matrixInput(t, 5, dom)
			for _, tp := range input {
				tp.Key = tc.key(tp.Key)
			}
			ref := engineRef(t, tc.w, input)
			if ref.TotalOutputs() == 0 {
				t.Fatal("reference produced no results; the comparison is vacuous")
			}
			if tc.name == "hot-key" {
				if n := maxSliceResults(ref.Results[1], ref.Results[0]); n <= stream.SlabCap {
					t.Fatalf("one input emits at most %d results on the last slice, want more than a slab (%d)", n, stream.SlabCap)
				}
			}
			for _, p := range []int{1, 2, 4} {
				for _, sliceMerge := range []bool{false, true} {
					for _, every := range []int{1, 7, 0} {
						res := runScheduled(t, tc.w, input, p, sliceMerge, every)
						assertByteIdentical(t, fmt.Sprintf("p=%d slice-merge=%t drain-every=%d", p, sliceMerge, every), res, ref)
					}
				}
			}
		})
	}
}

// TestAssemblerFlushEndsWithUnionStep pins the end-of-flush marker: when
// every result slab of a replica flush already left mid-step (the taps ship
// full slabs as they fill), flushResults still ends the flush with an empty
// marked slab, and applying it steps the union, so the flush's results
// reach the sinks before the next flush arrives.
func TestAssemblerFlushEndsWithUnionStep(t *testing.T) {
	ends := []stream.Time{2 * stream.Second, 6 * stream.Second}
	free := make(chan []stream.Item, 8)
	a := newAssembler(1, ends, ends, free, Config{Collect: true}, func(err error) { t.Fatal(err) })
	e := &Executor{asm: a, free: free}
	r := &replica{}
	for si := range ends {
		r.out = append(r.out, &outEdge{b: new(stream.Batcher), slice: si, asmIn: a.in})
	}

	// Mid-step shipments, as a tap sends a full slab: a result on slice 0
	// and both slices' frontiers past it.
	src := &stream.Tuple{Time: 10, Seq: 1, Ord: 1, Stream: stream.StreamA}
	res := &stream.Tuple{Time: 10, Seq: 1, A: src, B: &stream.Tuple{Time: 5, Seq: 0, Ord: 1, Stream: stream.StreamB}}
	a.in <- sliceBatch{slice: 0, items: []stream.Item{stream.TupleItem(res), stream.PunctItem(10)}}
	a.in <- sliceBatch{slice: 1, items: []stream.Item{stream.PunctItem(10)}}
	r.shipped = true
	e.flushResults(r)

	var batches []sliceBatch
	for len(a.in) > 0 {
		batches = append(batches, <-a.in)
	}
	if len(batches) != 3 {
		t.Fatalf("flush with nothing left to send shipped %d slabs after the 2 mid-step ones, want 1 marker", len(batches)-2)
	}
	if m := batches[2]; !m.last || len(m.items) != 0 {
		t.Fatalf("flush ended with %+v, want an empty slab marked last", m)
	}
	if r.shipped {
		t.Error("flushResults left the mid-step flag set")
	}
	for _, tb := range batches[:2] {
		if tb.last {
			t.Fatalf("a mid-step slab is marked last: %+v", tb)
		}
		a.apply(tb)
	}
	for qi, s := range a.sinks {
		if s.Count() != 0 {
			t.Fatalf("query %d received %d results before the flush ended; the union steps once per flush", qi, s.Count())
		}
	}
	a.apply(batches[2])
	for qi, s := range a.sinks {
		if s.Count() != 1 {
			t.Errorf("query %d received %d results after the flush's marker, want 1", qi, s.Count())
		}
	}

	// A flush that shipped nothing at all sends nothing.
	e.flushResults(r)
	if n := len(a.in); n != 0 {
		t.Errorf("an empty flush sent %d slabs", n)
	}
}

// gatedJoin is an equijoin whose Match blocks once, on the first call that
// pairs two tuples of the gated key after arming, until release is closed.
type gatedJoin struct {
	key     int64
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedJoin) Match(a, b *stream.Tuple) bool {
	if a.Key == g.key && b.Key == g.key && g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return a.Key == b.Key
}

func (g *gatedJoin) String() string           { return "gated A.Key = B.Key" }
func (g *gatedJoin) PartitionableByKey() bool { return true }

// TestStalledReplicaBoundsLead blocks shard 0's replica inside its join
// predicate and keeps feeding both shards. The driver must stop in Feed as
// soon as shard 0's lead — the items in its feed channel plus its batcher —
// reaches the cap feedSlab and feedBuf document: a full channel and a full
// batcher. Once released, the run must match the sequential engine.
func TestStalledReplicaBoundsLead(t *testing.T) {
	const n = 400
	part := NewPartitioner(2)
	var keys [2]int64
	found := [2]bool{}
	for k := int64(0); !found[0] || !found[1]; k++ {
		if s := part.Shard(k); !found[s] {
			keys[s], found[s] = k, true
		}
	}

	// Inputs 10 ms apart, alternating streams. Inputs 0 and 1 put an A and
	// a B tuple of shard 0's key on shard 0; after them the shards take
	// turns in pairs of one A and one B tuple, shard 0 first.
	input := make([]*stream.Tuple, n)
	var ords [2]uint64
	for i := range input {
		id := stream.StreamA
		if i%2 == 1 {
			id = stream.StreamB
		}
		ords[i%2]++
		key := keys[0]
		if i >= 2 {
			key = keys[(i-2)/2%2]
		}
		input[i] = &stream.Tuple{Time: stream.Time(i+1) * 10 * stream.Millisecond, Seq: uint64(i + 1), Ord: ords[i%2], Stream: id, Key: key, Value: 0.5}
	}
	gate := &gatedJoin{key: keys[0], entered: make(chan struct{}), release: make(chan struct{})}
	w := plan.Workload{Join: gate, Queries: []plan.Query{{Window: 1 * stream.Second}, {Window: 3 * stream.Second}}}
	ref := engineRef(t, w, input)

	e := newExecutor(t, w, Config{Shards: 2, PunctEvery: -1}, true)
	// Input 0 is fed and drained, so shard 0's channel is empty when input
	// 1 arrives: the idle replica gets it alone and blocks probing input 0.
	if err := e.Feed(input[0]); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	gate.armed.Store(true)
	if err := e.Feed(input[1]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("shard 0's replica never reached its join predicate")
	}

	var fed atomic.Int64
	done := make(chan error, 1)
	go func() {
		for _, tp := range input[2:] {
			if err := e.Feed(tp); err != nil {
				done <- err
				return
			}
			fed.Add(1)
		}
		done <- nil
	}()

	// With the replica blocked nothing leaves shard 0's channel. Its first
	// input goes alone (the channel is empty), the next feedBuf-1 slabs
	// fill up to feedSlab, and the batcher fills behind the full channel:
	// the Feed of the input that completes it blocks.
	lead := 1 + (feedBuf-1)*feedSlab + feedSlab
	if lead > (feedBuf+1)*feedSlab {
		t.Fatalf("lead %d exceeds the documented cap %d", lead, (feedBuf+1)*feedSlab)
	}
	var want int64 // the inputs fed before shard 0's lead-th one, whose Feed blocks
	for seen := 0; ; want++ {
		if part.Shard(input[2+want].Key) == 0 {
			if seen++; seen == lead {
				break
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for fed.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let an unbounded driver run on
	if got := fed.Load(); got != want {
		t.Errorf("the driver returned from %d Feed calls behind the stalled replica, want %d (a lead of %d inputs)", got, want, lead)
	}
	if got := len(e.replicas[0].feed); got != feedBuf {
		t.Errorf("the stalled shard's feed channel holds %d slabs, want a full channel (%d)", got, feedBuf)
	}
	if !e.feedBlocked.Load() {
		t.Error("the driver is blocked on a full feed channel, but feedBlocked is clear: the other runner keeps polling")
	}

	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if e.feedBlocked.Load() {
		t.Error("feedBlocked is still set after the driver's Feed calls returned")
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	assertByteIdentical(t, "stalled replica", res, ref)
}

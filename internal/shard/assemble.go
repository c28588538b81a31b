package shard

import (
	"fmt"

	"stateslice/internal/engine"
	"stateslice/internal/fault"
	"stateslice/internal/operator"
	"stateslice/internal/stream"
)

// The slice-merge fast path: instead of merging each query's per-shard
// output (which ships every result once per subscribing query), it merges
// each *slice's* per-shard result stream — every distinct result leaves the
// replicas exactly once — and then assembles the per-query answers the way
// the sequential engine does: the merged slice streams feed one shared
// order-preserving union, and each query's sink reads the prefix of slices
// its window spans (operator.Union.AddOutput).
//
// One goroutine owns the whole stage: the per-slice kmerges, the union and
// the sinks. Replica taps send per-shard slabs over its one channel; after
// each slab it steps that slice's merge, whose emitted spans land in the
// union's input for the slice, and after the last slab of each replica
// flush (sliceBatch.last) it steps the union, once per flush rather than
// once per slice. That keeps the union's input queues bounded by one flush,
// as stepping after every slab did, and the step schedule a function of the
// replicas' flushes alone. Since it is the only
// consumer, it cannot deadlock against a peer, and shutdown is one step:
// stop closes the channel after the replicas have exited, and the loop
// steps every merge once more — every input slab has been applied, so the
// final frontiers release everything — and steps the union a last time.
//
// Order is preserved end to end: each slice's merged stream has one
// producer, the union restores the global (Time, Seq) order across slices,
// and each prefix output delivers exactly what a union over its prefix
// alone would — byte-identical results at every shard count.
//
// The path requires query-agnostic slice streams — an unfiltered workload
// whose every distinct window is a slice boundary, compiled with
// plan.StateSliceConfig.RawSliceResults. Filtered, routed or migratable
// chains use the query-level merge instead (see Executor). New validates the windows
// against the chain's boundaries (ValidateSliceMergeWindows) before the
// assembler is built, so construction cannot fail.

// assembler is the fast path's one assembly goroutine and the state it owns.
type assembler struct {
	// in receives per-shard result slabs of every slice; 4*chanBuf
	// because every slice of every replica shares it.
	in     chan sliceBatch
	done   chan struct{}
	merges []*kmerge // per slice
	union  *operator.Union
	sinks  []*operator.Sink // per query
	free   chan []stream.Item
	meter  operator.CostMeter // union assembly costs
	// noteErr publishes a contained panic as the executor's first error
	// (Executor.noteErr).
	noteErr func(error)
	// failed marks an assembler whose containment boundary recovered a
	// panic (a merge bug, or a user sink callback firing inside a union
	// step). It publishes the fault once, then keeps draining and
	// recycling its channel without applying anything — its union is
	// corrupt, and a stalled channel would block the replica taps.
	failed bool
}

// sliceBatch is one slab of a slice's result stream from one shard. last
// marks the final slab of one replica flush; it may be empty, when every
// slab of the flush left mid-step.
type sliceBatch struct {
	slice int
	shard int
	items []stream.Item
	last  bool
}

// newAssembler wires the slice merges into one union with a prefix output
// per query. ends are the chain's slice boundaries, windows the query
// windows; New has validated them (ValidateSliceMergeWindows), so every
// window equals a boundary and each query's contributing prefix is
// non-empty. The union has an input per slice: the first query spanning
// every slice reads Out, every other query an output over its own prefix.
func newAssembler(shards int, ends, windows []stream.Time, free chan []stream.Item, cfg Config, noteErr func(error)) *assembler {
	a := &assembler{
		in:      make(chan sliceBatch, 4*chanBuf),
		done:    make(chan struct{}),
		merges:  make([]*kmerge, len(ends)),
		union:   operator.NewUnion("assemble"),
		sinks:   make([]*operator.Sink, len(windows)),
		free:    free,
		noteErr: noteErr,
	}
	for si := range ends {
		q := a.union.AddInput()
		a.merges[si] = newKmerge(shards, func(span []stream.Item) {
			for _, it := range span {
				q.Push(it)
			}
		}, free)
	}
	outTaken := false
	for qi, w := range windows {
		k := 0 // the slices the window spans
		for k < len(ends) && ends[k] <= w {
			k++
		}
		sink := operator.NewDirectSink(fmt.Sprintf("Q%d", qi+1))
		if cfg.Collect {
			sink.Collecting()
		}
		if cfg.OnResult != nil {
			sink.OnResult(func(t *stream.Tuple) { cfg.OnResult(qi, t) })
		}
		port := a.union.Out()
		if k < len(ends) || outTaken {
			port = a.union.AddOutput(k)
		}
		outTaken = outTaken || k == len(ends)
		port.AttachFunc(sink.Accept)
		a.sinks[qi] = sink
	}
	return a
}

// start launches the assembly goroutine.
func (a *assembler) start() { go a.run() }

// stop closes the slice channel after the replicas have exited and waits
// for the assembler to flush and exit.
func (a *assembler) stop() {
	close(a.in)
	<-a.done
}

// fold aggregates the assembly meters and per-query sink statistics into
// the run result. Callers must have stopped the assembler first.
func (a *assembler) fold(res *engine.Result) {
	for _, m := range a.merges {
		res.Meter.Add(m.meter)
	}
	res.Meter.Add(a.meter)
	for _, s := range a.sinks {
		res.SinkCounts = append(res.SinkCounts, s.Count())
		res.OrderViolations += s.OrderViolations()
		res.Results = append(res.Results, s.Results())
	}
}

// run is the assembly loop: apply every slab until the channel closes, then
// flush the merges and the union once.
func (a *assembler) run() {
	defer close(a.done)
	for tb := range a.in {
		if a.failed {
			recycleSlab(a.free, tb.items)
			continue
		}
		a.apply(tb)
	}
	if !a.failed {
		a.finish()
	}
}

// recoverFail is the containment boundary: deferred (open-coded, so the hot
// path allocates no closure) around every stage that runs merge, union or
// sink code, it converts a panic into the executor's first error and fails
// the assembler.
func (a *assembler) recoverFail() {
	if v := recover(); v != nil {
		a.failed = true
		a.noteErr(fmt.Errorf("shard: %w", fault.Capture("assembly worker", 0, v)))
	}
}

// apply folds one per-shard slab into its slice merge and steps the merge
// (which pushes into the slice's union input); the last slab of a replica
// flush then steps the union.
func (a *assembler) apply(tb sliceBatch) {
	defer a.recoverFail()
	if err := fault.Fire(fault.AssembleApply, 0); err != nil {
		a.failed = true
		a.noteErr(fmt.Errorf("shard: assembly: %w", err))
		recycleSlab(a.free, tb.items)
		return
	}
	if len(tb.items) > 0 {
		m := a.merges[tb.slice]
		m.push(tb.shard, tb.items)
		m.step()
	}
	if tb.last {
		a.union.Step(&a.meter, -1)
	}
}

// finish runs after the slice channel closes: every input slab has been
// applied, so a final step per merge emits everything the final frontiers
// allow, and a final union step delivers it — the last sink callbacks fire
// here, inside the containment boundary.
func (a *assembler) finish() {
	defer a.recoverFail()
	for _, m := range a.merges {
		m.step()
	}
	a.union.Step(&a.meter, -1)
}

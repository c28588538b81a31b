package shard

import (
	"fmt"
	"sync"

	"stateslice/internal/engine"
	"stateslice/internal/fault"
	"stateslice/internal/operator"
	"stateslice/internal/stream"
)

// The slice-merge fast path: instead of merging each query's per-shard
// output (which ships every result once per subscribing query), it merges
// each *slice's* per-shard result stream — every distinct result leaves the
// replicas exactly once — and then assembles the per-query answers the way
// the sequential engine does: the merged slice stream fans out into the
// input queues of per-query order-preserving unions feeding the sinks.
//
// The assembly is sharded by query across a pool of workers so no single
// goroutine touches every item (the serial-reassembly bottleneck of
// shared-state parallelism):
//
//   - Every query — its union and sink — is owned by exactly one worker;
//     queries are split into contiguous balanced blocks.
//   - Every slice's kmerge is owned by exactly one worker, the lowest-index
//     worker owning one of the slice's subscribing queries, so the merged
//     stream is always consumed locally by at least one query.
//   - When a merged span leaves a slice owned by worker A and a subscribing
//     query lives on worker B, A copies the span into a per-(slice, B)
//     forward batcher and ships sealed slabs over B's forward channel; B
//     pushes them into its own unions' input queues. A span therefore
//     crosses worker boundaries at most workers-1 times — bounded by the
//     pool size, not by the query count.
//
// Order is preserved end to end: a slice's merged stream has exactly one
// producer (its owning worker), forward channels are FIFO, and each union
// input queue is filled by exactly one goroutine (its owner, for local
// slices, or the owner applying forwarded slabs), so every union sees each
// slice stream in merge order and restores the global (Time, Seq) order
// per query — byte-identical results at every worker count.
//
// Deadlock freedom: forward sends never block blindly. A worker that would
// block forwarding to a busy peer instead selects between the send and
// draining its own forward channel, so in any cycle of workers blocked on
// forwards at least one send has a ready receiver and the cycle unwinds;
// replica taps blocked on a worker's slice channel wait on a worker that,
// by the same argument, always makes progress. Shutdown is two-phase
// (stop): slice channels close first and every worker flushes its merges
// and forwards before announcing mergeDone; only when all workers are past
// that barrier do the forward channels close, so no forward is ever sent on
// a closed channel.
//
// The path requires query-agnostic slice streams — an unfiltered workload
// whose every distinct window is a slice boundary, compiled with
// plan.StateSliceConfig.RawSliceResults. Filtered, routed or migratable
// chains use the query-level merge instead (see Executor). New validates the windows
// against the chain's boundaries (ValidateSliceMergeWindows) before the
// assembler is built, so construction cannot fail.

// assembler coordinates the fast path's worker pool.
type assembler struct {
	workers    []*asmWorker
	merges     []*kmerge         // per slice, stepped only by the owning worker
	unions     []*operator.Union // per query, stepped only by the owning worker
	sinks      []*operator.Sink  // per query
	sliceOwner []int             // slice -> worker owning its kmerge
	mergeDone  sync.WaitGroup    // workers past the merge-flush barrier
	wg         sync.WaitGroup    // workers fully exited
	// noteErr publishes a worker's contained panic as the executor's first
	// error (Executor.noteErr).
	noteErr func(error)
}

// asmWorker is one assembly goroutine: it merges its owned slices, runs its
// owned per-query unions, and exchanges merged spans with its peers.
type asmWorker struct {
	a   *assembler
	idx int
	// in receives per-shard result slabs for the slices this worker owns.
	in chan sliceBatch
	// fwd receives merged spans of slices owned by other workers to which
	// queries of this worker subscribe.
	fwd chan fwdBatch
	// localQ and localSubs map every slice to this worker's subscribing
	// union input queues and query indexes (owned and forwarded slices
	// alike).
	localQ    [][]*stream.Queue
	localSubs [][]int
	// failed marks a worker whose containment boundary recovered a panic
	// (a merge bug, or a user sink callback firing inside a union step).
	// A failed worker publishes the fault once, then keeps draining and
	// recycling both of its channels without applying anything — its
	// unions are corrupt, and a stalled channel would block replica taps
	// and peer forwards. Only the worker goroutine touches it.
	failed bool
	// ownSlices lists the slices whose kmerge this worker owns; fwdTo and
	// fwdB give, per owned slice, the peer workers subscribing to it and
	// the outgoing span batchers.
	ownSlices []int
	fwdTo     [][]int
	fwdB      [][]*stream.Batcher
	queries   []int // owned query indexes
	free      chan []stream.Item
	meter     operator.CostMeter // union assembly costs
}

// sliceBatch is one slab of a slice's result stream from one shard.
type sliceBatch struct {
	slice int
	shard int
	items []stream.Item
}

// fwdBatch is one slab of a slice's *merged* stream, forwarded from the
// slice's owning worker to a peer whose queries subscribe to the slice.
type fwdBatch struct {
	slice int
	items []stream.Item
}

// newAssembler wires the slice merges and per-query unions across the
// worker pool. ends are the chain's slice boundaries, windows the query
// windows; New has validated them (ValidateSliceMergeWindows), so every
// window equals a boundary and each query's contributing prefix is
// non-empty.
func newAssembler(shards, workers int, ends, windows []stream.Time, free chan []stream.Item, cfg Config, noteErr func(error)) *assembler {
	queries := len(windows)
	a := &assembler{
		workers:    make([]*asmWorker, workers),
		merges:     make([]*kmerge, len(ends)),
		unions:     make([]*operator.Union, queries),
		sinks:      make([]*operator.Sink, queries),
		sliceOwner: make([]int, len(ends)),
		noteErr:    noteErr,
	}
	for wi := range a.workers {
		a.workers[wi] = &asmWorker{
			a:         a,
			idx:       wi,
			in:        make(chan sliceBatch, 4*chanBuf),
			fwd:       make(chan fwdBatch, chanBuf),
			localQ:    make([][]*stream.Queue, len(ends)),
			localSubs: make([][]int, len(ends)),
			fwdTo:     make([][]int, len(ends)),
			fwdB:      make([][]*stream.Batcher, len(ends)),
			free:      free,
		}
	}

	// Per-query unions over the contributing slices, engine-style: the
	// union's si-th input queue receives slice si's merged stream. Each
	// query lands on one worker (contiguous balanced blocks).
	for qi, w := range windows {
		wk := a.workers[queryOwner(qi, workers, queries)]
		u := operator.NewUnion(fmt.Sprintf("assemble-Q%d", qi+1))
		sink := operator.NewDirectSink(fmt.Sprintf("Q%d", qi+1))
		u.Out().AttachFunc(sink.Accept)
		if cfg.Collect {
			sink.Collecting()
		}
		if cfg.OnResult != nil {
			q := qi
			sink.OnResult(func(t *stream.Tuple) { cfg.OnResult(q, t) })
		}
		for si, end := range ends {
			if end > w {
				break
			}
			wk.localQ[si] = append(wk.localQ[si], u.AddInput())
			wk.localSubs[si] = append(wk.localSubs[si], qi)
		}
		a.unions[qi] = u
		a.sinks[qi] = sink
		wk.queries = append(wk.queries, qi)
	}

	// Slice ownership and forward edges: the lowest-index subscribing
	// worker merges the slice and forwards the merged spans to the other
	// subscribers.
	for si := range ends {
		owner := 0
		for wi, wk := range a.workers {
			if len(wk.localSubs[si]) > 0 {
				owner = wi
				break
			}
		}
		a.sliceOwner[si] = owner
		wk := a.workers[owner]
		wk.ownSlices = append(wk.ownSlices, si)
		wk.fwdB[si] = make([]*stream.Batcher, workers)
		for wi, peer := range a.workers {
			if wi != owner && len(peer.localSubs[si]) > 0 {
				wk.fwdTo[si] = append(wk.fwdTo[si], wi)
				wk.fwdB[si][wi] = &stream.Batcher{}
			}
		}
		slice := si
		a.merges[si] = newKmerge(shards, func(span []stream.Item) { wk.emit(slice, span) }, free)
	}
	return a
}

// start launches the worker goroutines.
func (a *assembler) start() {
	for _, w := range a.workers {
		a.mergeDone.Add(1)
		a.wg.Add(1)
		go w.run()
	}
}

// stop drives the two-phase shutdown after the replicas have exited: close
// the slice channels, wait for every worker to flush its merges and
// forwards, then close the forward channels and wait for the pool to drain
// completely.
func (a *assembler) stop() {
	for _, w := range a.workers {
		close(w.in)
	}
	a.mergeDone.Wait()
	for _, w := range a.workers {
		close(w.fwd)
	}
	a.wg.Wait()
}

// fold aggregates the assembly meters and per-query sink statistics into
// the run result. Callers must have stopped the pool first.
func (a *assembler) fold(res *engine.Result) {
	for _, m := range a.merges {
		res.Meter.Add(m.meter)
	}
	for _, w := range a.workers {
		res.Meter.Add(w.meter)
	}
	for _, s := range a.sinks {
		res.SinkCounts = append(res.SinkCounts, s.Count())
		res.OrderViolations += s.OrderViolations()
		res.Results = append(res.Results, s.Results())
	}
}

// run is the worker loop: phase one drains slice batches (stepping the
// owned merges) and forwarded spans together; when the slice channel
// closes, the worker flushes its merges and forward batchers, passes the
// mergeDone barrier, and keeps draining forwards until that channel closes
// too; a final union step flushes anything the last punctuations released.
func (w *asmWorker) run() {
	defer w.a.wg.Done()
	in, fwd := w.in, w.fwd
	for in != nil || fwd != nil {
		select {
		case tb, ok := <-in:
			if !ok {
				in = nil
				if !w.failed {
					w.finishMerges()
				}
				w.a.mergeDone.Done()
				continue
			}
			if w.failed {
				recycleSlab(w.free, tb.items)
				continue
			}
			w.apply(tb)
		case fb, ok := <-fwd:
			if !ok {
				fwd = nil
				continue
			}
			w.applyFwd(fb)
		}
	}
	if !w.failed {
		w.finalSteps()
	}
}

// recoverFail is the worker's containment boundary: deferred (open-coded,
// so the hot path allocates no closure) around every stage that runs merge,
// union or sink code, it converts a panic into the executor's first error
// and fails the worker.
func (w *asmWorker) recoverFail() {
	if v := recover(); v != nil {
		w.failed = true
		w.a.noteErr(fmt.Errorf("shard: %w", fault.Capture("assembly worker", w.idx, v)))
	}
}

// apply folds one per-shard slab into its slice merge, steps the merge
// (which emits locally and into the forward batchers), flushes the slice's
// forward batchers so peers never wait on a part-filled slab, and steps the
// local subscribing unions.
func (w *asmWorker) apply(tb sliceBatch) {
	defer w.recoverFail()
	if err := fault.Fire(fault.AssembleApply, w.idx); err != nil {
		w.failed = true
		w.a.noteErr(fmt.Errorf("shard: assembly: %w", err))
		recycleSlab(w.free, tb.items)
		return
	}
	m := w.a.merges[tb.slice]
	m.push(tb.shard, tb.items)
	m.step()
	w.flushFwd(tb.slice)
	for _, qi := range w.localSubs[tb.slice] {
		w.a.unions[qi].Step(&w.meter, -1)
	}
}

// applyFwd pushes a forwarded merged span into the local subscribing
// unions, recycles the slab, and steps those unions. It is also called from
// sendFwd's drain side, so the failed check lives here: a failed worker
// recycles forwards instead of applying them.
func (w *asmWorker) applyFwd(fb fwdBatch) {
	if w.failed {
		recycleSlab(w.free, fb.items)
		return
	}
	defer w.recoverFail()
	for _, q := range w.localQ[fb.slice] {
		for _, it := range fb.items {
			q.Push(it)
		}
	}
	recycleSlab(w.free, fb.items)
	for _, qi := range w.localSubs[fb.slice] {
		w.a.unions[qi].Step(&w.meter, -1)
	}
}

// finalSteps flushes the owned unions once after both channels closed,
// inside the containment boundary — the last sink callbacks fire here.
func (w *asmWorker) finalSteps() {
	defer w.recoverFail()
	for _, qi := range w.queries {
		w.a.unions[qi].Step(&w.meter, -1)
	}
}

// emit is the kmerge callback for an owned slice: deliver the merged span
// to the local subscribing union queues and copy it into the forward
// batchers of the subscribing peers, shipping sealed slabs as they fill.
func (w *asmWorker) emit(slice int, span []stream.Item) {
	for _, q := range w.localQ[slice] {
		for _, it := range span {
			q.Push(it)
		}
	}
	for _, dst := range w.fwdTo[slice] {
		b := w.fwdB[slice][dst]
		for _, it := range span {
			b.Add(it)
			if b.Full() {
				w.sendFwd(dst, slice, b)
			}
		}
	}
}

// flushFwd ships the part-filled forward batchers of one owned slice.
func (w *asmWorker) flushFwd(slice int) {
	for _, dst := range w.fwdTo[slice] {
		w.sendFwd(dst, slice, w.fwdB[slice][dst])
	}
}

// sendFwd seals the batcher and ships the slab to the peer's forward
// channel. The send races the peer's own progress, so it selects between
// delivering and draining this worker's forward channel — the move that
// keeps cycles of mutually-forwarding workers deadlock-free (see the file
// comment). The peer's channel cannot be closed here: stop closes forward
// channels only after every worker — including this one, which is still
// sending — has passed the mergeDone barrier.
func (w *asmWorker) sendFwd(dst, slice int, b *stream.Batcher) {
	// Check before drawing a spare from the free list: TakeWith discards
	// the spare when there is nothing to seal, which would bleed a
	// recycled slab (or a fresh allocation) per idle forward per flush.
	if b.Len() == 0 {
		return
	}
	msg := fwdBatch{slice: slice, items: b.TakeWith(getSlab(w.free))}
	ch := w.a.workers[dst].fwd
	for {
		select {
		case ch <- msg:
			return
		case fb := <-w.fwd:
			w.applyFwd(fb)
		}
	}
}

// finishMerges runs after the slice channel closes: every input slab has
// been applied, so a final step per owned merge emits everything the final
// frontiers allow, the forward batchers flush, and the local unions catch
// up. Contained like apply — run still passes the mergeDone barrier when a
// panic lands here, so stop's two-phase shutdown completes.
func (w *asmWorker) finishMerges() {
	defer w.recoverFail()
	for _, si := range w.ownSlices {
		w.a.merges[si].step()
		w.flushFwd(si)
		for _, qi := range w.localSubs[si] {
			w.a.unions[qi].Step(&w.meter, -1)
		}
	}
}

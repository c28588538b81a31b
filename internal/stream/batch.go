package stream

// SlabCap is the target number of items per batch slab of the sharded
// executor's cross-goroutine edges. One slab handoff replaces SlabCap
// channel operations of a per-item scheme.
//
// Slab boundaries never affect results. The receiver of an edge pushes each
// slab's items into its queue in order, so what it sees — within and across
// slabs — is exactly the per-item FIFO sequence; only the number of channel
// operations changes. A sliced chain's correctness depends on nothing else:
// the state disjointness of Lemma 1 needs FIFO delivery between adjacent
// operators, not any particular scheduling discipline.
const SlabCap = 128

// Batcher accumulates items into slabs for channel handoff between
// goroutines, coalescing consecutive punctuations. A punctuation promises
// that nothing later on the edge is older than its time, and on a FIFO edge
// those promises only grow: punct(t1) followed immediately by punct(t2 >= t1)
// carries no information beyond punct(t2), so only the last of a run
// survives. Coalescing never drops the run's final punctuation, so a
// receiver whose output depends on punctuation alone — a union flushing a
// quiet tail on the end-of-stream MaxTime — flushes exactly as it would
// per item. The sharded executor batches its feed and result edges with it.
//
// The zero value is ready to use. Not safe for concurrent use — a batcher
// belongs to the single goroutine that fills it.
type Batcher struct {
	buf []Item
}

// Add appends an item, merging it with a trailing punctuation run.
func (b *Batcher) Add(it Item) {
	if it.IsPunct() && len(b.buf) > 0 && b.buf[len(b.buf)-1].IsPunct() {
		b.buf[len(b.buf)-1] = it
		return
	}
	b.buf = append(b.buf, it)
}

// Full reports whether the slab reached its target size.
func (b *Batcher) Full() bool { return len(b.buf) >= SlabCap }

// Len returns the number of items currently buffered.
func (b *Batcher) Len() int { return len(b.buf) }

// TakeWith seals and returns the current slab, leaving the batcher empty,
// and installs the spare slice (emptied, capacity kept) as the new backing
// array. It returns nil, and discards the spare, when nothing is buffered.
// Executors recycle consumed slabs through it, keeping the steady state
// allocation-free; a nil spare defers the allocation to the next Add.
func (b *Batcher) TakeWith(spare []Item) []Item {
	if len(b.buf) == 0 {
		return nil
	}
	out := b.buf
	b.buf = spare[:0]
	return out
}

package stream

import "fmt"

// Item is an element travelling through an operator queue: either a tuple or
// a punctuation. Punctuations carry the guarantee that no tuple with a
// timestamp at or below Punct will arrive on this queue in the future; they
// implement the punctuation semantics of Tucker et al. cited by the paper
// (reference [26]) and drive the order-preserving union operator.
//
// Inside a sliced-join chain the item additionally carries the tuple's Role
// (male/female reference copy, Section 4.2). Keeping the role on the queue
// item instead of on a copied tuple makes the reference-copy scheme truly
// zero-copy: the splitter emits two roles of the *same* *Tuple, allocating
// nothing.
type Item struct {
	// Tuple is the payload; nil for a pure punctuation.
	Tuple *Tuple
	// Punct is the punctuation timestamp. For tuple items it is unused.
	Punct Time
	// Role marks the reference-copy role the tuple plays on this queue.
	// Plain outside sliced-join chains.
	Role Role
}

// TupleItem wraps a tuple as a queue item, carrying the tuple's own role (set
// by WithRole for callers that still materialize reference copies).
func TupleItem(t *Tuple) Item { return Item{Tuple: t, Role: t.Role} }

// RoleItem wraps a tuple as a queue item playing the given reference-copy
// role, without copying the tuple.
func RoleItem(t *Tuple, r Role) Item { return Item{Tuple: t, Role: r} }

// PunctItem builds a punctuation item with the given timestamp.
func PunctItem(ts Time) Item { return Item{Punct: ts} }

// IsPunct reports whether the item is a punctuation.
func (it Item) IsPunct() bool { return it.Tuple == nil }

// String renders the item for traces.
func (it Item) String() string {
	if it.IsPunct() {
		return fmt.Sprintf("punct(%s)", it.Punct)
	}
	return it.Tuple.String()
}

// Queue is an unbounded FIFO of items backed by a growable ring buffer. One
// logical queue connects adjacent operators in a shared query plan; sliced
// join chains use a single logical queue carrying both purged female tuples
// and propagated male tuples, exactly as in Figure 7 of the paper.
//
// The buffer length is always a power of two, so every index wrap is a mask
// instead of a modulo — Pop and Push sit on the per-item hot path of the
// scheduler.
//
// Queue is not safe for concurrent use; one engine owns all queues of its
// plan. The sharded executor crosses goroutines over channels instead.
type Queue struct {
	buf  []Item
	head int
	n    int
}

// queueInitCap is the initial ring capacity; must be a power of two.
const queueInitCap = 16

// NewQueue returns an empty queue with a small initial capacity.
func NewQueue() *Queue { return &Queue{buf: make([]Item, queueInitCap)} }

// Len returns the number of items currently queued.
func (q *Queue) Len() int { return q.n }

// Empty reports whether the queue holds no items.
func (q *Queue) Empty() bool { return q.n == 0 }

// TupleCount returns the number of tuple (non-punctuation) items queued. The
// engine's statistics monitor uses it to measure queue memory.
func (q *Queue) TupleCount() int {
	c := 0
	for i := 0; i < q.n; i++ {
		if !q.at(i).IsPunct() {
			c++
		}
	}
	return c
}

// Push appends an item at the tail.
func (q *Queue) Push(it Item) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = it
	q.n++
}

// PushTuple appends a tuple at the tail.
func (q *Queue) PushTuple(t *Tuple) { q.Push(TupleItem(t)) }

// PushPunct appends a punctuation at the tail.
func (q *Queue) PushPunct(ts Time) { q.Push(PunctItem(ts)) }

// Pop removes and returns the head item. On an empty queue it returns the
// zero Item (a punctuation at time zero) rather than panicking; callers
// check Empty first — queues are internal plumbing, and the guarded return
// keeps a misuse from crashing the process ("no fault crashes the process"
// has no carve-outs).
func (q *Queue) Pop() Item {
	if q.n == 0 {
		return Item{}
	}
	it := q.buf[q.head]
	q.buf[q.head] = Item{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return it
}

// Peek returns the head item without removing it, or the zero Item when the
// queue is empty (see Pop).
func (q *Queue) Peek() Item {
	if q.n == 0 {
		return Item{}
	}
	return q.buf[q.head]
}

func (q *Queue) at(i int) Item { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// Drain removes every queued item, invoking fn on each in FIFO order, and
// returns the number drained. It clears the ring span-wise, which is cheaper
// than item-at-a-time Pop for consumers that always take everything (sinks).
// fn must not push to q.
func (q *Queue) Drain(fn func(Item)) int {
	n := q.n
	end := q.head + q.n
	if end <= len(q.buf) {
		span := q.buf[q.head:end]
		for i := range span {
			fn(span[i])
		}
		clear(span)
	} else {
		wrap := end & (len(q.buf) - 1)
		for i := range q.buf[q.head:] {
			fn(q.buf[q.head+i])
		}
		for i := range q.buf[:wrap] {
			fn(q.buf[i])
		}
		clear(q.buf[q.head:])
		clear(q.buf[:wrap])
	}
	q.head, q.n = 0, 0
	return n
}

func (q *Queue) grow() {
	nb := make([]Item, 2*len(q.buf))
	n := copy(nb, q.buf[q.head:])
	copy(nb[n:], q.buf[:q.head])
	q.buf = nb
	q.head = 0
}

// Snapshot returns the queued items oldest-first. Traces use it to print the
// queue contents of Table 2 in the paper.
func (q *Queue) Snapshot() []Item {
	out := make([]Item, q.n)
	for i := 0; i < q.n; i++ {
		out[i] = q.at(i)
	}
	return out
}

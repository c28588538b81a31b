package operator

import (
	"fmt"
	"slices"

	"stateslice/internal/stream"
)

// Union is the order-preserving merge of several timestamp-sorted inputs
// (the union operator of Aurora cited as [1] by the paper). It relies on
// punctuations: each upstream join emits punct(t) after the probing tuple
// with timestamp t finishes, guaranteeing no later output with a timestamp
// at or below t (the "male tuple acts as punctuation" mechanism of
// Section 4.3). The union emits a buffered tuple as soon as every other
// input either exposes a later tuple or has punctuated past it.
//
// Ties on (Time, Seq) — results produced by the same probing tuple at
// different slices — are emitted in ascending input order, which is the
// chain order and therefore ascending window range.
//
// A union may have several outputs. Out reads every input; each output
// added with AddOutput reads only a prefix of the inputs, the way query i of
// an unfiltered chain reads slices 1..k_i. The merge runs once, and an item
// of input j is pushed to every output whose prefix covers j, so each output
// delivers exactly the tuples, in the same order, that a union over its
// prefix alone would. Every output forwards min(its prefix's frontier, the
// merge's frontier); the merge's frontier is the minimum over all inputs, so
// that is the merge's frontier itself, and no output promises past an item
// it has not yet delivered. Costs are charged as if each output were a union of its own: an
// absorbed punctuation and an emitted item count once per output reading
// their input, while ordering two heads counts once for all outputs.
type Union struct {
	name      string
	ins       []*stream.Queue
	frontiers []stream.Time
	// readers counts, per input, the outputs reading it: Out plus the
	// taps whose prefix covers the input.
	readers []int
	out     Port
	// taps are the prefix outputs by descending prefix, so the taps
	// reading input i are taps[:readers[i]-1].
	taps []*unionTap
	// emitted tracks the last emitted punctuation so the union forwards
	// monotone punctuations of its own.
	lastPunct stream.Time
	// sel is the per-output test state of a selecting union
	// (union_select.go); nil for a plain one.
	sel *unionSel
}

// NewUnion builds a union; inputs are registered with AddInput.
func NewUnion(name string) *Union { return &Union{name: name, lastPunct: -1} }

// AddInput creates, registers and returns a new input queue.
func (u *Union) AddInput() *stream.Queue {
	q := stream.NewQueue()
	u.AttachInput(q)
	return q
}

// AttachInput registers an existing queue as an input.
func (u *Union) AttachInput(q *stream.Queue) {
	r := 1
	for _, t := range u.taps {
		if t.prefix > len(u.ins) {
			r++
		}
	}
	u.ins = append(u.ins, q)
	u.frontiers = append(u.frontiers, -1)
	u.readers = append(u.readers, r)
}

// CloseInput marks an input as finished: no further tuples will ever be
// pushed to it. Residual queued tuples are still emitted in order, but the
// input no longer blocks merge progress. Chain migration (Section 5.3)
// closes the result edges of slices it replaces. The input stays registered
// until DropClosed reclaims it once drained, which the chain does inside the
// closing restructure's barrier. It returns false when q is not an input of
// the union.
func (u *Union) CloseInput(q *stream.Queue) bool {
	for i, in := range u.ins {
		if in == q {
			u.frontiers[i] = stream.MaxTime
			return true
		}
	}
	return false
}

// DropClosed unregisters every input whose frontier is MaxTime (closed, or
// punctuated to the end of time) and whose queue is empty. Such an input can
// neither emit nor constrain the merge, so dropping it changes no output;
// the survivors keep their relative order, so ties on (Time, Seq) still
// resolve as before. When every input qualifies, they are all kept until the
// union has forwarded its own MaxTime punctuation: with no inputs left
// forwardPunct has nothing to forward, and downstream merges complete on
// that punctuation. Restructure barriers call it while nothing is in flight.
func (u *Union) DropClosed() {
	n := 0
	for i, q := range u.ins {
		if u.frontiers[i] != stream.MaxTime || !q.Empty() {
			u.ins[n], u.frontiers[n] = q, u.frontiers[i]
			n++
		}
	}
	if n == 0 && u.lastPunct != stream.MaxTime {
		return // nothing was moved, so every input is still in place
	}
	clear(u.ins[n:])
	u.ins, u.frontiers, u.readers = u.ins[:n], u.frontiers[:n], u.readers[:n]
}

// Inputs returns the number of registered inputs.
func (u *Union) Inputs() int { return len(u.ins) }

// InputSnapshot returns the registered input queues in merge order. Closed
// inputs are included until a restructure barrier reclaims them
// (DropClosed). Checkpointing reads it to record the tie order of the live
// chain.
func (u *Union) InputSnapshot() []*stream.Queue {
	return append([]*stream.Queue(nil), u.ins...)
}

// Reorder permutes the registered inputs into the given order, which must
// list exactly the current inputs. Ties on (Time, Seq) follow input order,
// and on a chain that was restructured mid-stream that order reflects the
// restructure history rather than the slice layout — a chain rebuilt from a
// checkpoint calls Reorder so its unions inherit the snapshot's order
// instead of the fresh build's.
func (u *Union) Reorder(qs []*stream.Queue) error {
	if len(qs) != len(u.ins) {
		return fmt.Errorf("operator: %s: Reorder got %d inputs, union has %d", u.name, len(qs), len(u.ins))
	}
	pos := make(map[*stream.Queue]int, len(u.ins))
	for i, in := range u.ins {
		pos[in] = i
	}
	frontiers := make([]stream.Time, len(qs))
	for i, q := range qs {
		j, ok := pos[q]
		if !ok {
			return fmt.Errorf("operator: %s: Reorder input %d is not registered (or listed twice)", u.name, i)
		}
		delete(pos, q)
		frontiers[i] = u.frontiers[j]
	}
	u.ins = append(u.ins[:0:0], qs...)
	u.frontiers = frontiers
	return nil
}

// Out exposes the merged output port.
func (u *Union) Out() *Port { return &u.out }

// Name implements Operator.
func (u *Union) Name() string { return u.name }

// Pending implements Operator.
func (u *Union) Pending() bool {
	for _, q := range u.ins {
		if !q.Empty() {
			return true
		}
	}
	return false
}

// Step implements Operator. The budget bounds the number of tuples emitted.
//
// Cost accounting follows the paper's punctuation-driven union (Section
// 4.3): processing a punctuation costs one comparison, and so does ordering
// two candidate heads with different (Time, Seq) keys. Heads with equal keys
// are results of the same probing male gathered from adjacent slices; they
// concatenate in input (chain) order without comparisons. In the steady
// state of a sliced-join chain the merge therefore costs O(lambda) per
// second — "proportional to the input rates of streams A and B" — rather
// than one comparison per joined result.
//
// The merge emits run-at-a-time: one scan over the inputs selects the
// winning head and the tightest bound the other inputs impose (their minimal
// head, ties to the lowest input index, and the minimal frontier of the
// empty inputs); consecutive items of the winning input are then emitted
// with a single comparison each until one crosses that bound. The emitted
// sequence is exactly the per-tuple merge's — a run item precedes every
// other input's head, and equal keys still concatenate in input order — but
// the per-emission rescans of all inputs are gone.
func (u *Union) Step(m *CostMeter, max int) int {
	if u.sel != nil {
		return u.stepSelecting(m, max)
	}
	bud := budget(max)
	n := 0
	u.absorbPunctuations(m)
	for n < bud {
		// One scan: the emission candidate (minimal (Time, Seq) head,
		// ties to the lowest input index), the runner-up bounding a run,
		// and the tightest frontier of the empty inputs.
		best, openIdx := -1, -1
		var bestT, openT *stream.Tuple
		minFrontier := stream.MaxTime
		for i, q := range u.ins {
			if q.Empty() {
				// An empty input constrains emission to its
				// punctuation frontier.
				if u.frontiers[i] < minFrontier {
					minFrontier = u.frontiers[i]
				}
				continue
			}
			head := q.Peek().Tuple
			if best == -1 {
				best, bestT = i, head
				continue
			}
			if head.Time == bestT.Time && head.Seq == bestT.Seq {
				// Same-male batch: keep chain order, no comparison;
				// it still bounds a run from the best input.
				if openT == nil || tupleLess(head, openT) {
					openIdx, openT = i, head
				}
				continue
			}
			m.union(1)
			if tupleLess(head, bestT) {
				openIdx, openT = best, bestT
				best, bestT = i, head
			} else if openT == nil || tupleLess(head, openT) {
				openIdx, openT = i, head
			}
		}
		if best == -1 {
			break // nothing buffered anywhere
		}
		if bestT.Time > minFrontier {
			break // an empty input may still deliver earlier tuples
		}
		// Emit the run to every output reading the input.
		q := u.ins[best]
		r := u.readers[best]
		for n < bud {
			q.Pop()
			m.invoke(r)
			u.out.PushTuple(bestT)
			if r > 1 {
				u.pushTaps(r-1, bestT)
			}
			n++
			// Advance to the input's next tuple head, absorbing
			// interleaved punctuations (one comparison each, as in
			// absorbPunctuations).
			var head *stream.Tuple
			for !q.Empty() {
				it := q.Peek()
				if !it.IsPunct() {
					head = it.Tuple
					break
				}
				q.Pop()
				m.union(r)
				if it.Punct > u.frontiers[best] {
					u.frontiers[best] = it.Punct
				}
			}
			if head == nil || head.Time > minFrontier {
				break
			}
			if openT != nil {
				if head.Time == openT.Time && head.Seq == openT.Seq {
					if best > openIdx {
						break // the equal key at a lower input goes first
					}
					// Equal key, lower input index: chain-order
					// concatenation, no comparison.
				} else {
					m.union(1)
					if !tupleLess(head, openT) {
						break
					}
				}
			}
			bestT = head
		}
	}
	if n < bud {
		// Not interrupted by the budget: everything emittable has been
		// emitted, so the minimum frontier is a safe punctuation.
		u.forwardPunct()
	}
	return n
}

// absorbPunctuations consumes leading punctuations on every input, advancing
// the per-input frontiers. Each punctuation costs one comparison per output
// reading its input.
func (u *Union) absorbPunctuations(m *CostMeter) {
	for i, q := range u.ins {
		for !q.Empty() && q.Peek().IsPunct() {
			p := q.Pop().Punct
			m.union(u.readers[i])
			if p > u.frontiers[i] {
				u.frontiers[i] = p
			}
		}
	}
}

// forwardPunct emits the minimum frontier to every output when it advances,
// so unions compose (a union feeding another union or a sink keeps it
// flushed).
func (u *Union) forwardPunct() {
	if len(u.ins) == 0 {
		return
	}
	min := u.frontiers[0]
	for _, f := range u.frontiers[1:] {
		if f < min {
			min = f
		}
	}
	// Only the frontier bounds progress: queued tuples older than the
	// frontier have been emitted already (they would have been emittable).
	if min > u.lastPunct {
		u.lastPunct = min
		u.out.PushPunct(min)
		for _, t := range u.taps {
			t.port.PushPunct(min)
		}
	}
}

// tupleLess orders tuples by (Time, Seq).
func tupleLess(a, b *stream.Tuple) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Seq < b.Seq
}

// String describes the union wiring for traces.
func (u *Union) String() string {
	return fmt.Sprintf("%s(%d inputs)", u.name, len(u.ins))
}

// unionTap is an output reading the first prefix inputs.
type unionTap struct {
	port   Port
	prefix int
}

// AddOutput adds an output that reads only the first n inputs, in
// registration order — registered already or registered later — and returns
// its port. Prefixes count inputs by position, so a union with such outputs
// must not be restructured with Reorder or DropClosed.
func (u *Union) AddOutput(n int) *Port {
	i := 0
	for i < len(u.taps) && u.taps[i].prefix >= n {
		i++
	}
	t := &unionTap{prefix: n}
	u.taps = slices.Insert(u.taps, i, t)
	for j := range min(n, len(u.ins)) {
		u.readers[j]++
	}
	return &t.port
}

// pushTaps pushes a tuple to the first n prefix outputs, the ones reading
// the input it came from besides Out.
func (u *Union) pushTaps(n int, t *stream.Tuple) {
	for _, tp := range u.taps[:n] {
		tp.port.PushTuple(t)
	}
}

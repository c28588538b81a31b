package operator

import (
	"fmt"

	"stateslice/internal/stream"
)

// A selecting union runs the result path of a filtered or routed chain
// inside its one merge. Input j carries slice j's raw results together with
// the tests the per-query wiring would have placed after that slice: the
// slice's router (its sorted inside windows) and its mask-filter groups. Each
// output reads a prefix of the inputs and, on every input, one router branch
// and at most one mask group. An item is tested once, when it becomes its
// input's head: the router scan runs once, each mask group it reaches is
// evaluated once, and the outputs that accept it are cached until it is
// emitted. An item no output accepts is dropped before the merge, so it never
// holds other inputs back.
//
// Costs are charged as the per-query operators charged them: the router one
// invocation plus its route comparisons per item, each group one invocation
// plus its mask comparisons per item that reaches it, and one union
// invocation per accepting output; a punctuation costs one union comparison
// per output reading its input plus one invocation for the router and each
// group. An output reading the first input alone is that input's filtered
// stream, not a merge — the per-query wiring connects such a query to the
// slice without a union — so the union charges it nothing.
//
// A selecting union only serves its selecting outputs: Out and AddOutput
// are not pushed. Its inputs are all registered with AddSelectingInput,
// before the first selecting output is added.

// MaskTest is one mask group of a selecting input: the MaskFilter test of
// query bit Query on the checked sides, applied to the results that reach it
// — every result when Branch is -1, otherwise those the input's router sends
// down branch Branch.
type MaskTest struct {
	Query          int
	CheckA, CheckB bool
	Branch         int
}

// Read is a selecting output's test on one input: the router branch it reads
// (-1: every result) and the mask group the result must pass (-1: none); a
// group is read on the branch it filters.
type Read struct{ Branch, Group int }

// unionSel is the selecting state of a union.
type unionSel struct {
	ins  []selInput
	outs []*Port
	// floor, when set, lower-bounds the frontier of every empty input (see
	// SetFloor).
	floor func() stream.Time
}

// selInput holds one input's tests, its readers and the cached verdict on
// its head.
type selInput struct {
	windows  []stream.Time // router branches, ascending; nil without a router
	testLast bool
	groups   []maskGroup
	readers  []selReader
	// ops counts the per-query operators a punctuation passes through
	// (the router and each group); charged counts the readers a union
	// charges.
	ops, charged int

	// ready marks the head as tested and accepted by the outputs in acc,
	// accCharged of which are charged.
	ready      bool
	acc        []*Port
	accCharged int
}

type maskGroup struct {
	bit            uint64
	checkA, checkB bool
	branch         int
	pass           bool // verdict on the current head
}

type selReader struct {
	port          *Port
	branch, group int
	charged       bool
}

// selecting returns the union's selecting state, creating it on first use.
func (u *Union) selecting() *unionSel {
	if u.sel == nil {
		u.sel = &unionSel{ins: make([]selInput, len(u.ins))}
	}
	return u.sel
}

// AddSelectingInput registers an input tested by a router over the given
// ascending branch windows (none when windows is empty; testLast as in
// Router.RequireLastCheck) and by the given mask groups, and returns its
// queue. An input with neither passes every item to every output reading it.
func (u *Union) AddSelectingInput(windows []stream.Time, testLast bool, groups []MaskTest) (*stream.Queue, error) {
	for k := 1; k < len(windows); k++ {
		if windows[k] <= windows[k-1] {
			return nil, fmt.Errorf("operator %s: router windows must be strictly ascending (got %s after %s)", u.name, windows[k], windows[k-1])
		}
	}
	in := selInput{testLast: testLast}
	if len(windows) > 0 {
		in.windows = append([]stream.Time(nil), windows...)
		in.ops++
	}
	for _, g := range groups {
		if g.Branch < -1 || g.Branch >= len(windows) {
			return nil, fmt.Errorf("operator %s: mask group reads branch %d of %d", u.name, g.Branch, len(windows))
		}
		in.groups = append(in.groups, maskGroup{bit: 1 << uint(g.Query), checkA: g.CheckA, checkB: g.CheckB, branch: g.Branch})
		in.ops++
	}
	s := u.selecting()
	q := u.AddInput()
	s.ins = append(s.ins, in)
	return q, nil
}

// AddSelectingOutput adds an output reading the first len(reads) inputs,
// reads[j] being its test on input j, and returns its port.
func (u *Union) AddSelectingOutput(reads []Read) (*Port, error) {
	s := u.selecting()
	if len(reads) == 0 || len(reads) > len(s.ins) {
		return nil, fmt.Errorf("operator %s: a selecting output must read 1..%d inputs, got %d", u.name, len(s.ins), len(reads))
	}
	p := &Port{}
	charged := len(reads) > 1
	for j, r := range reads {
		in := &s.ins[j]
		if r.Branch < -1 || r.Branch >= len(in.windows) || r.Group < -1 || r.Group >= len(in.groups) ||
			(r.Group >= 0 && in.groups[r.Group].branch != r.Branch) {
			return nil, fmt.Errorf("operator %s: output reads branch %d, group %d of input %d (%d branches, %d groups; a group is read on its own branch)",
				u.name, r.Branch, r.Group, j, len(in.windows), len(in.groups))
		}
		in.readers = append(in.readers, selReader{port: p, branch: r.Branch, group: r.Group, charged: charged})
		if charged {
			in.charged++
		}
		if in.untested() {
			// Every item of an untested input goes to every reader.
			in.acc = append(in.acc, p)
			in.accCharged = in.charged
		}
	}
	s.outs = append(s.outs, p)
	return p, nil
}

// SetFloor installs a lower bound on the frontier of every empty input,
// consulted once per Step: fn returns a time no future item of any input
// precedes, or -1 when it knows none. A chain whose lineage gates drop tuples
// leaves the slices behind a gate without punctuations for them; the chain
// knows, whenever none of its queues holds an item, that every slice has
// finished with everything it consumed, and the floor lets the merge — and
// the outputs that never read the gated slices — move on without those
// punctuations. No item is added and nothing is charged.
func (u *Union) SetFloor(fn func() stream.Time) { u.selecting().floor = fn }

// untested reports whether the input has neither a router nor a mask group.
func (in *selInput) untested() bool { return in.windows == nil && len(in.groups) == 0 }

// accept tests the head tuple t once, caching the accepting outputs, and
// reports whether any output accepts it.
func (in *selInput) accept(m *CostMeter, t *stream.Tuple) bool {
	if in.untested() {
		return len(in.acc) > 0
	}
	first := 0
	if in.windows != nil {
		m.invoke(1)
		first = routeFirst(m, in.windows, in.testLast, t.WindowDiff())
	}
	for g := range in.groups {
		gr := &in.groups[g]
		gr.pass = false
		if gr.branch < 0 || (first >= 0 && first <= gr.branch) {
			m.invoke(1)
			gr.pass = maskPass(m, t, gr.bit, gr.checkA, gr.checkB)
		}
	}
	in.acc, in.accCharged = in.acc[:0], 0
	for _, r := range in.readers {
		// A group's verdict is false unless its branch took the item.
		if r.group >= 0 {
			if !in.groups[r.group].pass {
				continue
			}
		} else if r.branch >= 0 && (first < 0 || first > r.branch) {
			continue
		}
		in.acc = append(in.acc, r.port)
		if r.charged {
			in.accCharged++
		}
	}
	return len(in.acc) > 0
}

// selHead brings input i to a head some output accepts and returns it, or
// nil once the input is empty: it absorbs leading punctuations and drops
// the tuples no output accepts.
func (u *Union) selHead(m *CostMeter, i int) *stream.Tuple {
	q, in := u.ins[i], &u.sel.ins[i]
	for !q.Empty() {
		it := q.Peek()
		if !it.IsPunct() {
			if in.ready || in.accept(m, it.Tuple) {
				in.ready = true
				return it.Tuple
			}
			q.Pop()
			continue
		}
		q.Pop()
		m.union(in.charged)
		m.invoke(in.ops)
		if it.Punct > u.frontiers[i] {
			u.frontiers[i] = it.Punct
		}
	}
	return nil
}

// stepSelecting is Step for a selecting union: the run-at-a-time merge of
// Step over tested heads, each emitted item going to the outputs that
// accepted it, with empty inputs' frontiers raised to the floor.
func (u *Union) stepSelecting(m *CostMeter, max int) int {
	s := u.sel
	bud := budget(max)
	n := 0
	floor := stream.Time(-1)
	if s.floor != nil {
		floor = s.floor()
	}
	for i := range u.ins {
		u.selHead(m, i)
	}
	for n < bud {
		best, openIdx := -1, -1
		var bestT, openT *stream.Tuple
		minFrontier := stream.MaxTime
		for i, q := range u.ins {
			if q.Empty() {
				// An empty input constrains emission to its
				// frontier, raised to the floor.
				f := u.frontiers[i]
				if f < floor {
					f = floor
				}
				if f < minFrontier {
					minFrontier = f
				}
				continue
			}
			head := q.Peek().Tuple
			if best == -1 {
				best, bestT = i, head
				continue
			}
			if head.Time == bestT.Time && head.Seq == bestT.Seq {
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
		if best == -1 || bestT.Time > minFrontier {
			break
		}
		q, in := u.ins[best], &s.ins[best]
		for n < bud {
			q.Pop()
			in.ready = false
			m.invoke(in.accCharged)
			for _, p := range in.acc {
				p.PushTuple(bestT)
			}
			n++
			head := u.selHead(m, best)
			if head == nil || head.Time > minFrontier {
				break
			}
			if openT != nil {
				if head.Time == openT.Time && head.Seq == openT.Seq {
					if best > openIdx {
						break
					}
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
	if n < bud && len(u.ins) > 0 {
		min := stream.MaxTime
		for i, q := range u.ins {
			f := u.frontiers[i]
			if q.Empty() && f < floor {
				f = floor
			}
			if f < min {
				min = f
			}
		}
		if min > u.lastPunct {
			u.lastPunct = min
			for _, p := range s.outs {
				p.PushPunct(min)
			}
		}
	}
	return n
}

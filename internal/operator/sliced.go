package operator

import (
	"fmt"

	"stateslice/internal/stream"
)

// SlicedBinaryJoin is the sliced binary window join
// A[W_start, W_end] s|><| B[W_start, W_end] of Definition 3 in the paper,
// executed with the male/female reference-copy scheme of Figure 9: the male
// copy of each tuple cross-purges the opposite state, probes it and
// propagates itself to the next slice; the female copy fills its own state
// and moves to the next slice when purged.
//
// The operator's input is one logical queue (both streams, both roles,
// globally ordered); purged females and propagated males leave through the
// "next" port in exactly the order Lemma 1 requires. Results leave through
// the result port followed by a punctuation per male, which downstream
// unions use for order-preserving merging (Section 4.3: "the male tuple of
// the last sliced join acts as punctuation for the union operator").
type SlicedBinaryJoin struct {
	name         string
	wstart, wend stream.Time
	pred         stream.JoinPredicate
	prober       prober
	in           *stream.Queue
	states       [2]*stream.State // female tuples per stream
	result       Port
	next         Port
	// selfPurge additionally evicts expired own-stream females when a
	// female arrives (footnote 1 of the paper: "self-purge is also
	// applicable"). It bounds state staleness when the opposite stream
	// stalls; results are unchanged because an arriving female's
	// timestamp lower-bounds every future probing male of the other
	// stream.
	selfPurge bool
}

// NewSlicedBinaryJoin builds a sliced binary join for the window range
// [wstart, wend).
func NewSlicedBinaryJoin(name string, wstart, wend stream.Time, pred stream.JoinPredicate, in *stream.Queue) (*SlicedBinaryJoin, error) {
	if wstart < 0 || wend <= wstart {
		return nil, fmt.Errorf("operator %s: invalid slice range [%s, %s)", name, wstart, wend)
	}
	return &SlicedBinaryJoin{
		name:   name,
		wstart: wstart,
		wend:   wend,
		pred:   pred,
		prober: newProber(pred),
		in:     in,
		states: [2]*stream.State{stream.NewState(), stream.NewState()},
	}, nil
}

// WithSelfPurge enables same-stream purging on female arrivals and returns
// the join.
func (j *SlicedBinaryJoin) WithSelfPurge() *SlicedBinaryJoin {
	j.selfPurge = true
	return j
}

// Result exposes the Joined-Result output port.
func (j *SlicedBinaryJoin) Result() *Port { return &j.result }

// Next exposes the port feeding the next slice of the chain.
func (j *SlicedBinaryJoin) Next() *Port { return &j.next }

// In exposes the input queue (used by chain migration).
func (j *SlicedBinaryJoin) In() *stream.Queue { return j.in }

// Range returns the slice window range [start, end).
func (j *SlicedBinaryJoin) Range() (start, end stream.Time) { return j.wstart, j.wend }

// Name implements Operator.
func (j *SlicedBinaryJoin) Name() string { return j.name }

// Pending implements Operator.
func (j *SlicedBinaryJoin) Pending() bool { return !j.in.Empty() }

// StateSize implements StateSizer.
func (j *SlicedBinaryJoin) StateSize() int { return j.states[0].Len() + j.states[1].Len() }

// StateSnapshot returns the female tuples of the given stream, oldest-first.
func (j *SlicedBinaryJoin) StateSnapshot(id stream.ID) []*stream.Tuple {
	return j.states[id].Snapshot()
}

// RestoreState replaces the window state of the given stream with the given
// tuples, oldest-first — the inverse of StateSnapshot. Checkpoint restore
// fills a freshly built chain with snapshotted slice contents; the tuples
// must already be in arrival (timestamp) order, exactly as Snapshot emitted
// them.
func (j *SlicedBinaryJoin) RestoreState(id stream.ID, tuples []*stream.Tuple) {
	st := j.states[id]
	st.Clear()
	for _, t := range tuples {
		st.Insert(t)
	}
}

// Step implements Operator.
func (j *SlicedBinaryJoin) Step(m *CostMeter, max int) int {
	n := 0
	for n < budget(max) && !j.in.Empty() {
		it := j.in.Pop()
		n++
		m.invoke(1)
		if it.IsPunct() {
			j.result.Push(it)
			j.next.Push(it)
			continue
		}
		t := it.Tuple
		switch it.Role {
		case stream.RoleFemale:
			// Insert: fill this slice's window state, optionally
			// evicting own-stream females that no future male of
			// the opposite stream can reach.
			if j.selfPurge {
				purgeExpired(m, j.states[t.Stream], t.Time, j.wend, &j.next)
			}
			j.states[t.Stream].Insert(t)
		case stream.RoleMale:
			j.processMale(m, t)
		default:
			// A plain item reaching a sliced join is a wiring bug:
			// the ChainInput operator must split roles first.
			panic(fmt.Sprintf("operator %s: plain tuple %s reached a sliced join", j.name, t))
		}
	}
	return n
}

// processMale runs cross-purge, probe and propagate for a male tuple.
func (j *SlicedBinaryJoin) processMale(m *CostMeter, t *stream.Tuple) {
	opp := j.states[t.Stream.Other()]
	// 1. Cross-purge the opposite state into the next slice.
	purgeExpired(m, opp, t.Time, j.wend, &j.next)
	// 2. Probe the surviving opposite females.
	j.prober.probe(m, opp, t, &j.result)
	// 3. Propagate the male to the next slice.
	j.next.Push(stream.RoleItem(t, stream.RoleMale))
	j.result.PushPunct(t.Time)
}

// ChainInput splits each plain source tuple into its female and male
// reference copies before the first sliced binary join of a chain
// (Section 4.2: "each input tuple ... will be captured as two reference
// copies before the tuple is processed by the first binary sliced window
// join"). The female is emitted first so the state-filling copy never
// overtakes its own probing copy. The roles ride on the queue items, so the
// split allocates nothing: both items reference the same *Tuple.
type ChainInput struct {
	name string
	in   *stream.Queue
	out  Port
}

// NewChainInput builds the role splitter over the input queue.
func NewChainInput(name string, in *stream.Queue) *ChainInput {
	return &ChainInput{name: name, in: in}
}

// Out exposes the output port feeding the first slice.
func (c *ChainInput) Out() *Port { return &c.out }

// Name implements Operator.
func (c *ChainInput) Name() string { return c.name }

// Pending implements Operator.
func (c *ChainInput) Pending() bool { return !c.in.Empty() }

// Step implements Operator.
func (c *ChainInput) Step(m *CostMeter, max int) int {
	n := 0
	for n < budget(max) && !c.in.Empty() {
		it := c.in.Pop()
		n++
		m.invoke(1)
		if it.IsPunct() {
			c.out.Push(it)
			continue
		}
		t := it.Tuple
		c.out.Push(stream.RoleItem(t, stream.RoleFemale))
		c.out.Push(stream.RoleItem(t, stream.RoleMale))
	}
	return n
}

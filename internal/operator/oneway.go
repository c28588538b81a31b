package operator

import (
	"fmt"

	"stateslice/internal/stream"
)

// SlicedOneWayJoin is the sliced one-way window join
// A[W_start, W_end] s|>< B of Definition 1 in the paper (Figure 5): only
// stream A keeps a window state, restricted to tuples whose age relative to
// the probing B tuple lies in the slice range. Arriving A tuples are
// inserted; arriving B tuples cross-purge, probe and propagate (Figure 6).
//
// The operator has three outputs: the Joined-Result port, and the combined
// Purged-A-Tuple / Propagated-B-Tuple port ("next") that feeds the following
// join in a chain through one logical queue, as in Figure 7. When next is
// left unconnected, purged and propagated tuples are discarded — the
// behaviour of the last join of a chain.
type SlicedOneWayJoin struct {
	name         string
	wstart, wend stream.Time
	prober       prober
	in           *stream.Queue
	stateA       *stream.State
	result       Port
	next         Port
	// selfPurge additionally purges the A state on A arrivals (footnote 1
	// of the paper: "self-purge is also applicable"). Table 2's rows 9-10
	// are only reproducible with it enabled; see the slicetrace command.
	selfPurge bool
}

// NewSlicedOneWayJoin builds a sliced one-way join for the window range
// [wstart, wend).
func NewSlicedOneWayJoin(name string, wstart, wend stream.Time, pred stream.JoinPredicate, in *stream.Queue) (*SlicedOneWayJoin, error) {
	if wstart < 0 || wend <= wstart {
		return nil, fmt.Errorf("operator %s: invalid slice range [%s, %s)", name, wstart, wend)
	}
	return &SlicedOneWayJoin{
		name:   name,
		wstart: wstart,
		wend:   wend,
		prober: newProber(pred),
		in:     in,
		stateA: stream.NewState(),
	}, nil
}

// WithSelfPurge enables purging of the A state on A arrivals and returns the
// join.
func (j *SlicedOneWayJoin) WithSelfPurge() *SlicedOneWayJoin {
	j.selfPurge = true
	return j
}

// Result exposes the Joined-Result output port.
func (j *SlicedOneWayJoin) Result() *Port { return &j.result }

// Next exposes the combined purged/propagated output port feeding the next
// join of the chain.
func (j *SlicedOneWayJoin) Next() *Port { return &j.next }

// Range returns the slice window range [start, end).
func (j *SlicedOneWayJoin) Range() (start, end stream.Time) { return j.wstart, j.wend }

// StateSnapshot returns the A-state tuples oldest-first (used by traces).
func (j *SlicedOneWayJoin) StateSnapshot() []*stream.Tuple { return j.stateA.Snapshot() }

// Name implements Operator.
func (j *SlicedOneWayJoin) Name() string { return j.name }

// Pending implements Operator.
func (j *SlicedOneWayJoin) Pending() bool { return !j.in.Empty() }

// StateSize implements StateSizer.
func (j *SlicedOneWayJoin) StateSize() int { return j.stateA.Len() }

// Step implements Operator.
func (j *SlicedOneWayJoin) Step(m *CostMeter, max int) int {
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
		if t.Stream == stream.StreamA {
			if j.selfPurge {
				purgeExpired(m, j.stateA, t.Time, j.wend, &j.next)
			}
			j.stateA.Insert(t)
			continue
		}
		// Arriving B tuple: cross-purge, probe, propagate (Figure 6).
		purgeExpired(m, j.stateA, t.Time, j.wend, &j.next)
		j.prober.probe(m, j.stateA, t, &j.result)
		j.next.PushTuple(t)
		j.result.PushPunct(t.Time)
	}
	return n
}

package operator

import (
	"fmt"

	"stateslice/internal/stream"
)

// Count-based windows: Section 2 of the paper notes that the state-slice
// techniques "can be applied to count-based window constraints in the same
// way". Here a window of size C holds the C most recent tuples of a stream,
// and a slice [Cstart, Cend) holds the tuples whose recency rank lies in
// that interval (rank 0 = newest). Instead of timestamp cross-purge, slices
// evict by capacity overflow: inserting into a full slice pushes the oldest
// tuple into the next slice's queue, so the eviction cascade plays the role
// of the purge step and the same pipelining argument (Lemma 1) applies with
// ranks substituted for timestamp distances.

// CountWindowJoin is the regular binary count-based window join: stream A
// keeps its last CA tuples, stream B its last CB.
type CountWindowJoin struct {
	name   string
	ca, cb int
	prober prober
	in     *stream.Queue
	states [2]*stream.State
	out    Port
}

// NewCountWindowJoin builds a count-based window join.
func NewCountWindowJoin(name string, ca, cb int, pred stream.JoinPredicate, in *stream.Queue) (*CountWindowJoin, error) {
	if ca <= 0 || cb <= 0 {
		return nil, fmt.Errorf("operator %s: count windows must be positive (A=%d, B=%d)", name, ca, cb)
	}
	return &CountWindowJoin{
		name:   name,
		ca:     ca,
		cb:     cb,
		prober: newProber(pred),
		in:     in,
		states: [2]*stream.State{stream.NewState(), stream.NewState()},
	}, nil
}

// Out exposes the joined-result port.
func (j *CountWindowJoin) Out() *Port { return &j.out }

// Name implements Operator.
func (j *CountWindowJoin) Name() string { return j.name }

// Pending implements Operator.
func (j *CountWindowJoin) Pending() bool { return !j.in.Empty() }

// StateSize implements StateSizer.
func (j *CountWindowJoin) StateSize() int { return j.states[0].Len() + j.states[1].Len() }

// Step implements Operator.
func (j *CountWindowJoin) Step(m *CostMeter, max int) int {
	n := 0
	for n < budget(max) && !j.in.Empty() {
		it := j.in.Pop()
		n++
		m.invoke(1)
		if it.IsPunct() {
			j.out.Push(it)
			continue
		}
		t := it.Tuple
		// Probe the opposite state first (the arriving tuple must not
		// join tuples that its own insertion would evict concurrently
		// on the other side; probing before inserting preserves the
		// "last C at arrival" semantics).
		j.prober.probe(m, j.states[t.Stream.Other()], t, &j.out)
		// Insert and evict by capacity.
		own := j.states[t.Stream]
		own.Insert(t)
		cap := j.ca
		if t.Stream == stream.StreamB {
			cap = j.cb
		}
		for own.Len() > cap {
			m.purge(1)
			own.PopFront()
		}
		j.out.PushPunct(t.Time)
	}
	return n
}

// SlicedCountBinaryJoin is a count-based slice [Cstart, Cend) of a binary
// join chain: each side's state holds the tuples whose recency rank within
// their stream lies in the slice interval. Female copies fill states and
// cascade out on overflow; male copies probe and propagate, mirroring the
// time-based SlicedBinaryJoin.
type SlicedCountBinaryJoin struct {
	name         string
	cstart, cend int
	prober       prober
	in           *stream.Queue
	states       [2]*stream.State
	result       Port
	next         Port
}

// NewSlicedCountBinaryJoin builds a sliced count-based binary join for the
// rank interval [cstart, cend).
func NewSlicedCountBinaryJoin(name string, cstart, cend int, pred stream.JoinPredicate, in *stream.Queue) (*SlicedCountBinaryJoin, error) {
	if cstart < 0 || cend <= cstart {
		return nil, fmt.Errorf("operator %s: invalid count slice [%d, %d)", name, cstart, cend)
	}
	return &SlicedCountBinaryJoin{
		name:   name,
		cstart: cstart,
		cend:   cend,
		prober: newProber(pred),
		in:     in,
		states: [2]*stream.State{stream.NewState(), stream.NewState()},
	}, nil
}

// Result exposes the Joined-Result output port.
func (j *SlicedCountBinaryJoin) Result() *Port { return &j.result }

// Next exposes the port feeding the next slice.
func (j *SlicedCountBinaryJoin) Next() *Port { return &j.next }

// Range returns the rank interval [start, end).
func (j *SlicedCountBinaryJoin) Range() (start, end int) { return j.cstart, j.cend }

// Name implements Operator.
func (j *SlicedCountBinaryJoin) Name() string { return j.name }

// Pending implements Operator.
func (j *SlicedCountBinaryJoin) Pending() bool { return !j.in.Empty() }

// StateSize implements StateSizer.
func (j *SlicedCountBinaryJoin) StateSize() int { return j.states[0].Len() + j.states[1].Len() }

// Step implements Operator.
func (j *SlicedCountBinaryJoin) Step(m *CostMeter, max int) int {
	capacity := j.cend - j.cstart
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
			own := j.states[t.Stream]
			own.Insert(t)
			for own.Len() > capacity {
				m.purge(1)
				j.next.Push(stream.RoleItem(own.PopFront(), stream.RoleFemale))
			}
		case stream.RoleMale:
			j.prober.probe(m, j.states[t.Stream.Other()], t, &j.result)
			j.next.Push(stream.RoleItem(t, stream.RoleMale))
			j.result.PushPunct(t.Time)
		default:
			panic(fmt.Sprintf("operator %s: plain tuple %s reached a sliced count join", j.name, t))
		}
	}
	return n
}

package operator

import (
	"fmt"

	"stateslice/internal/stream"
)

// WindowJoin is the regular binary sliding-window join A[W_A] |><| B[W_B]
// executed with the cross-purge / probe / insert steps of Figure 1 in the
// paper. Its input is a single queue carrying both streams merged in global
// timestamp order; its output carries the joined results followed by a
// punctuation per processed input tuple, which downstream unions use for
// order-preserving merging.
//
// Window semantics: a pair (a, b) joins when Tb - Ta <= W_A or
// Ta - Tb <= W_B. The paper states the strict form in Section 2 but its
// operational purge rule (Figure 6: purge when the distance exceeds the
// window) and the Table 2 trace keep boundary tuples, so the closed form is
// what a chain of sliced joins computes; the monolithic join uses the same
// closed boundaries to stay exactly equivalent. With continuous Poisson
// timestamps the boundary cases have probability zero either way.
type WindowJoin struct {
	name   string
	wa, wb stream.Time
	pred   stream.JoinPredicate
	in     *stream.Queue
	states [2]*stream.State
	out    Port
	hash   bool
	prober prober
}

// NewWindowJoin builds a regular sliding-window join. wa is the window on
// stream A's state, wb on stream B's.
func NewWindowJoin(name string, wa, wb stream.Time, pred stream.JoinPredicate, in *stream.Queue) (*WindowJoin, error) {
	if wa < 0 || wb < 0 {
		return nil, fmt.Errorf("operator %s: negative window (A=%s, B=%s)", name, wa, wb)
	}
	return &WindowJoin{
		name:   name,
		wa:     wa,
		wb:     wb,
		pred:   pred,
		prober: newProber(pred),
		in:     in,
		states: [2]*stream.State{stream.NewState(), stream.NewState()},
	}, nil
}

// WithHashProbe switches probing to the equijoin hash index, modelling the
// hash-join execution the paper cites from Kang et al. [14]. It must be
// called before any tuple is processed and requires an Equijoin predicate.
func (j *WindowJoin) WithHashProbe() (*WindowJoin, error) {
	if _, ok := j.pred.(stream.Equijoin); !ok {
		return nil, fmt.Errorf("operator %s: hash probing requires an equijoin predicate, got %s", j.name, j.pred)
	}
	j.hash = true
	j.states[0].WithIndex()
	j.states[1].WithIndex()
	return j, nil
}

// Out exposes the joined-result port.
func (j *WindowJoin) Out() *Port { return &j.out }

// Name implements Operator.
func (j *WindowJoin) Name() string { return j.name }

// Pending implements Operator.
func (j *WindowJoin) Pending() bool { return !j.in.Empty() }

// StateSize implements StateSizer.
func (j *WindowJoin) StateSize() int { return j.states[0].Len() + j.states[1].Len() }

// Windows returns the configured window sizes (A, B).
func (j *WindowJoin) Windows() (stream.Time, stream.Time) { return j.wa, j.wb }

// Step implements Operator.
func (j *WindowJoin) Step(m *CostMeter, max int) int {
	n := 0
	for n < budget(max) && !j.in.Empty() {
		it := j.in.Pop()
		n++
		m.invoke(1)
		if it.IsPunct() {
			j.out.Push(it)
			continue
		}
		j.process(m, it.Tuple)
	}
	return n
}

// process runs the three execution steps of Figure 1 for one arriving tuple.
func (j *WindowJoin) process(m *CostMeter, t *stream.Tuple) {
	opp := t.Stream.Other()
	oppWindow := j.wa
	if opp == stream.StreamB {
		oppWindow = j.wb
	}
	st := j.states[opp]
	// 1. Cross-purge: discard expired tuples of the opposite state.
	purgeExpired(m, st, t.Time, oppWindow, nil)
	// 2. Probe: emit t joined with the surviving opposite tuples.
	j.probe(m, st, t)
	// 3. Insert: add t to its own window state.
	j.states[t.Stream].Insert(t)
	// The probing tuple acts as a punctuation for downstream merges: all
	// future results carry a later timestamp.
	j.out.PushPunct(t.Time)
}

// probe emits all matches between t and the opposite state st.
func (j *WindowJoin) probe(m *CostMeter, st *stream.State, t *stream.Tuple) {
	if j.hash {
		m.hash(1)
		bucket := st.Bucket(t.Key)
		m.probe(len(bucket))
		j.prober.emit(t, bucket, &j.out)
		return
	}
	j.prober.probe(m, st, t, &j.out)
}

// purgeExpired removes tuples from the front of st whose age relative to now
// strictly exceeds window, sending them to next when provided (the
// Purged-Tuple queue of a sliced join, where they arrive as the female
// reference copies of the following slice) and discarding them otherwise.
// Every examined tuple, including the one that stops the scan, costs one
// timestamp comparison on the meter.
func purgeExpired(m *CostMeter, st *stream.State, now stream.Time, window stream.Time, next *Port) {
	for st.Len() > 0 {
		m.purge(1)
		front := st.Front()
		if now-front.Time <= window {
			return
		}
		st.PopFront()
		if next != nil {
			next.Push(stream.RoleItem(front, stream.RoleFemale))
		}
	}
}

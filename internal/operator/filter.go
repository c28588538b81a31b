package operator

import "stateslice/internal/stream"

// Filter applies a selection predicate to the tuples of one stream, such as
// the sigma_A operator "A.Value > Threshold" of query Q2 in the paper.
// Punctuations always pass. When Stream filtering is restricted (OnlyStream
// set), tuples of the other stream pass without predicate evaluation — this
// is how the pushed-down filters between chain slices let stream-B tuples
// through while filtering stream A (Figure 10).
type Filter struct {
	name string
	pred stream.Predicate
	in   *stream.Queue
	out  Port

	// only restricts evaluation to one stream when restrict is true.
	only     stream.ID
	restrict bool

	// resultSide, when true, evaluates the predicate against the stream-A
	// source of joined result tuples (the sigma'_A filters applied to
	// join outputs in Figures 3 and 10), and predB, when non-nil, against
	// the stream-B source.
	resultSide bool
	predB      stream.Predicate
}

// NewFilter returns a filter over all tuples of the input queue.
func NewFilter(name string, pred stream.Predicate, in *stream.Queue) *Filter {
	return &Filter{name: name, pred: pred, in: in}
}

// NewStreamFilter returns a filter that evaluates pred only on tuples of
// stream id, passing the other stream through untouched.
func NewStreamFilter(name string, pred stream.Predicate, id stream.ID, in *stream.Queue) *Filter {
	return &Filter{name: name, pred: pred, in: in, only: id, restrict: true}
}

// NewResultFilter returns a filter that evaluates pred on the stream-A source
// tuple of joined results (sigma'_A in the paper's plans).
func NewResultFilter(name string, pred stream.Predicate, in *stream.Queue) *Filter {
	return &Filter{name: name, pred: pred, in: in, resultSide: true}
}

// NewResultFilter2 returns a filter over joined results evaluating predA on
// the stream-A source and predB on the stream-B source; either may be nil.
func NewResultFilter2(name string, predA, predB stream.Predicate, in *stream.Queue) *Filter {
	return &Filter{name: name, pred: predA, predB: predB, in: in, resultSide: true}
}

// Out exposes the output port for wiring.
func (f *Filter) Out() *Port { return &f.out }

// Name implements Operator.
func (f *Filter) Name() string { return f.name }

// Pending implements Operator.
func (f *Filter) Pending() bool { return !f.in.Empty() }

// Step implements Operator.
func (f *Filter) Step(m *CostMeter, max int) int {
	n := 0
	for n < budget(max) && !f.in.Empty() {
		it := f.in.Pop()
		n++
		m.invoke(1)
		if it.IsPunct() {
			f.out.Push(it)
			continue
		}
		t := it.Tuple
		if f.resultSide {
			pass := true
			if f.pred != nil {
				m.filter(1)
				pass = f.pred.Eval(t.A)
			}
			if pass && f.predB != nil {
				m.filter(1)
				pass = f.predB.Eval(t.B)
			}
			if pass {
				f.out.Push(it)
			}
			continue
		}
		if f.restrict && t.Stream != f.only {
			f.out.Push(it)
			continue
		}
		m.filter(1)
		if f.pred.Eval(t) {
			f.out.Push(it)
		}
	}
	return n
}

// LineageMark evaluates the per-query selection predicates once per
// stream-A tuple at the entry of a sliced-join chain and records the result
// as a lineage level plus a condition bitmask (Section 6.1: "evaluate the
// predicates cond_i in the decreasing order of i ... attach k to the tuple").
//
// Level is the highest query index whose condition the tuple satisfies; a
// tuple with Level = k can contribute join results only to queries up to k,
// so it "can survive until the kth sliced join and no further". CondMask bit
// i records whether cond_i holds, letting result-side edges test a condition
// with a single mask comparison instead of re-evaluating the predicate.
type LineageMark struct {
	name string
	// conds[s][i] is the selection predicate of query i (0-based) on
	// stream s. A nil or True entry means the query has no selection on
	// that stream. Marking per stream realises Section 6's remark that
	// predicates on multiple streams push down the same way.
	conds [2][]stream.Predicate
	in    *stream.Queue
	out   Port
	// identical notes, per stream, that all non-trivial predicates are
	// the same, so one evaluation decides every bit (the common case in
	// the paper's experiments, and what keeps the measured filter cost
	// equal to the single-sigma term of Eq. (3)).
	identical [2]bool
	last      stream.Time // see Last
}

// NewLineageMark builds the marker for the given per-query predicates on
// streams A and B, ordered by ascending query window (the chain order).
// condsB may be nil when no query filters stream B.
func NewLineageMark(name string, condsA, condsB []stream.Predicate, in *stream.Queue) *LineageMark {
	if condsB == nil {
		condsB = make([]stream.Predicate, len(condsA))
	}
	lm := &LineageMark{name: name, in: in, last: -1}
	lm.conds[stream.StreamA] = condsA
	lm.conds[stream.StreamB] = condsB
	for s, conds := range lm.conds {
		lm.identical[s] = true
		var proto stream.Predicate
		for _, c := range conds {
			if c == nil {
				continue
			}
			if _, ok := c.(stream.True); ok {
				continue
			}
			if proto == nil {
				proto = c
				continue
			}
			if c.String() != proto.String() {
				lm.identical[s] = false
			}
		}
	}
	return lm
}

// Out exposes the output port.
func (l *LineageMark) Out() *Port { return &l.out }

// Last returns the timestamp of the last tuple or punctuation the marker
// consumed, -1 before the first. Every later input carries a timestamp at or
// above it.
func (l *LineageMark) Last() stream.Time { return l.last }

// Name implements Operator.
func (l *LineageMark) Name() string { return l.name }

// Pending implements Operator.
func (l *LineageMark) Pending() bool { return !l.in.Empty() }

// Step implements Operator.
func (l *LineageMark) Step(m *CostMeter, max int) int {
	n := 0
	for n < budget(max) && !l.in.Empty() {
		it := l.in.Pop()
		n++
		m.invoke(1)
		if it.IsPunct() {
			if it.Punct > l.last {
				l.last = it.Punct
			}
			l.out.Push(it)
			continue
		}
		t := it.Tuple
		l.last = t.Time
		l.mark(m, t)
		if t.Level == 0 {
			// The tuple satisfies no query's condition on its own
			// stream: it cannot contribute to any result and is
			// dropped at the gate.
			continue
		}
		l.out.Push(it)
	}
	return n
}

// mark computes Level and CondMask against the tuple's own stream's
// conditions.
func (l *LineageMark) mark(m *CostMeter, t *stream.Tuple) {
	conds := l.conds[t.Stream]
	t.Level, t.CondMask = 0, 0
	if l.identical[t.Stream] {
		// One evaluation decides all queries: find the shared
		// predicate, evaluate once, then set bits for trivial
		// (no-selection) queries unconditionally.
		var shared stream.Predicate
		for _, c := range conds {
			if c != nil {
				if _, ok := c.(stream.True); !ok {
					shared = c
					break
				}
			}
		}
		pass := true
		if shared != nil {
			m.filter(1)
			pass = shared.Eval(t)
		}
		for i, c := range conds {
			trivial := c == nil
			if !trivial {
				_, trivial = c.(stream.True)
			}
			if trivial || pass {
				t.CondMask |= 1 << uint(i)
				t.Level = i + 1
			}
		}
		return
	}
	// Heterogeneous predicates: evaluate each (counted), highest index
	// first so Level is found as soon as possible.
	for i := len(conds) - 1; i >= 0; i-- {
		c := conds[i]
		pass := true
		if c != nil {
			if _, trivial := c.(stream.True); !trivial {
				m.filter(1)
				pass = c.Eval(t)
			}
		}
		if pass {
			t.CondMask |= 1 << uint(i)
			if t.Level == 0 {
				t.Level = i + 1
			}
		}
	}
}

// LineageFilter drops stream-A tuples whose lineage level says they cannot
// contribute to any query at or beyond a slice. It implements the
// pushed-down sigma'_i filters of Figure 15 with a single integer comparison
// per tuple instead of re-evaluating predicates.
type LineageFilter struct {
	name string
	// minQuery is the 1-based index of the first query served at or after
	// the guarded slice; tuples with Level < minQuery are dropped.
	minQuery int
	// checkB extends the level check to stream-B tuples; without B-side
	// selections they always pass and the comparison is skipped, keeping
	// the measured gate cost equal to the paper's single-stream model.
	checkB bool
	in     *stream.Queue
	out    Port
}

// NewLineageFilter builds the filter guarding the slice that serves queries
// minQuery..N, checking stream-A tuples only.
func NewLineageFilter(name string, minQuery int, in *stream.Queue) *LineageFilter {
	return &LineageFilter{name: name, minQuery: minQuery, in: in}
}

// NewLineageFilter2 builds the gate checking both streams' levels, for
// workloads with selections on stream B (Section 6's multi-stream
// push-down).
func NewLineageFilter2(name string, minQuery int, in *stream.Queue) *LineageFilter {
	return &LineageFilter{name: name, minQuery: minQuery, checkB: true, in: in}
}

// Out exposes the output port.
func (l *LineageFilter) Out() *Port { return &l.out }

// Name implements Operator.
func (l *LineageFilter) Name() string { return l.name }

// Pending implements Operator.
func (l *LineageFilter) Pending() bool { return !l.in.Empty() }

// Step implements Operator. Lineage levels are computed against each
// tuple's own stream's conditions, so one integer comparison covers
// predicates on either input (Section 6's multi-stream push-down).
func (l *LineageFilter) Step(m *CostMeter, max int) int {
	n := 0
	for n < budget(max) && !l.in.Empty() {
		it := l.in.Pop()
		n++
		m.invoke(1)
		if it.IsPunct() {
			l.out.Push(it)
			continue
		}
		t := it.Tuple
		if t.Stream == stream.StreamA || l.checkB {
			m.filter(1)
			if t.Level < l.minQuery {
				continue
			}
		}
		l.out.Push(it)
	}
	return n
}

// MaskFilter passes joined results whose source tuples satisfy the recorded
// condition bit of one query on the checked sides. It replaces a sigma'
// re-evaluation with mask tests when lineage marking already evaluated the
// predicates.
type MaskFilter struct {
	name           string
	query          int // 0-based query index (bit position)
	checkA, checkB bool
	in             *stream.Queue
	out            Port
}

// NewMaskFilter builds a mask filter for the given 0-based query index,
// testing the stream-A source's mask.
func NewMaskFilter(name string, query int, in *stream.Queue) *MaskFilter {
	return &MaskFilter{name: name, query: query, checkA: true, in: in}
}

// NewMaskFilter2 builds a mask filter testing the chosen sides of each
// result.
func NewMaskFilter2(name string, query int, checkA, checkB bool, in *stream.Queue) *MaskFilter {
	return &MaskFilter{name: name, query: query, checkA: checkA, checkB: checkB, in: in}
}

// Out exposes the output port.
func (f *MaskFilter) Out() *Port { return &f.out }

// Name implements Operator.
func (f *MaskFilter) Name() string { return f.name }

// Pending implements Operator.
func (f *MaskFilter) Pending() bool { return !f.in.Empty() }

// Step implements Operator.
func (f *MaskFilter) Step(m *CostMeter, max int) int {
	bit := uint64(1) << uint(f.query)
	n := 0
	for n < budget(max) && !f.in.Empty() {
		it := f.in.Pop()
		n++
		m.invoke(1)
		if it.IsPunct() {
			f.out.Push(it)
			continue
		}
		if maskPass(m, it.Tuple, bit, f.checkA, f.checkB) {
			f.out.Push(it)
		}
	}
	return n
}

// maskPass reports whether the joined result's source tuples carry the
// condition bit on the checked sides, charging one filter comparison per side
// tested (B is not tested once A fails). The MaskFilter and a union's
// per-output mask test both call it.
func maskPass(m *CostMeter, t *stream.Tuple, bit uint64, checkA, checkB bool) bool {
	pass := true
	if checkA {
		m.filter(1)
		pass = t.A.CondMask&bit != 0
	}
	if pass && checkB {
		m.filter(1)
		pass = t.B.CondMask&bit != 0
	}
	return pass
}

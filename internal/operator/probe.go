package operator

import "stateslice/internal/stream"

// prober is the probe step every join operator shares: compare the arriving
// tuple with each tuple of the opposite window state (nested-loop join, the
// cost model of Section 3) and emit the matches. It owns the three things
// the step needs — the predicate prepared for state scans, a scratch list of
// hits, and the slab the joined results are carved from.
type prober struct {
	match stream.Matcher
	hits  []*stream.Tuple
	slab  stream.TupleSlab
}

func newProber(pred stream.JoinPredicate) prober {
	return prober{match: stream.NewMatcher(pred)}
}

// probe joins t with the tuples of the opposite state st and pushes the
// results to out, oldest match first, the stream-A tuple first in each pair.
// The meter is charged one comparison per state tuple whichever way the
// state evaluates the predicate: the paper's metric counts pairs examined.
func (p *prober) probe(m *CostMeter, st *stream.State, t *stream.Tuple, out *Port) {
	m.probe(st.Len())
	p.hits = st.Probe(&p.match, t, p.hits[:0])
	p.emit(t, p.hits, out)
	clear(p.hits) // the scratch list must not keep purged tuples alive
}

// emit pushes t joined with each tuple of matched (opposite-stream tuples, in
// order) to out.
func (p *prober) emit(t *stream.Tuple, matched []*stream.Tuple, out *Port) {
	if t.Stream == stream.StreamA {
		for _, o := range matched {
			out.PushTuple(p.slab.Joined(t, o))
		}
		return
	}
	for _, o := range matched {
		out.PushTuple(p.slab.Joined(o, t))
	}
}

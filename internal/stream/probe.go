package stream

// Matcher is a join predicate prepared for probing window states. NewMatcher
// looks at the predicate's concrete type once, when an operator is built:
// Equijoin and BandJoin read nothing of a tuple but its Key, so State.Probe
// evaluates them inline over the state's key column; any other predicate can
// read any attribute, so it is evaluated through Match on every tuple.
type Matcher struct {
	pred JoinPredicate
	kind matchKind
	band uint64 // BandJoin.B, for matchBand
}

type matchKind uint8

const (
	matchGeneric matchKind = iota // pred.Match per tuple
	matchEqual                    // k == key
	matchBand                     // |k - key| <= band
)

// NewMatcher prepares pred for State.Probe.
func NewMatcher(pred JoinPredicate) Matcher {
	switch p := pred.(type) {
	case Equijoin:
		return Matcher{pred: pred, kind: matchEqual}
	case BandJoin:
		if p.B >= 0 { // a negative band matches nothing; Match says so
			return Matcher{pred: pred, kind: matchBand, band: uint64(p.B)}
		}
	}
	return Matcher{pred: pred}
}

// Probe appends to hits the tuples of s that join with t, oldest first, and
// returns the extended slice. t is a tuple of the stream opposite to the one
// s holds; the predicate sees the stream-A tuple first.
func (s *State) Probe(m *Matcher, t *Tuple, hits []*Tuple) []*Tuple {
	ta, tb := s.Spans()
	// The key column over the same two spans.
	ka, kb := s.keys[s.head:s.head+len(ta)], s.keys[:len(tb)]
	switch m.kind {
	case matchEqual:
		hits = scanEqual(ka, ta, t.Key, hits)
		return scanEqual(kb, tb, t.Key, hits)
	case matchBand:
		// Order-preserving map of int64 onto uint64, then the band
		// [key-B, key+B] clamped to the key range: k lies in it exactly
		// when u(k)-lo <= hi-lo in wrapping arithmetic, which is the
		// unsigned distance test of BandJoin.Match over the full range.
		u := uint64(t.Key) ^ signBit
		lo, hi := u-m.band, u+m.band
		if lo > u {
			lo = 0
		}
		if hi < u {
			hi = ^uint64(0)
		}
		hits = scanBand(ka, ta, lo, hi-lo, hits)
		return scanBand(kb, tb, lo, hi-lo, hits)
	}
	hits = scanMatch(m.pred, ta, t, hits)
	return scanMatch(m.pred, tb, t, hits)
}

const signBit = 1 << 63

// scanMatch appends every tuple of span that pred matches with t.
func scanMatch(pred JoinPredicate, span []*Tuple, t *Tuple, hits []*Tuple) []*Tuple {
	if t.Stream == StreamA {
		for _, f := range span {
			if pred.Match(t, f) {
				hits = append(hits, f)
			}
		}
		return hits
	}
	for _, f := range span {
		if pred.Match(f, t) {
			hits = append(hits, f)
		}
	}
	return hits
}

// scanEqual appends tuples[i] for every keys[i] == key.
func scanEqual(keys []int64, tuples []*Tuple, key int64, hits []*Tuple) []*Tuple {
	tuples = tuples[:len(keys)]
	i := 0
	for ; i+8 <= len(keys); i += 8 {
		k := keys[i : i+8 : i+8]
		if k[0] == key || k[1] == key || k[2] == key || k[3] == key ||
			k[4] == key || k[5] == key || k[6] == key || k[7] == key {
			for j, kj := range k {
				if kj == key {
					hits = append(hits, tuples[i+j])
				}
			}
		}
	}
	for ; i < len(keys); i++ {
		if keys[i] == key {
			hits = append(hits, tuples[i])
		}
	}
	return hits
}

// scanBand appends tuples[i] for every keys[i] whose order-preserving
// unsigned image lies in [lo, lo+width].
func scanBand(keys []int64, tuples []*Tuple, lo, width uint64, hits []*Tuple) []*Tuple {
	tuples = tuples[:len(keys)]
	in := func(k int64) bool { return (uint64(k)^signBit)-lo <= width }
	i := 0
	for ; i+8 <= len(keys); i += 8 {
		k := keys[i : i+8 : i+8]
		if in(k[0]) || in(k[1]) || in(k[2]) || in(k[3]) ||
			in(k[4]) || in(k[5]) || in(k[6]) || in(k[7]) {
			for j, kj := range k {
				if in(kj) {
					hits = append(hits, tuples[i+j])
				}
			}
		}
	}
	for ; i < len(keys); i++ {
		if in(keys[i]) {
			hits = append(hits, tuples[i])
		}
	}
	return hits
}

package stream

import "fmt"

// ID identifies one of the two input streams of a (shared) join. The paper
// calls them stream A (e.g. temperature sensors) and stream B (humidity).
type ID uint8

// The two input streams.
const (
	StreamA ID = 0
	StreamB ID = 1
)

// Other returns the opposite stream identifier.
func (id ID) Other() ID { return id ^ 1 }

// String returns "A" or "B".
func (id ID) String() string {
	if id == StreamA {
		return "A"
	}
	return "B"
}

// Role distinguishes the reference copies used by sliced binary window joins
// (Section 4.2 of the paper). A plain tuple is a source tuple before it is
// split; the male copy performs cross-purge, probe and propagate; the female
// copy fills the window states.
type Role uint8

// Tuple roles.
const (
	RolePlain Role = iota
	RoleMale
	RoleFemale
)

// String returns a short human-readable role name.
func (r Role) String() string {
	switch r {
	case RoleMale:
		return "male"
	case RoleFemale:
		return "female"
	default:
		return "plain"
	}
}

// Tuple is a stream element. Source tuples carry a join key and a selection
// attribute; joined result tuples instead reference the two source tuples
// they combine (copy-of-reference, as in the paper's CAPE implementation).
//
// Tuples are immutable once emitted by the generator; operators never modify
// a tuple in place, they wrap or reference it. The male/female copies of a
// source tuple share the same Seq and Time and differ only in Role.
type Tuple struct {
	// Time is the arrival timestamp assigned by the stream generator, or
	// max(Ta, Tb) for a joined result tuple.
	Time Time
	// Seq is a globally unique, strictly increasing sequence number that
	// breaks timestamp ties and gives the total order required by the
	// engine (Section 2: "timestamps of the tuples have a global
	// ordering").
	Seq uint64
	// Ord is the 1-based ordinal of the tuple within its own stream. It
	// names tuples in traces (a1, a2, ..., b1, ...).
	Ord uint64
	// Stream is the origin stream of a source tuple. Joined tuples keep
	// the stream of the probing (male) side for bookkeeping.
	Stream ID
	// Role marks male/female reference copies inside a sliced join chain.
	// It sits next to Stream so the two one-byte fields share a word: the
	// struct is 80 bytes, which is also its allocation size class.
	Role Role
	// Key is the equijoin attribute (e.g. LocationId in the paper's
	// motivating queries).
	Key int64
	// Value is the selection attribute (e.g. A.Value in query Q2),
	// uniformly distributed in [0,1) by the generator so that a threshold
	// predicate "Value >= 1-s" has selectivity exactly s.
	Value float64
	// Level is the lineage mark of Section 6.1: the index of the last
	// slice this tuple can contribute to, given the disjunction of the
	// pushed-down selection predicates. Zero means "not marked".
	Level int
	// CondMask records which per-query selection predicates the tuple
	// satisfies (bit i set means condition of query i holds). It lets the
	// plan evaluate each predicate once per tuple, as with the tuple
	// lineage of CACQ cited in Section 6.1.
	CondMask uint64
	// A and B reference the source tuples of a joined result (A from
	// stream A, B from stream B). Both are nil for source tuples.
	A, B *Tuple
}

// IsResult reports whether t is a joined result tuple.
func (t *Tuple) IsResult() bool { return t.A != nil && t.B != nil }

// WindowDiff returns |Ta - Tb| for a joined result tuple. The router
// operators dispatch results to queries by comparing this difference with the
// query window sizes.
func (t *Tuple) WindowDiff() Time { return AbsDiff(t.A.Time, t.B.Time) }

// Before reports whether t precedes u in the global stream order
// (lexicographic on Time then Seq).
func (t *Tuple) Before(u *Tuple) bool {
	if t.Time != u.Time {
		return t.Time < u.Time
	}
	return t.Seq < u.Seq
}

// WithRole returns a shallow copy of t with the given role. It implements
// the copy-of-reference scheme of Section 4.2: the copy shares Seq, Time and
// payload with the original.
func (t *Tuple) WithRole(r Role) *Tuple {
	c := *t
	c.Role = r
	return &c
}

// Joined builds the result tuple for the pair (a, b). The timestamp of the
// joined tuple is max(Ta, Tb) per Section 2, and its Seq is the Seq of the
// later tuple so that join outputs inherit the global order of the probing
// side.
func Joined(a, b *Tuple) *Tuple {
	ts := a.Time
	seq := a.Seq
	if b.Time > ts || (b.Time == ts && b.Seq > seq) {
		ts = b.Time
		seq = b.Seq
	}
	return &Tuple{Time: ts, Seq: seq, A: a, B: b}
}

// slabSize is the number of result tuples allocated per slab chunk. Large
// enough to amortize the allocation to a fraction of a malloc per result,
// small enough that a mostly-dead chunk pinned by one live result wastes
// little memory.
const slabSize = 256

// TupleSlab amortizes result-tuple allocations: joined tuples are carved out
// of chunks of slabSize tuples, so emitting a result costs 1/slabSize heap
// allocations instead of one. A chunk stays reachable while any tuple carved
// from it is; slabs therefore suit result tuples, which either flow to sinks
// together or die together. The zero value is ready to use. Not safe for
// concurrent use — give each operator (goroutine) its own slab.
type TupleSlab struct {
	chunk []Tuple
}

// Joined builds the result tuple for the pair (a, b) on the slab, with the
// same semantics as the package-level Joined.
func (s *TupleSlab) Joined(a, b *Tuple) *Tuple {
	if len(s.chunk) == 0 {
		s.chunk = make([]Tuple, slabSize)
	}
	t := &s.chunk[0]
	s.chunk = s.chunk[1:]
	ts := a.Time
	seq := a.Seq
	if b.Time > ts || (b.Time == ts && b.Seq > seq) {
		ts = b.Time
		seq = b.Seq
	}
	t.Time, t.Seq, t.A, t.B = ts, seq, a, b
	return t
}

// String renders a compact description used by traces and tests, e.g. "a3"
// for the third stream-A tuple or "(a1,b2)" for a joined result.
func (t *Tuple) String() string {
	if t == nil {
		return "<nil>"
	}
	if t.IsResult() {
		return fmt.Sprintf("(%s,%s)", t.A, t.B)
	}
	name := "a"
	if t.Stream == StreamB {
		name = "b"
	}
	return fmt.Sprintf("%s%d", name, t.Ord)
}

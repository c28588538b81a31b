package stream

// State is the window state of one side of a join operator: a FIFO deque of
// tuples ordered by arrival. Cross-purge removes expired tuples from the
// front; probing iterates the whole deque (nested-loop join, the cost model
// the paper uses in Section 3).
//
// The ring length is always a power of two so that index wraps are bit masks
// rather than modulo divisions, and Spans exposes the deque as at most two
// contiguous slices so the probe loop of a sliced join touches tuples with
// plain slice iteration — no per-element index arithmetic at all.
//
// Next to the tuple ring the state keeps a key column: keys[i] == buf[i].Key
// for every occupied slot. Probe scans that dense column for the predicates
// that read nothing but the key, and dereferences a tuple only on a hit (see
// probe.go and DESIGN.md "Window state layout").
//
// When a hash index is attached (WithIndex), probes for equijoin predicates
// touch only the matching bucket, modelling the hash-join variant the paper
// cites from Kang et al. [14].
type State struct {
	buf   []*Tuple
	keys  []int64 // keys[i] == buf[i].Key wherever buf[i] != nil
	head  int
	n     int
	index map[int64][]*Tuple // optional equijoin index: Key -> tuples
}

// stateInitCap is the initial ring capacity; must be a power of two.
const stateInitCap = 16

// NewState returns an empty window state.
func NewState() *State {
	return &State{buf: make([]*Tuple, stateInitCap), keys: make([]int64, stateInitCap)}
}

// WithIndex enables the hash index on the state and returns it.
func (s *State) WithIndex() *State {
	s.index = make(map[int64][]*Tuple)
	for i := 0; i < s.n; i++ {
		t := s.At(i)
		s.index[t.Key] = append(s.index[t.Key], t)
	}
	return s
}

// Indexed reports whether the state maintains a hash index.
func (s *State) Indexed() bool { return s.index != nil }

// Len returns the number of tuples held.
func (s *State) Len() int { return s.n }

// At returns the i-th oldest tuple (0 = front/oldest).
func (s *State) At(i int) *Tuple { return s.buf[(s.head+i)&(len(s.buf)-1)] }

// Spans returns the stored tuples oldest-first as at most two contiguous
// slices of the underlying ring (the second is nil unless the deque wraps).
// The slices alias the ring: they are invalidated by any mutation of the
// state and must not be retained across Insert, PopFront or Clear.
func (s *State) Spans() (a, b []*Tuple) {
	if s.n == 0 {
		return nil, nil
	}
	end := s.head + s.n
	if end <= len(s.buf) {
		return s.buf[s.head:end], nil
	}
	return s.buf[s.head:], s.buf[:end&(len(s.buf)-1)]
}

// Front returns the oldest tuple, or nil when empty.
func (s *State) Front() *Tuple {
	if s.n == 0 {
		return nil
	}
	return s.buf[s.head]
}

// Back returns the youngest tuple, or nil when empty.
func (s *State) Back() *Tuple {
	if s.n == 0 {
		return nil
	}
	return s.At(s.n - 1)
}

// Insert appends t at the back (tuples arrive in timestamp order, so the
// deque stays sorted by Time).
func (s *State) Insert(t *Tuple) {
	if s.n == len(s.buf) {
		s.grow()
	}
	i := (s.head + s.n) & (len(s.buf) - 1)
	s.buf[i], s.keys[i] = t, t.Key
	s.n++
	if s.index != nil {
		s.index[t.Key] = append(s.index[t.Key], t)
	}
}

// PopFront removes and returns the oldest tuple, or nil when the state is
// empty — a guarded return rather than a panic, so a caller bug degrades
// into a visible nil instead of crashing the process.
func (s *State) PopFront() *Tuple {
	if s.n == 0 {
		return nil
	}
	t := s.buf[s.head]
	s.buf[s.head] = nil
	s.head = (s.head + 1) & (len(s.buf) - 1)
	s.n--
	if s.index != nil {
		bucket := s.index[t.Key]
		// Tuples leave in arrival order, so t is the bucket head.
		if len(bucket) == 1 {
			delete(s.index, t.Key)
		} else {
			s.index[t.Key] = bucket[1:]
		}
	}
	return t
}

// Bucket returns the indexed tuples with the given key. It returns nil when
// the index is disabled.
func (s *State) Bucket(key int64) []*Tuple {
	if s.index == nil {
		return nil
	}
	return s.index[key]
}

// Snapshot returns the tuples oldest-first.
func (s *State) Snapshot() []*Tuple {
	out := make([]*Tuple, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.At(i)
	}
	return out
}

// Clear removes all tuples.
func (s *State) Clear() {
	for i := 0; i < s.n; i++ {
		s.buf[(s.head+i)&(len(s.buf)-1)] = nil
	}
	s.head, s.n = 0, 0
	if s.index != nil {
		s.index = make(map[int64][]*Tuple)
	}
}

// AppendAll moves every tuple of other to the back of s, preserving order.
// Chain migration uses it when merging two adjacent slices (Section 5.3:
// "concatenate the corresponding states").
func (s *State) AppendAll(other *State) {
	for other.Len() > 0 {
		s.Insert(other.PopFront())
	}
}

func (s *State) grow() {
	nb := make([]*Tuple, 2*len(s.buf))
	n := copy(nb, s.buf[s.head:])
	copy(nb[n:], s.buf[:s.head])
	nk := make([]int64, len(nb))
	copy(nk, s.keys[s.head:])
	copy(nk[n:], s.keys[:s.head])
	s.buf, s.keys = nb, nk
	s.head = 0
}

package stream

import "io"

// Source produces the merged input of both streams incrementally, in global
// timestamp order. It is the streaming counterpart of a pre-materialized
// []*Tuple batch: the engine and the sharded executor pull one tuple at a
// time, so inputs may be unbounded (a live channel, a generator) without the
// whole workload ever residing in memory.
//
// Next returns io.EOF when the source is exhausted; any other error aborts
// the run. Tuples must carry non-decreasing timestamps, which the consuming
// session enforces.
type Source interface {
	Next() (*Tuple, error)
}

// Sized is implemented by sources that know their total tuple count up
// front; the engine uses it to size warm-up windows for memory statistics.
type Sized interface {
	Len() int
}

// SliceSource adapts a pre-materialized tuple batch to the Source interface.
type SliceSource struct {
	tuples []*Tuple
	next   int
}

// NewSliceSource wraps a batch of tuples (in global timestamp order).
func NewSliceSource(tuples []*Tuple) *SliceSource {
	return &SliceSource{tuples: tuples}
}

// Next implements Source.
func (s *SliceSource) Next() (*Tuple, error) {
	if s.next >= len(s.tuples) {
		return nil, io.EOF
	}
	t := s.tuples[s.next]
	s.next++
	return t, nil
}

// Len implements Sized.
func (s *SliceSource) Len() int { return len(s.tuples) }

// ChanSource adapts a tuple channel to the Source interface: the source is
// exhausted when the channel is closed. A nil tuple received from the
// channel is skipped, so producers may use it as a keep-alive.
type ChanSource struct {
	ch <-chan *Tuple
}

// NewChanSource wraps a channel of tuples (in global timestamp order).
func NewChanSource(ch <-chan *Tuple) *ChanSource {
	return &ChanSource{ch: ch}
}

// Next implements Source.
func (s *ChanSource) Next() (*Tuple, error) {
	for t := range s.ch {
		if t != nil {
			return t, nil
		}
	}
	return nil, io.EOF
}

// Collect drains a source into a batch — the inverse of NewSliceSource,
// useful for tests and for feeding legacy batch APIs from a source.
func Collect(src Source) ([]*Tuple, error) {
	var out []*Tuple
	for {
		t, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

package main

import (
	"math"
	"math/bits"
	"time"

	"stateslice"
	"stateslice/benchmarks/oracle"
)

// hist is a fixed log-bucket histogram of durations in nanoseconds: 64
// sub-buckets per power of two (about 1.1 % resolution), no allocation per
// sample.
type hist struct {
	n       uint64
	buckets [histSub * 40]uint64 // 40 octaves: hours, far past any run
}

const histSub = 64

func histBucket(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	exp := bits.Len64(uint64(ns)) - 7 // top 7 bits: a leading one and 6 sub-bucket bits
	return min((exp+1)*histSub+int(uint64(ns)>>exp)-histSub, len(hist{}.buckets)-1)
}

// histValue is the lower edge of bucket b.
func histValue(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	exp := b/histSub - 1
	return math.Ldexp(float64(histSub+b%histSub), exp)
}

func (h *hist) add(d time.Duration) {
	h.buckets[histBucket(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in milliseconds, interpolated inside its
// bucket; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	seen := 0.0
	for b, c := range h.buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histValue(b), histValue(b+1)
			return (lo + (hi-lo)*(rank-seen)/float64(c)) / 1e6
		}
		seen += float64(c)
	}
	return histValue(len(h.buckets)-1) / 1e6
}

// latencyStride is the deterministic sampling stride of the paced pass:
// every 16th result of a query is timed.
const latencyStride = 16

// querySink is what a user's sink minimally does with a query's results:
// count them and fold them into an order-sensitive digest. In the paced pass
// it also samples result latency. One querySink is only ever touched by the
// goroutine delivering that query, and the padding keeps neighbours — which
// sharded plans deliver from different assembly workers — off its cache
// lines.
type querySink struct {
	roll oracle.Rolling
	seen uint64
	lat  *hist // nil outside the paced pass
	_    [64]byte
}

// sinks is the result handler of one session.
type sinks struct {
	q []querySink
	// Paced pass: input warm+i is due at start + i×gap.
	start time.Time
	warm  uint64
	gap   time.Duration
	// Traced pass, sequential plans: deliveries counted against the operator
	// class whose Step is running, and the first delivery of every sampled
	// input recorded as a span.
	tr *tracer
}

// newSinks sizes the handler for every query id the session can see: the
// built-in ones plus one per scripted attach. gap > 0 arms latency sampling
// for a paced pass; the pass sets start before it feeds its first input, and
// only results of inputs past the warm-up read it.
func newSinks(ids, warm int, gap time.Duration) *sinks {
	s := &sinks{q: make([]querySink, ids), warm: uint64(warm), gap: gap}
	if gap > 0 {
		for i := range s.q {
			s.q[i].lat = new(hist)
		}
	}
	return s
}

// handle is the WithResultHandler callback.
func (s *sinks) handle(id stateslice.QueryID, t *stateslice.Tuple) {
	q := &s.q[id]
	q.roll.Add(t.Seq, t.A.Seq, t.B.Seq)
	if q.lat != nil && t.Seq > s.warm {
		if q.seen++; q.seen%latencyStride == 0 {
			due := s.start.Add(time.Duration(t.Seq-1-s.warm) * s.gap)
			q.lat.add(time.Since(due))
		}
	}
	if s.tr != nil {
		s.tr.delivered(int(id), t.Seq)
	}
}

// latency merges the per-query histograms.
func (s *sinks) latency() *hist {
	all := new(hist)
	for i := range s.q {
		if s.q[i].lat != nil {
			all.merge(s.q[i].lat)
		}
	}
	return all
}

// check compares every query's digest with the oracle's and returns the
// number of results that are missing, extra or out of order, and the first
// query that differs (-1 if none).
func (s *sinks) check(want []oracle.Digest) (failed uint64, first int) {
	first = -1
	for qi := range s.q {
		got := s.q[qi].roll.Sum()
		var w oracle.Digest
		if qi < len(want) {
			w = want[qi]
		}
		if got == w {
			continue
		}
		if first < 0 {
			first = qi
		}
		diff := max(got.Count, w.Count) - min(got.Count, w.Count)
		failed += max(diff, 1)
	}
	return failed, first
}

// Package oracle is the benchmark's independent reference: an order-aware
// nested-loop window join, per query and key-bucketed, over a flat copy of
// the input. It shares no code with internal/operator or internal/plan — it
// does not even import the module — so a bug in the sliced chain, the unions,
// the shard merge or the SliceQL front-end cannot hide in both sides of the
// comparison.
//
// A result is the pair (a, b) of one stream-A and one stream-B event with
// equal keys whose timestamps differ by at most the query's window, both
// passing the query's value thresholds. It is produced when the later of the
// two (the "male") arrives, so a query's output is grouped by male in arrival
// order. The order of one male's matches among themselves depends on the
// chain's slice layout and restructure history and is not part of the
// contract, so the digest is order-sensitive across males and commutative
// within one male's group.
package oracle

// Event is one input tuple, reduced to what the join semantics read.
type Event struct {
	Time   int64 // microseconds
	Key    int64
	Value  float64
	Stream uint8 // 0 = A, 1 = B
}

// Query is one continuous query. It is active for the males at input
// positions [From, To): a built-in query has From 0, an attached one starts
// at its admission barrier, a detached one ends at its detach barrier.
type Query struct {
	Window     int64   // microseconds, closed: |Ta - Tb| <= Window
	MinA, MinB float64 // value >= Min on that stream's event; 0 accepts all
	From, To   int
}

// Forever is the To of a query that is never detached.
const Forever = int(^uint(0) >> 1)

// Digest summarizes one query's ordered output.
type Digest struct {
	Count uint64
	Hash  uint64
}

// Rolling accumulates a Digest one result at a time. The benchmark's sinks
// fold the engine's output through the same type the oracle folds its own
// through, so the two sides agree on the digest by construction and on
// nothing else. The zero value is ready to use.
type Rolling struct {
	count, hash uint64
	male, acc   uint64
}

// Add folds the result (a, b) — sequence numbers of its A and B events —
// produced by the given male (the larger of the two).
func (r *Rolling) Add(male, a, b uint64) {
	if male != r.male {
		r.flush()
		r.male = male
	}
	x := a*0x9E3779B97F4A7C15 + b*0xBF58476D1CE4E5B9
	x ^= x >> 29
	r.acc += x * 0x94D049BB133111EB
	r.count++
}

// flush closes the current male's group: the commutative group sum and the
// male's identity enter the order-sensitive hash.
func (r *Rolling) flush() {
	if r.male != 0 {
		r.hash = (r.hash ^ r.acc ^ r.male*0xD6E8FEB86659FD93) * 0xFF51AFD7ED558CCD
		r.acc = 0
	}
}

// Sum returns the digest of everything added so far.
func (r *Rolling) Sum() Digest {
	c := *r
	c.flush()
	return Digest{Count: c.count, Hash: c.hash}
}

// Run joins the events and returns, for every cut, the per-query digests of
// the session that fed events[:cut] and then finished. Event i carries
// sequence number i+1. Cuts must be ascending and at most len(events).
func Run(events []Event, queries []Query, cuts []int) [][]Digest {
	maxW := int64(0)
	for _, q := range queries {
		maxW = max(maxW, q.Window)
	}
	type bucket struct {
		idx  [2][]int32 // per stream: positions of this key's events, oldest first
		head [2]int     // first position still within the largest window
	}
	buckets := make(map[int64]*bucket)
	roll := make([]Rolling, len(queries))
	out := make([][]Digest, 0, len(cuts))
	snapshot := func() {
		ds := make([]Digest, len(roll))
		for qi := range roll {
			ds[qi] = roll[qi].Sum()
		}
		out = append(out, ds)
	}
	next := 0
	for i := range events {
		for next < len(cuts) && cuts[next] == i {
			snapshot()
			next++
		}
		if next == len(cuts) {
			break
		}
		ev := &events[i]
		bk := buckets[ev.Key]
		if bk == nil {
			bk = &bucket{}
			buckets[ev.Key] = bk
		}
		opp := 1 - ev.Stream
		list := bk.idx[opp]
		h := bk.head[opp]
		for h < len(list) && ev.Time-events[list[h]].Time > maxW {
			h++
		}
		bk.head[opp] = h
		for qi := range queries {
			q := &queries[qi]
			if i < q.From || i >= q.To {
				continue
			}
			for j := len(list) - 1; j >= h; j-- {
				f := &events[list[j]]
				if ev.Time-f.Time > q.Window {
					break
				}
				a, b, as, bs := ev, f, uint64(i+1), uint64(list[j]+1)
				if ev.Stream == 1 {
					a, b, as, bs = f, ev, bs, as
				}
				if a.Value < q.MinA || b.Value < q.MinB {
					continue
				}
				roll[qi].Add(uint64(i+1), as, bs)
			}
		}
		bk.idx[ev.Stream] = append(bk.idx[ev.Stream], int32(i))
	}
	for ; next < len(cuts); next++ {
		snapshot()
	}
	return out
}

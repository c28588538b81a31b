package main

import (
	"time"

	"stateslice/internal/operator"
	"stateslice/internal/plan"
	"stateslice/internal/shard"
	"stateslice/internal/stream"
)

// A kernel probe times one structure a hot path leans on, through exported
// functions only, in isolation from the engine around it. The same bodies run
// as Benchmark* functions (kernels_test.go) for benchstat.
type kernel struct {
	name string // per-layer metric name
	// prepare builds the kernel's fixture and returns its loop body: one call
	// does one iteration and returns the units of work it did (tuples
	// scanned, comparisons, bytes, ...).
	prepare func() func() float64
	// perSecond reports work per second ÷ 1e6 (MB/s) instead of ns per unit.
	perSecond bool
}

// kernelSink keeps results alive so the compiler cannot drop the loops.
var kernelSink int

const stateTuples = 16384 // the probe workload's per-stream window state

// keyed returns n source tuples of one stream with distinct keys and
// ascending times.
func keyed(id stream.ID, n int) []*stream.Tuple {
	ts := make([]*stream.Tuple, n)
	for i := range ts {
		ts[i] = &stream.Tuple{Time: stream.Time(i), Seq: uint64(i + 1), Stream: id, Key: int64(i), Value: 0.5}
	}
	return ts
}

// wrappedState returns a full state whose ring wraps, so scans take the
// two-span path.
func wrappedState() *stream.State {
	st := stream.NewState()
	ts := keyed(stream.StreamA, stateTuples+stateTuples/4)
	for _, t := range ts[:stateTuples] {
		st.Insert(t)
	}
	for _, t := range ts[stateTuples:] {
		st.PopFront()
		st.Insert(t)
	}
	return st
}

var kernels = []kernel{
	{name: "stream.state_scan_ns_per_tuple", prepare: func() func() float64 {
		st := wrappedState()
		return func() float64 {
			a, b := st.Spans()
			hits := 0
			for _, t := range a {
				if t.Key == 7 {
					hits++
				}
			}
			for _, t := range b {
				if t.Key == 7 {
					hits++
				}
			}
			kernelSink += hits
			return float64(len(a) + len(b))
		}
	}},
	{name: "stream.state_insert_pop_ns", prepare: func() func() float64 {
		st := wrappedState()
		return func() float64 {
			st.Insert(st.PopFront())
			return 1
		}
	}},
	{name: "stream.queue_push_pop_ns", prepare: func() func() float64 {
		q := stream.NewQueue()
		t := keyed(stream.StreamA, 1)[0]
		for i := 0; i < 8; i++ {
			q.PushTuple(t)
		}
		return func() float64 {
			q.PushTuple(t)
			kernelSink += int(q.Pop().Role)
			return 1
		}
	}},
	{name: "stream.batcher_ns_per_item", prepare: func() func() float64 {
		var b stream.Batcher
		spare := make([]stream.Item, 0, stream.SlabCap)
		it := stream.TupleItem(keyed(stream.StreamA, 1)[0])
		return func() float64 {
			for !b.Full() {
				b.Add(it)
			}
			full := b.TakeWith(spare)
			kernelSink += len(full)
			spare = full
			return float64(len(full))
		}
	}},
	{name: "operator.join_step_ns_per_cmp", prepare: func() func() float64 {
		// One slice holding 1024 stream-B females; stream-A males with keys
		// no female carries probe all of them and emit nothing, so the time
		// is purge check + probe scan + propagate.
		const females = 1024
		in := stream.NewQueue()
		j, err := operator.NewSlicedBinaryJoin("probe", 0, stream.Time(10*females), stream.Equijoin{}, in)
		if err != nil {
			panic(err) // a constant, valid slice range
		}
		j.RestoreState(stream.StreamB, keyed(stream.StreamB, females))
		male := &stream.Tuple{Time: females, Seq: females + 1, Stream: stream.StreamA, Key: -1}
		var m operator.CostMeter
		return func() float64 {
			before := m.Probe + m.Purge
			for i := 0; i < 16; i++ {
				in.Push(stream.RoleItem(male, stream.RoleMale))
			}
			kernelSink += j.Step(&m, -1)
			return float64(m.Probe + m.Purge - before)
		}
	}},
	{name: "operator.union_ns_per_item", prepare: func() func() float64 {
		// The fanout shape: 12 inputs, and every male's results arrive on
		// each of them followed by that male's punctuation.
		const inputs, males, perMale = 12, 32, 4
		u := operator.NewUnion("probe")
		ins := make([]*stream.Queue, inputs)
		for i := range ins {
			ins[i] = u.AddInput()
		}
		u.Out().AttachFunc(func(it stream.Item) { kernelSink += int(it.Role) })
		results := make([]*stream.Tuple, males)
		next := stream.Time(0)
		return func() float64 {
			for mi := range results {
				next++
				results[mi] = &stream.Tuple{Time: next, Seq: uint64(next)}
			}
			for _, q := range ins {
				for _, r := range results {
					for k := 0; k < perMale; k++ {
						q.PushTuple(r)
					}
					q.PushPunct(r.Time)
				}
			}
			return float64(u.Step(nil, -1))
		}
	}},
	{name: "shard.partition_ns_per_key", prepare: func() func() float64 {
		p := shard.NewPartitioner(2)
		return func() float64 {
			s := 0
			for k := int64(0); k < 1024; k++ {
				s += p.Shard(k)
			}
			kernelSink += s
			return 1024
		}
	}},
	{name: "shard.range_owner_ns_per_key", prepare: func() func() float64 {
		p, err := shard.NewRangePartitioner(8, shard.Band{Width: 1, MinKey: 0, MaxKey: 1023})
		if err != nil {
			panic(err) // a constant, valid band
		}
		return func() float64 {
			s := 0
			for k := int64(0); k < 1024; k++ {
				s += p.Owner(k)
			}
			kernelSink += s
			return 1024
		}
	}},
	{name: "plan.ckpt_encode_mb_s", perSecond: true, prepare: func() func() float64 {
		cp := probeCheckpoint()
		var buf []byte
		return func() float64 {
			var err error
			if buf, err = cp.AppendTo(buf[:0]); err != nil {
				panic(err) // the fixture holds source tuples only
			}
			return float64(len(buf))
		}
	}},
	{name: "plan.ckpt_decode_mb_s", perSecond: true, prepare: func() func() float64 {
		blob, err := probeCheckpoint().AppendTo(nil)
		if err != nil {
			panic(err)
		}
		return func() float64 {
			cp, _, err := plan.DecodeChainCheckpoint(blob)
			if err != nil {
				panic(err) // decoding what AppendTo just wrote
			}
			kernelSink += len(cp.Slices)
			return float64(len(blob))
		}
	}},
}

// probeCheckpoint is a chain snapshot the size of one fanout replica: 12
// slices, 200 tuples per stream each.
func probeCheckpoint() *plan.ChainCheckpoint {
	cp := &plan.ChainCheckpoint{Name: "probe", Fed: 1 << 20, LastTime: 1 << 30}
	for i := 0; i < 12; i++ {
		w := stream.Time(i+1) * 2500 * stream.Millisecond
		cp.Slots = append(cp.Slots, plan.SlotCheckpoint{Window: w, Live: true, Edges: []int{i}})
		cp.Slices = append(cp.Slices, plan.SliceCheckpoint{
			Start: w - 2500*stream.Millisecond, End: w,
			A: keyed(stream.StreamA, 200), B: keyed(stream.StreamB, 200),
		})
	}
	return cp
}

// measure runs the kernel for about the budget and returns its metric: ns
// per unit of work, or millions of units per second.
func (k kernel) measure(budget time.Duration) float64 {
	body := k.prepare()
	for i := 0; i < 16; i++ { // warm caches and let rings reach their steady size
		body()
	}
	var work float64
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < 64; i++ {
			work += body()
		}
	}
	el := time.Since(start)
	if k.perSecond {
		return work / el.Seconds() / 1e6
	}
	return float64(el.Nanoseconds()) / work
}

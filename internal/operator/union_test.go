package operator

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"stateslice/internal/stream"
)

// mkResult builds a joined tuple with the given timestamp/seq identity.
func mkResult(ts stream.Time, seq uint64) *stream.Tuple {
	a := &stream.Tuple{Time: ts - 1, Seq: seq - 1, Stream: stream.StreamA}
	b := &stream.Tuple{Time: ts, Seq: seq, Stream: stream.StreamB}
	return stream.Joined(a, b)
}

func TestUnionMergesSortedInputs(t *testing.T) {
	u := NewUnion("u")
	in1, in2 := u.AddInput(), u.AddInput()
	out := u.Out().NewQueue()
	// Interleaved batches with punctuations driving progress.
	in1.PushTuple(mkResult(10, 2))
	in1.PushPunct(10)
	in2.PushTuple(mkResult(20, 4))
	in2.PushPunct(20)
	u.Step(nil, -1)
	in1.PushTuple(mkResult(30, 6))
	in1.PushPunct(40)
	in2.PushPunct(40)
	u.Step(nil, -1)
	got := drainPort(out)
	if len(got) != 3 {
		t.Fatalf("emitted %d tuples, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatalf("output out of order at %d", i)
		}
	}
}

func TestUnionBlocksWithoutPunctuation(t *testing.T) {
	u := NewUnion("u")
	in1, in2 := u.AddInput(), u.AddInput()
	out := u.Out().NewQueue()
	in1.PushTuple(mkResult(10, 2))
	// in2 is empty and silent: the tuple cannot be released yet.
	u.Step(nil, -1)
	if out.TupleCount() != 0 {
		t.Fatal("union must hold tuples until the other input punctuates")
	}
	in2.PushPunct(15)
	u.Step(nil, -1)
	if out.TupleCount() != 1 {
		t.Fatal("punctuation at 15 releases the tuple at 10")
	}
}

func TestUnionTieBreaksByInputOrder(t *testing.T) {
	// Results of the same probing male arriving from two slices share
	// (Time, Seq); the union must emit them in input (chain) order and
	// count no merge comparisons for them.
	u := NewUnion("u")
	in1, in2 := u.AddInput(), u.AddInput()
	out := u.Out().NewQueue()
	r1, r2 := mkResult(10, 2), mkResult(10, 2)
	in2.PushTuple(r2)
	in2.PushPunct(10)
	in1.PushTuple(r1)
	in1.PushPunct(10)
	m := &CostMeter{}
	u.Step(m, -1)
	got := drainPort(out)
	if len(got) != 2 {
		t.Fatalf("emitted %d", len(got))
	}
	if got[0] != r1 || got[1] != r2 {
		t.Error("equal keys must emit in input order (chain order)")
	}
	if m.Union != 2 {
		// Two punctuations processed; the tie itself costs nothing.
		t.Errorf("union comparisons = %d, want 2 (punctuation processing only)", m.Union)
	}
}

func TestUnionRandomizedOrderPreservation(t *testing.T) {
	// Feed k sorted streams with punctuations in random interleavings;
	// the output must always be globally sorted and complete.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(4)
		u := NewUnion("u")
		ins := make([]*stream.Queue, k)
		for i := range ins {
			ins[i] = u.AddInput()
		}
		out := u.Out().NewQueue()
		var total int
		seq := uint64(2)
		// Each input gets an independent sorted series.
		series := make([][]*stream.Tuple, k)
		for i := range series {
			ts := stream.Time(0)
			n := rng.Intn(30)
			for j := 0; j < n; j++ {
				ts += stream.Time(1 + rng.Intn(5))
				seq += 2
				series[i] = append(series[i], mkResult(ts, seq))
				total++
			}
		}
		// Random round-robin feeding with interleaved Steps.
		idx := make([]int, k)
		remaining := total
		for remaining > 0 {
			for i := 0; i < k; i++ {
				take := rng.Intn(3)
				for j := 0; j < take && idx[i] < len(series[i]); j++ {
					tp := series[i][idx[i]]
					ins[i].PushTuple(tp)
					ins[i].PushPunct(tp.Time)
					idx[i]++
					remaining--
				}
			}
			u.Step(nil, -1)
		}
		for i := 0; i < k; i++ {
			ins[i].PushPunct(stream.MaxTime)
		}
		u.Step(nil, -1)
		got := drainPort(out)
		if len(got) != total {
			t.Fatalf("trial %d: emitted %d of %d tuples", trial, len(got), total)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].Time != got[j].Time {
				return got[i].Time < got[j].Time
			}
			return got[i].Seq <= got[j].Seq
		}) {
			t.Fatalf("trial %d: output not sorted", trial)
		}
	}
}

func TestUnionCloseInput(t *testing.T) {
	u := NewUnion("u")
	in1, in2 := u.AddInput(), u.AddInput()
	out := u.Out().NewQueue()
	in1.PushTuple(mkResult(10, 2))
	in2.PushTuple(mkResult(5, 4)) // residual tuple on the input being closed
	if !u.CloseInput(in2) {
		t.Fatal("CloseInput must find the registered queue")
	}
	in1.PushPunct(10)
	u.Step(nil, -1)
	got := drainPort(out)
	if len(got) != 2 {
		t.Fatalf("emitted %d tuples, want both (residual first)", len(got))
	}
	if got[0].Time != 5 || got[1].Time != 10 {
		t.Error("residual tuple of a closed input must still emit in order")
	}
	if u.CloseInput(stream.NewQueue()) {
		t.Error("closing a foreign queue must report false")
	}
}

// lastPunctOf drains a port queue and returns its last punctuation (-1 when
// none arrived).
func lastPunctOf(out *stream.Queue) stream.Time {
	last := stream.Time(-1)
	for !out.Empty() {
		if it := out.Pop(); it.IsPunct() {
			last = it.Punct
		}
	}
	return last
}

func TestUnionDropClosedKeepsResidue(t *testing.T) {
	u := NewUnion("u")
	in1, in2 := u.AddInput(), u.AddInput()
	out := u.Out().NewQueue()
	in2.PushTuple(mkResult(5, 4)) // residue on the input being closed
	u.CloseInput(in2)
	if u.DropClosed(); u.Inputs() != 2 {
		t.Fatalf("DropClosed left %d inputs while the closed input holds residue, want 2", u.Inputs())
	}
	in1.PushPunct(10)
	u.Step(nil, -1)
	if got := drainPort(out); len(got) != 1 || got[0].Time != 5 {
		t.Fatalf("residue of the closed input not emitted: %v", got)
	}
	if u.DropClosed(); len(u.InputSnapshot()) != 1 || u.InputSnapshot()[0] != in1 {
		t.Fatalf("after draining: %d inputs left, want only the open one", u.Inputs())
	}
}

func TestUnionDropClosedAllClosedWaitsForMaxTime(t *testing.T) {
	// A detached query's union: every input closed and drained. Dropping
	// them before the union forwarded MaxTime would leave forwardPunct
	// nothing to compute it from, and downstream merges waiting on the
	// final punctuation would never complete.
	u := NewUnion("u")
	in1, in2 := u.AddInput(), u.AddInput()
	out := u.Out().NewQueue()
	in1.PushPunct(10)
	in2.PushPunct(10)
	u.Step(nil, -1)
	u.CloseInput(in1)
	u.CloseInput(in2)
	if u.DropClosed(); u.Inputs() != 2 {
		t.Fatalf("DropClosed left %d inputs of an all-closed union before MaxTime was forwarded, want 2", u.Inputs())
	}
	u.Step(nil, -1)
	if p := lastPunctOf(out); p != stream.MaxTime {
		t.Fatalf("all-closed union forwarded %s, want MaxTime", p)
	}
	if u.DropClosed(); u.Inputs() != 0 {
		t.Fatalf("after MaxTime: DropClosed left %d inputs, want none", u.Inputs())
	}
	if n := u.Step(nil, -1); n != 0 || u.Pending() || !out.Empty() {
		t.Fatal("an input-less union must stay inert")
	}
}

func TestUnionDropClosedKeepsTieOrder(t *testing.T) {
	// Closed inputs interleaved with live ones: after compaction a tie on
	// (Time, Seq) between the two live inputs still emits the lower-indexed
	// one first, with the same comparison count as before.
	u := NewUnion("u")
	c1, in1, c2, in2, c3 := u.AddInput(), u.AddInput(), u.AddInput(), u.AddInput(), u.AddInput()
	out := u.Out().NewQueue()
	for _, q := range []*stream.Queue{c1, c2, c3} {
		u.CloseInput(q)
	}
	u.DropClosed()
	if q := u.InputSnapshot(); len(q) != 2 || q[0] != in1 || q[1] != in2 {
		t.Fatal("survivors must keep their relative order")
	}
	r1, r2 := mkResult(10, 2), mkResult(10, 2)
	in2.PushTuple(r2)
	in2.PushPunct(10)
	in1.PushTuple(r1)
	in1.PushPunct(10)
	m := &CostMeter{}
	u.Step(m, -1)
	got := drainPort(out)
	if len(got) != 2 || got[0] != r1 || got[1] != r2 {
		t.Fatal("equal keys must still emit in (compacted) input order")
	}
	if m.Union != 2 {
		t.Errorf("union comparisons = %d, want 2", m.Union)
	}
}

func TestUnionDropClosedAfterFinish(t *testing.T) {
	// A live input that received MaxTime (the session's final flush) is as
	// finished as a closed one.
	u := NewUnion("u")
	in1, in2 := u.AddInput(), u.AddInput()
	out := u.Out().NewQueue()
	in1.PushTuple(mkResult(10, 2))
	in1.PushPunct(stream.MaxTime)
	in2.PushPunct(stream.MaxTime)
	u.Step(nil, -1)
	if got := drainPort(out); len(got) != 1 {
		t.Fatalf("emitted %d tuples, want 1", len(got))
	}
	if u.DropClosed(); u.Inputs() != 0 {
		t.Fatalf("DropClosed left %d inputs after MaxTime on every input, want none", u.Inputs())
	}
	if u.Step(nil, -1) != 0 || u.Pending() || !out.Empty() {
		t.Fatal("an input-less union must stay inert")
	}
}

func TestUnionForwardPunct(t *testing.T) {
	u := NewUnion("u")
	in1, in2 := u.AddInput(), u.AddInput()
	out := u.Out().NewQueue()
	in1.PushPunct(10)
	in2.PushPunct(7)
	u.Step(nil, -1)
	// The union punctuates downstream at the minimum frontier.
	var lastPunct stream.Time = -1
	for !out.Empty() {
		it := out.Pop()
		if it.IsPunct() {
			lastPunct = it.Punct
		}
	}
	if lastPunct != 7 {
		t.Errorf("forwarded punct %s, want 7us", lastPunct)
	}
	if u.Inputs() != 2 {
		t.Error("Inputs() wrong")
	}
	if u.String() == "" {
		t.Error("String() empty")
	}
}

func TestUnionBudget(t *testing.T) {
	u := NewUnion("u")
	in := u.AddInput()
	out := u.Out().NewQueue()
	for i := 0; i < 10; i++ {
		in.PushTuple(mkResult(stream.Time(10+i), uint64(20+2*i)))
	}
	in.PushPunct(100)
	if n := u.Step(nil, 4); n != 4 {
		t.Fatalf("budgeted step emitted %d, want 4", n)
	}
	u.Step(nil, -1)
	if got := drainPort(out); len(got) != 10 {
		t.Fatalf("total emitted %d, want 10", len(got))
	}
}

func TestUnionPrefixOutputs(t *testing.T) {
	// One union with an output per input prefix must deliver on each output
	// exactly the tuples a union over that prefix alone delivers, in the
	// same order, charging the same invocations and no more union
	// comparisons. Its punctuations are the merge's frontier, which inputs
	// outside a short prefix may hold back, so they are checked for safety:
	// no tuple at or below a punctuation follows it.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(4)
		shared := NewUnion("shared")
		outs := make([]*stream.Queue, k) // outs[p-1] reads the first p inputs
		outs[k-1] = shared.Out().NewQueue()
		outs[0] = shared.AddOutput(1).NewQueue() // declared before the inputs
		ins := make([]*stream.Queue, k)
		for i := range ins {
			ins[i] = shared.AddInput()
		}
		for p := 2; p < k; p++ {
			outs[p-1] = shared.AddOutput(p).NewQueue() // declared after them
		}
		alone := make([]*Union, k)
		aloneIns := make([][]*stream.Queue, k)
		aloneOuts := make([]*stream.Queue, k)
		for p := 1; p <= k; p++ {
			alone[p-1] = NewUnion("alone")
			for range p {
				aloneIns[p-1] = append(aloneIns[p-1], alone[p-1].AddInput())
			}
			aloneOuts[p-1] = alone[p-1].Out().NewQueue()
		}
		push := func(i int, it stream.Item) {
			ins[i].Push(it)
			for p := i + 1; p <= k; p++ {
				aloneIns[p-1][i].Push(it)
			}
		}
		var sharedM, aloneM CostMeter
		step := func() {
			shared.Step(&sharedM, -1)
			for _, u := range alone {
				u.Step(&aloneM, -1)
			}
		}
		seq := uint64(2)
		ts := make([]stream.Time, k)
		for round := 0; round < 20; round++ {
			for i := range ins {
				for range rng.Intn(3) {
					ts[i] += stream.Time(1 + rng.Intn(5))
					seq += 2
					push(i, stream.TupleItem(mkResult(ts[i], seq)))
					push(i, stream.PunctItem(ts[i]))
				}
			}
			step()
		}
		for i := range ins {
			push(i, stream.PunctItem(stream.MaxTime))
		}
		step()
		for p := 1; p <= k; p++ {
			var got []*stream.Tuple
			promised := stream.Time(-1)
			outs[p-1].Drain(func(it stream.Item) {
				switch {
				case it.IsPunct():
					promised = max(promised, it.Punct)
				case it.Tuple.Time <= promised:
					t.Fatalf("trial %d prefix %d: tuple at %d after punctuation %d", trial, p, it.Tuple.Time, promised)
				default:
					got = append(got, it.Tuple)
				}
			})
			want := drainPort(aloneOuts[p-1])
			if promised != stream.MaxTime || !slices.Equal(got, want) {
				t.Fatalf("trial %d prefix %d: %d tuples up to %d, alone %d", trial, p, len(got), promised, len(want))
			}
		}
		if sharedM.Invocations != aloneM.Invocations || sharedM.Union > aloneM.Union {
			t.Fatalf("trial %d: shared %v, alone %v", trial, &sharedM, &aloneM)
		}
	}
}

// selCase is a random selecting-union layout: per input a router (nil
// windows: none) and mask groups, and per output its reads of an input
// prefix.
type selCase struct {
	windows  [][]stream.Time
	testLast []bool
	groups   [][]MaskTest
	outs     [][]Read
}

func randomSelCase(rng *rand.Rand) selCase {
	k := 1 + rng.Intn(4)
	c := selCase{windows: make([][]stream.Time, k), testLast: make([]bool, k), groups: make([][]MaskTest, k)}
	for j := range k {
		if rng.Intn(2) == 0 {
			w := stream.Time(0)
			for range 1 + rng.Intn(3) {
				w += stream.Time(1 + rng.Intn(4))
				c.windows[j] = append(c.windows[j], w)
			}
			c.testLast[j] = rng.Intn(2) == 0
		}
		for range rng.Intn(4) {
			g := MaskTest{Query: rng.Intn(6), CheckA: rng.Intn(3) > 0, Branch: rng.Intn(len(c.windows[j])+1) - 1}
			g.CheckB = !g.CheckA || rng.Intn(3) == 0
			c.groups[j] = append(c.groups[j], g)
		}
	}
	for range 1 + rng.Intn(5) {
		reads := make([]Read, 1+rng.Intn(k))
		for j := range reads {
			r := Read{Branch: rng.Intn(len(c.windows[j])+1) - 1, Group: -1}
			if n := len(c.groups[j]); n > 0 && rng.Intn(2) == 0 {
				r.Group = rng.Intn(n)
				r.Branch = c.groups[j][r.Group].Branch
			}
			reads[j] = r
		}
		c.outs = append(c.outs, reads)
	}
	return c
}

// selRig runs one layout twice: through a selecting union, and through the
// per-query wiring it replaces — a Router, MaskFilters on the router's
// branches, and a Union per output reading more than one input (an output
// reading the first input alone reads its source port directly).
type selRig struct {
	feeds        []Port
	sel          *Union
	selOuts      []*stream.Queue
	ref          []Operator // routers, then filters, then unions
	refOuts      []*stream.Queue
	selM, refM   CostMeter
	selPuncts    [][]stream.Time
	refPunctSeen []bool
}

func newSelRig(t *testing.T, c selCase, outs []int) *selRig {
	t.Helper()
	k := len(c.windows)
	rg := &selRig{feeds: make([]Port, k), sel: NewUnion("sel")}
	var routers, filters, unions []Operator
	src := make([][]*Port, k) // src[j][b+1]: the port of branch b (-1: every result)
	grp := make([][]*Port, k)
	for j := range k {
		q, err := rg.sel.AddSelectingInput(c.windows[j], c.testLast[j], c.groups[j])
		if err != nil {
			t.Fatal(err)
		}
		rg.feeds[j].Attach(q)
		if c.windows[j] == nil {
			src[j] = []*Port{&rg.feeds[j]}
		} else {
			r := NewRouter("router", rg.feeds[j].NewQueue())
			if c.testLast[j] {
				r.RequireLastCheck()
			}
			src[j] = []*Port{r.All()}
			for _, w := range c.windows[j] {
				p, err := r.AddBranch(w)
				if err != nil {
					t.Fatal(err)
				}
				src[j] = append(src[j], p)
			}
			routers = append(routers, r)
		}
		for _, g := range c.groups[j] {
			f := NewMaskFilter2("mask", g.Query, g.CheckA, g.CheckB, src[j][g.Branch+1].NewQueue())
			grp[j] = append(grp[j], f.Out())
			filters = append(filters, f)
		}
	}
	for _, o := range outs {
		reads := c.outs[o]
		p, err := rg.sel.AddSelectingOutput(reads)
		if err != nil {
			t.Fatal(err)
		}
		rg.selOuts = append(rg.selOuts, p.NewQueue())
		port := func(j int) *Port {
			if g := reads[j].Group; g >= 0 {
				return grp[j][g]
			}
			return src[j][reads[j].Branch+1]
		}
		if len(reads) == 1 {
			rg.refOuts = append(rg.refOuts, port(0).NewQueue())
			continue
		}
		u := NewUnion("union")
		for j := range reads {
			port(j).Attach(u.AddInput())
		}
		rg.refOuts = append(rg.refOuts, u.Out().NewQueue())
		unions = append(unions, u)
	}
	rg.ref = append(append(routers, filters...), unions...)
	return rg
}

func (rg *selRig) push(j int, it stream.Item) { rg.feeds[j].Push(it) }

func (rg *selRig) step() {
	rg.sel.Step(&rg.selM, -1)
	for _, op := range rg.ref {
		op.Step(&rg.refM, -1)
	}
}

// selResult builds a joined result of key (ts, seq) whose sources are dist
// apart and carry the given condition masks.
func selResult(ts stream.Time, seq uint64, dist stream.Time, maskA, maskB uint64) *stream.Tuple {
	a := &stream.Tuple{Time: ts - dist, Seq: seq - 1, Stream: stream.StreamA, CondMask: maskA}
	b := &stream.Tuple{Time: ts, Seq: seq, Stream: stream.StreamB, CondMask: maskB}
	return stream.Joined(a, b)
}

// feedRandom drives the rig with rounds of results: one probing key per
// round, punctuated on every input, when oneKey is set (the chain at batch
// size 1); several keys, each input punctuating only some, otherwise.
func (rg *selRig) feedRandom(rng *rand.Rand, oneKey bool) {
	ts, seq := stream.Time(20), uint64(2)
	for round := 0; round < 40; round++ {
		keys := 1
		if !oneKey {
			keys = 1 + rng.Intn(4)
		}
		for range keys {
			ts += stream.Time(rng.Intn(3))
			seq += 2
			for j := range rg.feeds {
				for range rng.Intn(4) {
					rg.push(j, stream.TupleItem(selResult(ts, seq, stream.Time(rng.Intn(14)), uint64(rng.Intn(64)), uint64(rng.Intn(64)))))
				}
				if oneKey || rng.Intn(3) > 0 {
					rg.push(j, stream.PunctItem(ts))
				}
			}
		}
		rg.step()
	}
	for j := range rg.feeds {
		rg.push(j, stream.PunctItem(stream.MaxTime))
	}
	rg.step()
}

func TestSelectingUnionMatchesPerQueryWiring(t *testing.T) {
	// A selecting union must deliver on every output exactly the tuples, in
	// the same order, that its router, mask filters and per-query union
	// deliver, and charge what they charge: every CostMeter field equal
	// when each probing key is punctuated everywhere before the next (the
	// chain at batch size 1), for all outputs together and for each output
	// alone; with several keys in flight the one merge orders heads once
	// for all outputs, so only Union may differ.
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 300; trial++ {
		c := randomSelCase(rng)
		oneKey := trial%2 == 0
		seed := rng.Int63()
		all := make([]int, len(c.outs))
		for o := range all {
			all[o] = o
		}
		sets := [][]int{all}
		if oneKey {
			for o := range all {
				sets = append(sets, []int{o})
			}
		}
		for _, outs := range sets {
			rg := newSelRig(t, c, outs)
			rg.feedRandom(rand.New(rand.NewSource(seed)), oneKey)
			for o := range outs {
				got, want := drainPort(rg.selOuts[o]), drainPort(rg.refOuts[o])
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d outputs %v: output %d delivered %d tuples, per-query wiring %d (layout %+v)", trial, outs, outs[o], len(got), len(want), c)
				}
			}
			sm, rm := rg.selM, rg.refM
			if !oneKey {
				sm.Union, rm.Union = 0, 0
			}
			if sm != rm {
				t.Fatalf("trial %d outputs %v: selecting union charged %v, per-query wiring %v (layout %+v)", trial, outs, &rg.selM, &rg.refM, c)
			}
		}
	}
}

func TestSelectingUnionDropsRejectedHeads(t *testing.T) {
	// A head no output accepts is dropped when it is tested, before the
	// merge: it is never compared with another input's head and never
	// stands between that input's items and the outputs.
	u := NewUnion("u")
	in0, err := u.AddSelectingInput(nil, false, []MaskTest{{Query: 0, CheckA: true, Branch: -1}})
	if err != nil {
		t.Fatal(err)
	}
	in1, err := u.AddSelectingInput(nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := u.AddSelectingOutput([]Read{{Branch: -1, Group: 0}, {Branch: -1, Group: -1}})
	if err != nil {
		t.Fatal(err)
	}
	out := p.NewQueue()
	rejected := selResult(4, 10, 1, 0, 0) // fails the mask
	in0.PushTuple(rejected)
	in1.PushTuple(selResult(3, 8, 1, 0, 0))
	in1.PushTuple(selResult(6, 12, 1, 0, 0))
	in0.PushPunct(9)
	in1.PushPunct(9)
	m := &CostMeter{}
	u.Step(m, -1)
	got := drainTrace(out)
	if len(got.tuples) != 2 || got.tuples[0].Time != 3 || got.tuples[1].Time != 6 || got.last != 9 {
		t.Fatalf("emitted %v up to %d, want the two accepted tuples up to 9", got.tuples, got.last)
	}
	// Two punctuations, one reader each; the rejected head cost its mask
	// test and nothing in the merge.
	if m.Union != 2 || m.Filter != 1 || m.Invocations != 2+1+1 {
		t.Errorf("charged %v, want union=2 filter=1 invocations=4", m)
	}
}

// floorRig is a selecting union over an ungated and a gated input whose
// floor is whatever the test sets.
func floorRig(t *testing.T) (u *Union, ungated, gated *stream.Queue, first, both *stream.Queue, floor *stream.Time) {
	t.Helper()
	u = NewUnion("u")
	var err error
	if ungated, err = u.AddSelectingInput(nil, false, nil); err != nil {
		t.Fatal(err)
	}
	if gated, err = u.AddSelectingInput(nil, false, nil); err != nil {
		t.Fatal(err)
	}
	p1, err := u.AddSelectingOutput([]Read{{-1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := u.AddSelectingOutput([]Read{{-1, -1}, {-1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	f := stream.Time(-1)
	u.SetFloor(func() stream.Time { return f })
	return u, ungated, gated, p1.NewQueue(), p2.NewQueue(), &f
}

func TestSelectingUnionFloorReleasesQuiescentChain(t *testing.T) {
	// The gated input never punctuated 10 (its gate dropped the probing
	// tuple); once the chain reports quiescence at 10 the ungated input's
	// results go out, with the floor as the outputs' frontier, and nothing
	// is charged for it.
	u, ungated, _, first, both, floor := floorRig(t)
	ungated.PushTuple(selResult(10, 6, 1, 0, 0))
	ungated.PushPunct(10)
	*floor = 10
	m := &CostMeter{}
	u.Step(m, -1)
	for i, out := range []*stream.Queue{first, both} {
		got := drainTrace(out)
		if len(got.tuples) != 1 || got.last != 10 {
			t.Errorf("output %d: %d tuples, frontier %d; want the result and frontier 10", i, len(got.tuples), got.last)
		}
	}
	if m.Union != 1 || m.Invocations != 1 {
		t.Errorf("charged %v, want one punctuation for the two-input output and one emission to it", m)
	}
}

func TestSelectingUnionFloorHeldWhileChainBusy(t *testing.T) {
	// While an item is still inside the chain the floor is -1: the merge
	// waits for the gated input exactly as a plain union would.
	u, ungated, gated, first, both, floor := floorRig(t)
	ungated.PushTuple(selResult(10, 6, 1, 0, 0))
	ungated.PushPunct(10)
	u.Step(nil, -1)
	if first.Len()+both.Len() != 0 {
		t.Fatal("the merge must hold the result while the chain is busy")
	}
	// The gated slice answers; the floor stays unset.
	gated.PushPunct(10)
	u.Step(nil, -1)
	if n := drainPort(both); len(n) != 1 {
		t.Fatalf("the gated input's punctuation releases the result, got %d", len(n))
	}
	*floor = 5 // a stale floor never lowers a frontier
	u.Step(nil, -1)
	if lastPunctOf(first) != 10 {
		t.Error("the frontier must stay at 10")
	}
}

// punctTrace is a drained output: its tuples and last punctuation.
type punctTrace struct {
	tuples []*stream.Tuple
	last   stream.Time
}

func drainTrace(q *stream.Queue) punctTrace {
	tr := punctTrace{last: -1}
	q.Drain(func(it stream.Item) {
		if it.IsPunct() {
			tr.last = it.Punct
			return
		}
		tr.tuples = append(tr.tuples, it.Tuple)
	})
	return tr
}

package plan

import (
	"slices"
	"testing"

	"stateslice/internal/engine"
	"stateslice/internal/operator"
	"stateslice/internal/stream"
)

// Differential test of the shared union. A fixed, unfiltered chain merges
// its slice results once for all queries; the same workload built Migratable
// keeps one union per query. Both must deliver every query the same result
// sequence, and every query served by more than one slice the same
// punctuation sequence. At K = 1 the CostMeter must be identical once the
// migratable build's unions of single-slice queries — which a fixed chain
// wires straight to the sink — are metered apart; at K > 1 the one merge
// orders heads once for all outputs, so only Union may differ, and only
// downwards.

// meteredApart steps an operator on its own meter, whatever meter the
// engine passes.
type meteredApart struct {
	operator.Operator
	m *operator.CostMeter
}

func (o meteredApart) Step(_ *operator.CostMeter, max int) int { return o.Operator.Step(o.m, max) }

// differentialRun is one run's observable output.
type differentialRun struct {
	res    *engine.Result
	puncts [][]stream.Time // per query, the punctuations its sink received
}

func runDifferential(t *testing.T, w Workload, ends []stream.Time, migratable bool, input []*stream.Tuple, k int) differentialRun {
	t.Helper()
	sp, err := BuildStateSlice(w, StateSliceConfig{Ends: ends, Migratable: migratable, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if !migratable && len(sp.slices) > 1 && sp.shared == nil {
		t.Fatal("a fixed unfiltered chain was built without its shared union")
	}
	run := differentialRun{puncts: make([][]stream.Time, len(w.Queries))}
	for qi, s := range sp.Sinks() {
		s.OnItem(func(it stream.Item) {
			if it.IsPunct() {
				run.puncts[qi] = append(run.puncts[qi], it.Punct)
			}
		})
	}
	p := *sp.Plan
	p.Ops = slices.Clone(p.Ops)
	var apart operator.CostMeter
	for qi, q := range w.Queries {
		u := sp.QueryUnion(qi)
		if u == nil || sp.sliceOf(q.Window) > 0 {
			continue
		}
		i := slices.IndexFunc(p.Ops, func(op operator.Operator) bool { return op == operator.Operator(u) })
		p.Ops[i] = meteredApart{u, &apart}
	}
	res, err := engine.Run(&p, input, engine.Config{BatchSize: k})
	if err != nil {
		t.Fatal(err)
	}
	if res.OrderViolations != 0 {
		t.Fatalf("%d order violations", res.OrderViolations)
	}
	run.res = res
	return run
}

func TestSharedUnionMatchesPerQueryUnions(t *testing.T) {
	equi := Workload{Join: stream.Equijoin{}}
	for _, win := range []stream.Time{1 * stream.Second, 2 * stream.Second, 4 * stream.Second, 8 * stream.Second} {
		equi.Queries = append(equi.Queries, Query{Window: win})
	}
	equiInput, err := stream.Generate(stream.GeneratorConfig{
		RateA: 30, RateB: 30, Duration: 30 * stream.Second, KeyDomain: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		w     Workload
		ends  []stream.Time
		input []*stream.Tuple
	}{
		{"distinct-windows", unfilteredWorkload(2*stream.Second, 5*stream.Second, 9*stream.Second), nil, batchInput(t, 1)},
		{"duplicate-windows", unfilteredWorkload(3*stream.Second, 3*stream.Second, 8*stream.Second), nil, batchInput(t, 2)},
		{"single-window", unfilteredWorkload(4 * stream.Second), nil, batchInput(t, 3)},
		{"extra-boundary", unfilteredWorkload(2*stream.Second, 5*stream.Second, 9*stream.Second),
			[]stream.Time{2 * stream.Second, 4 * stream.Second, 5 * stream.Second, 9 * stream.Second}, batchInput(t, 4)},
		{"equijoin", equi, nil, equiInput},
		// Filtered and routed chains: the shared union runs the routers
		// and mask filters as per-output tests.
		{"filtered", selectionWorkload(), nil, equiInput},
		{"filtered-routed", selectionWorkload(), []stream.Time{2 * stream.Second, 6 * stream.Second, 9 * stream.Second}, equiInput},
		{"routed", equi, []stream.Time{2 * stream.Second, 8 * stream.Second}, equiInput},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range []int{1, 7, 64, -1} {
				shared := runDifferential(t, tc.w, tc.ends, false, tc.input, k)
				ref := runDifferential(t, tc.w, tc.ends, true, tc.input, k)
				if ref.res.TotalOutputs() == 0 {
					t.Fatal("the reference produced no results; the comparison is vacuous")
				}
				for qi, q := range tc.w.Queries {
					if d := diffResults(shared.res.Results[qi], ref.res.Results[qi]); d != "" {
						t.Errorf("K=%d query %d: %s", k, qi, d)
					}
					if q.Window <= tc.w.Queries[0].Window || tc.w.AnyFilter() {
						// Served by the first slice alone, or reading a
						// merge whose frontier a quiescent chain raises
						// past the gated slices' punctuations.
						continue
					}
					if len(ref.puncts[qi]) == 0 {
						t.Fatalf("K=%d query %d: the reference sink saw no punctuation", k, qi)
					}
					if !slices.Equal(shared.puncts[qi], ref.puncts[qi]) {
						t.Errorf("K=%d query %d: %d punctuations, the per-query union forwards %d, or their values differ",
							k, qi, len(shared.puncts[qi]), len(ref.puncts[qi]))
					}
				}
				got, want := shared.res.Meter, ref.res.Meter
				if k == 1 && got != want {
					t.Errorf("K=1 meter %v, per-query unions %v", &got, &want)
				}
				if got.Union > want.Union {
					t.Errorf("K=%d: the shared union charged %d union comparisons, the per-query unions %d", k, got.Union, want.Union)
				}
				got.Union = want.Union
				if got != want {
					t.Errorf("K=%d: a count other than Union moved: %v, per-query unions %v", k, &got, &want)
				}
				t.Logf("K=%d: union %d (per-query unions %d)", k, shared.res.Meter.Union, want.Union)
			}
		})
	}
}

// selectionWorkload is an equijoin chain with nested selections on A, one on
// B, a first-slice query sharing its predicate with a multi-slice one, and
// unfiltered queries between them.
func selectionWorkload() Workload {
	sel := stream.Threshold{S: 0.5}
	return Workload{Join: stream.Equijoin{}, Queries: []Query{
		{Window: 1 * stream.Second, Filter: sel},
		{Window: 2 * stream.Second},
		{Window: 3 * stream.Second, Filter: sel},
		{Window: 5 * stream.Second, Filter: stream.Threshold{S: 0.3}, FilterB: sel},
		{Window: 6 * stream.Second},
		{Window: 9 * stream.Second, Filter: stream.Threshold{S: 0.2}},
	}}
}

func TestQuiescentFloorReleasesGatedChain(t *testing.T) {
	// Q2's gate drops an A tuple that fails its selection, so the second
	// slice never punctuates that tuple's time. Q1's match must still
	// reach its sink within the same Feed: the chain is quiescent, and the
	// shared union's floor stands in for the missing punctuation.
	w := figure10Workload()
	w.Join = stream.Equijoin{}
	sp, err := BuildStateSlice(w, StateSliceConfig{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewSession(sp.Plan, engine.Config{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := &stream.Tuple{Stream: stream.StreamB, Time: 1 * stream.Second, Seq: 1, Key: 7, Value: 0.9}
	a := &stream.Tuple{Stream: stream.StreamA, Time: 1500 * stream.Millisecond, Seq: 2, Key: 7, Value: 0.1}
	for _, tu := range []*stream.Tuple{b, a} {
		if err := s.Feed(tu); err != nil {
			t.Fatal(err)
		}
	}
	if got := sp.Sinks()[0].Count(); got != 1 {
		t.Fatalf("Q1 holds %d results after the feed, want its one match delivered", got)
	}
	if got := sp.quiescentFloor(); got != a.Time {
		t.Errorf("floor = %s at quiescence, want the marker's last consumed time %s", got, a.Time)
	}
	// While any queue after the lineage marker holds an item the floor is
	// unset: the chain input's, the gate's, then the second slice's.
	sp.mark.Out().PushPunct(a.Time)
	if got := sp.quiescentFloor(); got != -1 {
		t.Errorf("floor = %s with the chain input's queue busy, want -1", got)
	}
	sp.chainIn.Step(nil, -1)
	sp.slices[0].join.Step(nil, -1)
	gate, second := sp.slices[1].gate, sp.slices[1].join
	if got := sp.quiescentFloor(); got != -1 {
		t.Errorf("floor = %s with the gate's input busy, want -1", got)
	}
	gate.Step(nil, -1)
	if got := sp.quiescentFloor(); got != -1 || second.In().Empty() {
		t.Errorf("floor = %s with the second slice's input busy, want -1", got)
	}
	second.Step(nil, -1)
	if got := sp.quiescentFloor(); got != a.Time {
		t.Errorf("floor = %s once the chain drained again, want %s", got, a.Time)
	}
	s.Finish()
}

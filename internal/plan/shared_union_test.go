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
					if q.Window <= tc.w.Queries[0].Window {
						continue // served by the first slice alone
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

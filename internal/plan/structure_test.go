package plan

import (
	"slices"
	"strings"
	"testing"

	"stateslice/internal/operator"
	"stateslice/internal/stream"
)

// Structural tests: the assembled plans must have the operator composition
// of the paper's figures, not just the right answers.

func opNames(p []operator.Operator) []string {
	out := make([]string, len(p))
	for i, op := range p {
		out[i] = op.Name()
	}
	return out
}

func countOps(p []operator.Operator, match func(operator.Operator) bool) int {
	n := 0
	for _, op := range p {
		if match(op) {
			n++
		}
	}
	return n
}

func isRouter(op operator.Operator) bool      { _, ok := op.(*operator.Router); return ok }
func isUnion(op operator.Operator) bool       { _, ok := op.(*operator.Union); return ok }
func isSlicedJoin(op operator.Operator) bool  { _, ok := op.(*operator.SlicedBinaryJoin); return ok }
func isWindowJoin(op operator.Operator) bool  { _, ok := op.(*operator.WindowJoin); return ok }
func isLineageGate(op operator.Operator) bool { _, ok := op.(*operator.LineageFilter); return ok }
func isMaskFilter(op operator.Operator) bool  { _, ok := op.(*operator.MaskFilter); return ok }

func figure10Workload() Workload {
	// Q1 unfiltered small window, Q2 filtered large window — Figure 10.
	return Workload{
		Queries: []Query{
			{Window: 2 * stream.Second},
			{Window: 8 * stream.Second, Filter: stream.Threshold{S: 0.5}},
		},
		Join: stream.FractionMatch{S: 0.1},
	}
}

func TestFigure10Structure(t *testing.T) {
	sp, err := BuildStateSlice(figure10Workload(), StateSliceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ops := sp.Plan.Ops
	if got := countOps(ops, isSlicedJoin); got != 2 {
		t.Errorf("sliced joins = %d, want 2", got)
	}
	// Mem-Opt chains need no routers: each slice's end is a query window.
	if got := countOps(ops, isRouter); got != 0 {
		t.Errorf("routers = %d, want 0 in a Mem-Opt chain", got)
	}
	// One lineage gate between the slices (sigma_A of Figure 10).
	if got := countOps(ops, isLineageGate); got != 1 {
		t.Errorf("gates = %d, want 1", got)
	}
	// The fixed chain merges both slices once: Q1 reads the first slice
	// alone and Q2 both, through the one shared union, whose test on the
	// first slice replaces the sigma'_A mask filter of Figure 10.
	if got := countOps(ops, isUnion); got != 1 || sp.shared == nil {
		t.Errorf("unions = %d (shared %v), want the one shared union", got, sp.shared != nil)
	}
	if got := countOps(ops, isMaskFilter); got != 0 {
		t.Errorf("result-side mask filters = %d, want 0 (tested inside the shared union)", got)
	}
	for qi, want := range [][]int{nil, {0, 1}} {
		if got := sp.unionEdgeOrder(qi); !slices.Equal(got, want) {
			t.Errorf("Q%d reads slices %v, want %v", qi+1, got, want)
		}
	}
	// The same chain built migratable keeps Figure 10's wiring: a union
	// for Q2 only and one grouped sigma'_A filter on the first slice.
	mig, err := BuildStateSlice(figure10Workload(), StateSliceConfig{Migratable: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := countOps(mig.Plan.Ops, isMaskFilter); got != 1 {
		t.Errorf("migratable chain: result-side mask filters = %d, want 1 (grouped)", got)
	}
}

// TestCPUOptFilteredStructure checks a CPU-Opt chain with selections and
// routers: every slice's router and selection groups become tests of the
// shared union, so no router or mask filter runs after the first slice —
// or anywhere.
func TestCPUOptFilteredStructure(t *testing.T) {
	sel := stream.Threshold{S: 0.5}
	w := Workload{
		Queries: []Query{
			{Window: 1 * stream.Second},
			{Window: 2 * stream.Second, Filter: sel},
			{Window: 3 * stream.Second},
			{Window: 4 * stream.Second, Filter: stream.Threshold{S: 0.3}},
			{Window: 6 * stream.Second, Filter: sel},
			{Window: 8 * stream.Second, Filter: stream.Threshold{S: 0.2}},
		},
		Join: stream.FractionMatch{S: 0.1},
	}
	ends := []stream.Time{2 * stream.Second, 4 * stream.Second, 8 * stream.Second}
	sp, err := BuildStateSlice(w, StateSliceConfig{Ends: ends})
	if err != nil {
		t.Fatal(err)
	}
	// The per-query wiring of the same chain needs a router on every
	// slice (two inside windows each) and selection groups after them.
	mig, err := BuildStateSlice(w, StateSliceConfig{Ends: ends, Migratable: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := countOps(mig.Plan.Ops, isRouter); got != 3 {
		t.Errorf("migratable chain: routers = %d, want 3", got)
	}
	if got := countOps(mig.Plan.Ops, isMaskFilter); got == 0 {
		t.Error("migratable chain: want mask filters after the slices")
	}
	ops := sp.Plan.Ops
	first := slices.IndexFunc(ops, func(op operator.Operator) bool { return op == operator.Operator(sp.slices[0].join) })
	for _, op := range ops[first+1:] {
		if isRouter(op) || isMaskFilter(op) {
			t.Errorf("%s runs after the first slice; want it tested inside the shared union", op.Name())
		}
	}
	if got := countOps(ops, isRouter) + countOps(ops, isMaskFilter); got != 0 {
		t.Errorf("routers + mask filters = %d, want 0", got)
	}
	if got := countOps(ops, isUnion); got != 1 || sp.shared == nil || sp.shared.Inputs() != 3 {
		t.Errorf("unions = %d, want the one shared union with an input per slice", got)
	}
	// One gate, before the slice at 4s: the 3s query is unfiltered.
	if got := countOps(ops, isLineageGate); got != 1 {
		t.Errorf("gates = %d, want 1", got)
	}
}

func TestFigure12MemOptStructure(t *testing.T) {
	// N queries without selections: N slices, no gates, no routers, and
	// the union of every query beyond the first slice (Figure 12) merged
	// once: one union whose outputs for Q2..Q4 read the slice prefixes of
	// length 2, 3 and 4.
	w := Workload{
		Queries: []Query{
			{Window: 1 * stream.Second},
			{Window: 2 * stream.Second},
			{Window: 3 * stream.Second},
			{Window: 4 * stream.Second},
		},
		Join: stream.FractionMatch{S: 0.1},
	}
	sp, err := BuildStateSlice(w, StateSliceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ops := sp.Plan.Ops
	if got := countOps(ops, isSlicedJoin); got != 4 {
		t.Errorf("sliced joins = %d, want 4", got)
	}
	if got := countOps(ops, isLineageGate); got != 0 {
		t.Errorf("gates = %d, want 0 without selections", got)
	}
	if got := countOps(ops, isUnion); got != 1 {
		t.Errorf("unions = %d, want 1 shared by Q2..Q4", got)
	}
	if got := sp.shared.Inputs(); got != 4 {
		t.Errorf("shared union inputs = %d, want one per slice", got)
	}
	for qi, want := range [][]int{nil, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}} {
		if got := sp.unionEdgeOrder(qi); !slices.Equal(got, want) {
			t.Errorf("Q%d reads slices %v, want %v", qi+1, got, want)
		}
	}
	if got := len(sp.Plan.Stateful); got != 4 {
		t.Errorf("stateful operators = %d, want the 4 slices", got)
	}
}

func TestFigure13MergedStructure(t *testing.T) {
	// Merging all slices yields one join plus a router discriminating the
	// inner windows (Figure 13(b)).
	w := Workload{
		Queries: []Query{
			{Window: 1 * stream.Second},
			{Window: 2 * stream.Second},
			{Window: 3 * stream.Second},
		},
		Join: stream.FractionMatch{S: 0.1},
	}
	sp, err := BuildStateSlice(w, StateSliceConfig{Ends: []stream.Time{3 * stream.Second}})
	if err != nil {
		t.Fatal(err)
	}
	ops := sp.Plan.Ops
	if got := countOps(ops, isSlicedJoin); got != 1 {
		t.Errorf("sliced joins = %d, want 1", got)
	}
	routers := 0
	var router *operator.Router
	for _, op := range ops {
		if r, ok := op.(*operator.Router); ok {
			routers++
			router = r
		}
	}
	if routers != 1 {
		t.Fatalf("routers = %d, want 1", routers)
	}
	if got := len(router.Branches()); got != 3 {
		t.Errorf("router branches = %d, want one per distinct window", got)
	}
	// Fully merged: every query reads a router branch, no unions needed.
	if got := countOps(ops, isUnion); got != 0 {
		t.Errorf("unions = %d, want 0 when one slice serves everything", got)
	}
}

func TestPullUpStructure(t *testing.T) {
	p, err := BuildPullUp(figure10Workload(), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOps(p.Ops, isWindowJoin); got != 1 {
		t.Errorf("joins = %d, want 1 (largest window)", got)
	}
	if got := countOps(p.Ops, isRouter); got != 1 {
		t.Errorf("routers = %d, want 1", got)
	}
	j := p.Stateful[0].(*operator.WindowJoin)
	wa, wb := j.Windows()
	if wa != 8*stream.Second || wb != 8*stream.Second {
		t.Errorf("join windows (%s,%s), want the largest query window", wa, wb)
	}
	// The selection appears above the join: a result filter is present.
	found := false
	for _, name := range opNames(p.Ops) {
		if strings.Contains(name, "sigma'") {
			found = true
		}
	}
	if !found {
		t.Error("pull-up must place the selection above the join")
	}
}

func TestPushDownStructure(t *testing.T) {
	w := Workload{
		Queries: []Query{
			{Window: 2 * stream.Second},
			{Window: 5 * stream.Second, Filter: stream.Threshold{S: 0.5}},
			{Window: 9 * stream.Second, Filter: stream.Threshold{S: 0.5}},
		},
		Join: stream.FractionMatch{S: 0.1},
	}
	p, err := BuildPushDown(w, false)
	if err != nil {
		t.Fatal(err)
	}
	// Two joins (Section 7.2: "the shared plan will have two regular
	// joins"), one split, two routers, one union for the unfiltered Q1.
	if got := countOps(p.Ops, isWindowJoin); got != 2 {
		t.Errorf("joins = %d, want 2", got)
	}
	splits := countOps(p.Ops, func(op operator.Operator) bool {
		_, ok := op.(*operator.Split)
		return ok
	})
	if splits != 1 {
		t.Errorf("splits = %d, want 1", splits)
	}
	if got := countOps(p.Ops, isUnion); got != 1 {
		t.Errorf("unions = %d, want 1 (Q1 merges both joins)", got)
	}
	// Window sizes: the failing partition joins at the largest unfiltered
	// window, the passing partition at the overall largest.
	var sizes []stream.Time
	for _, s := range p.Stateful {
		j := s.(*operator.WindowJoin)
		wa, _ := j.Windows()
		sizes = append(sizes, wa)
	}
	if len(sizes) != 2 || sizes[0] != 2*stream.Second || sizes[1] != 9*stream.Second {
		t.Errorf("join windows = %v, want [2s 9s]", sizes)
	}
}

func TestPushDownAllFilteredSkipsSplit(t *testing.T) {
	w := Workload{
		Queries: []Query{
			{Window: 2 * stream.Second, Filter: stream.Threshold{S: 0.5}},
			{Window: 5 * stream.Second, Filter: stream.Threshold{S: 0.5}},
		},
		Join: stream.FractionMatch{S: 0.1},
	}
	p, err := BuildPushDown(w, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOps(p.Ops, isWindowJoin); got != 1 {
		t.Errorf("joins = %d, want 1 (failing partition is dead)", got)
	}
	splits := countOps(p.Ops, func(op operator.Operator) bool {
		_, ok := op.(*operator.Split)
		return ok
	})
	if splits != 0 {
		t.Errorf("splits = %d, want 0 (plain filter suffices)", splits)
	}
}

func TestPushDownNoFiltersFallsBackToPullUp(t *testing.T) {
	w := Workload{
		Queries: []Query{
			{Window: 2 * stream.Second},
			{Window: 5 * stream.Second},
		},
		Join: stream.FractionMatch{S: 0.1},
	}
	p, err := BuildPushDown(w, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOps(p.Ops, isWindowJoin); got != 1 {
		t.Errorf("joins = %d, want 1", got)
	}
	if p.Name != "push-down" {
		t.Errorf("plan name %q", p.Name)
	}
}

func TestPushDownDistinctPredicatesRejected(t *testing.T) {
	w := Workload{
		Queries: []Query{
			{Window: 2 * stream.Second, Filter: stream.Threshold{S: 0.5}},
			{Window: 5 * stream.Second, Filter: stream.Threshold{S: 0.2}},
		},
		Join: stream.FractionMatch{S: 0.1},
	}
	if _, err := BuildPushDown(w, false); err == nil {
		t.Error("distinct predicates must be rejected")
	}
}

func TestWorkloadValidation(t *testing.T) {
	base := figure10Workload()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	cases := []Workload{
		{},
		{Queries: []Query{{Window: stream.Second}}},
		{Queries: []Query{{Window: 0}}, Join: stream.CrossProduct{}},
		{Queries: []Query{{Window: 5 * stream.Second}, {Window: 2 * stream.Second}}, Join: stream.CrossProduct{}},
	}
	for i, w := range cases {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d must fail", i)
		}
	}
	var many []Query
	for i := 1; i <= 65; i++ {
		many = append(many, Query{Window: stream.Time(i) * stream.Second})
	}
	if err := (Workload{Queries: many, Join: stream.CrossProduct{}}).Validate(); err == nil {
		t.Error("more than 64 queries must fail (lineage masks)")
	}
}

func TestStateSliceValidation(t *testing.T) {
	w := figure10Workload()
	bad := [][]stream.Time{
		{},
		{8 * stream.Second, 2 * stream.Second},
		{2 * stream.Second},
		{-1, 8 * stream.Second},
	}
	for i, ends := range bad {
		if _, err := BuildStateSlice(w, StateSliceConfig{Ends: ends}); err == nil {
			t.Errorf("ends case %d must fail", i)
		}
	}
	if _, err := BuildStateSlice(Workload{}, StateSliceConfig{}); err == nil {
		t.Error("invalid workload must fail")
	}
}

func TestQueryNames(t *testing.T) {
	w := Workload{
		Queries: []Query{
			{Name: "alpha", Window: stream.Second},
			{Window: 2 * stream.Second},
		},
		Join: stream.CrossProduct{},
	}
	if w.QueryName(0) != "alpha" || w.QueryName(1) != "Q2" {
		t.Errorf("names: %q, %q", w.QueryName(0), w.QueryName(1))
	}
}

func TestImplies(t *testing.T) {
	tight, loose := stream.Threshold{S: 0.2}, stream.Threshold{S: 0.8}
	if !implies(tight, loose) {
		t.Error("tight threshold implies loose")
	}
	if implies(loose, tight) {
		t.Error("loose must not imply tight")
	}
	if !implies(loose, stream.True{}) || !implies(nil, nil) {
		t.Error("anything implies trivial")
	}
	if implies(stream.True{}, tight) {
		t.Error("trivial implies only trivial")
	}
	if !implies(tight, stream.Threshold{S: 0.2}) {
		t.Error("identical predicates imply each other")
	}
}

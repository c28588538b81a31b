package plan

import (
	"fmt"
	"slices"
	"sort"

	"stateslice/internal/engine"
	"stateslice/internal/operator"
	"stateslice/internal/stream"
)

// StateSliceConfig parameterises BuildStateSlice.
type StateSliceConfig struct {
	// Ends lists the slice end-window boundaries in ascending order; the
	// last entry must equal the workload's largest window. Nil selects
	// the Mem-Opt chain: one slice per distinct query window (Section
	// 5.1). A subset of the distinct windows yields a merged chain, e.g.
	// the CPU-Opt output of Section 5.2; queries whose windows fall
	// strictly inside a merged slice are served by a router (Figure 13).
	Ends []stream.Time
	// DisableLineage switches the pushed-down selections from lineage
	// marking (Section 6.1, one predicate evaluation per tuple plus
	// integer checks) to plain re-evaluation at every slice gate and
	// result edge — the ablation baseline.
	DisableLineage bool
	// Migratable forces uniform wiring (a union per query) so slices can
	// be merged and split while the plan runs (Section 5.3).
	Migratable bool
	// Collect makes every sink retain its result tuples.
	Collect bool
	// RawSliceResults leaves every slice's Joined-Result port bare
	// instead of wiring routers, filters and per-query unions: the caller
	// attaches its own consumers (via Slices()[i].Result()) and assembles
	// the per-query answers itself. The sharded executor uses it to ship
	// each slice's result stream across goroutines once, rather than once
	// per subscribing query. Valid only when every slice's result stream
	// is query-agnostic — an unfiltered workload whose every distinct
	// window is a slice boundary (no routers, no result filters) — and
	// incompatible with Migratable; Build reports violations. The plan's
	// sinks exist but receive nothing.
	RawSliceResults bool
	// OnResult, when set, is invoked for every result tuple of every
	// query — built in or attached later — as it reaches the query's
	// sink, with the query's slot index. It runs on the goroutine driving
	// the session.
	OnResult func(qi int, t *stream.Tuple)
	// Name overrides the plan name; empty defaults to "state-slice".
	Name string
}

// StateSlicePlan is an executable state-slice chain plan plus the structure
// needed for online migration.
type StateSlicePlan struct {
	// Plan is the executable graph; its Ops list is rebuilt in place by
	// migrations, so sessions keep observing the current shape.
	Plan *engine.Plan

	w        Workload
	cfg      StateSliceConfig
	entryOps []operator.Operator
	chainIn  *operator.ChainInput
	slices   []*sliceNode
	unions   []*operator.Union // per query slot; nil when wired directly to the sink or read from shared
	// shared is the one union of a fixed chain whose slice results are
	// query-agnostic: input i is slice i, and every query served by more
	// than one slice reads the prefix of slices up to its window. nil for
	// migratable, filtered and routed chains, which keep per-query unions.
	shared *operator.Union
	sinks  []*operator.Sink

	// live marks which query slots subscribe to the chain. Build admits
	// every workload query; Attach appends slots, Detach clears them.
	// Slots are never removed — a detached query's union and sink stay in
	// unions and sinks so slot indices, and the QueryIDs derived from them,
	// stay stable for the plan's lifetime; only the operator list drops them,
	// at the first restructure after their union has flushed (rebuildOps).
	live []bool
	// restructuring guards the chain against reentrant surgery: a sink
	// callback fired from inside a migration or admission barrier cannot
	// start a second restructuring of the same chain.
	restructuring bool
}

// sliceNode bundles one sliced join with its input gate and result wiring.
type sliceNode struct {
	join    *operator.SlicedBinaryJoin
	gate    operator.Operator // lineage or predicate filter feeding the slice; nil if none
	router  *operator.Router  // nil when the slice needs no routing
	filters []operator.Operator
	edges   []edge // union input queues fed by this slice (for closing on migration)
}

// edge is one result connection from a slice into a query union.
type edge struct {
	union *operator.Union
	queue *stream.Queue
}

// BuildStateSlice assembles the paper's state-slice sharing plan for the
// workload: a chain of sliced binary window joins over the given slice
// boundaries, selections pushed between the slices, per-slice routers where
// query windows fall inside a merged slice, and order-preserving unions
// assembling each query's answer (Figures 10, 12, 13, 15).
func BuildStateSlice(w Workload, cfg StateSliceConfig) (*StateSlicePlan, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	ends := cfg.Ends
	if ends == nil {
		ends = w.DistinctWindows()
	}
	if err := validateEnds(w, ends); err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = "state-slice"
	}
	if cfg.RawSliceResults {
		if err := validateRawSliceResults(w, ends, cfg); err != nil {
			return nil, err
		}
	}
	// The plan owns its query list: Attach appends to it, and every shard
	// replica is built from the same Workload value.
	w.Queries = slices.Clone(w.Queries)
	sp := &StateSlicePlan{
		Plan: &engine.Plan{Name: name},
		w:    w,
		cfg:  cfg,
	}

	// Entry: one shared queue so both streams reach the chain in global
	// order, then lineage marking (or an entry filter) and the
	// male/female splitter.
	entryQ := stream.NewQueue()
	sp.Plan.EntryA = []*stream.Queue{entryQ}
	sp.Plan.EntryB = []*stream.Queue{entryQ}
	chainFeed := entryQ
	if w.AnyFilter() {
		if !cfg.DisableLineage {
			condsA := make([]stream.Predicate, len(w.Queries))
			condsB := make([]stream.Predicate, len(w.Queries))
			for i, q := range w.Queries {
				condsA[i] = q.filterOrTrue()
				condsB[i] = q.filterBOrTrue()
			}
			mark := operator.NewLineageMark("lineage", condsA, condsB, entryQ)
			sp.entryOps = append(sp.entryOps, mark)
			chainFeed = mark.Out().NewQueue()
		} else {
			for _, side := range []stream.ID{stream.StreamA, stream.StreamB} {
				d := sp.disjunction(0, side)
				if trivial(d) {
					continue
				}
				f := operator.NewStreamFilter("sigma'1."+side.String(), d, side, chainFeed)
				sp.entryOps = append(sp.entryOps, f)
				chainFeed = f.Out().NewQueue()
			}
		}
	}
	sp.chainIn = operator.NewChainInput("chain-input", chainFeed)
	sp.entryOps = append(sp.entryOps, sp.chainIn)

	// The chain of sliced joins with gates between slices.
	start := stream.Time(0)
	var feed *operator.Port = sp.chainIn.Out()
	for si, end := range ends {
		node := &sliceNode{}
		var in *stream.Queue
		if si > 0 && sp.needsGate(start) {
			in = stream.NewQueue()
			node.gate = sp.newGate(start, feed.NewQueue(), in)
		} else {
			in = feed.NewQueue()
		}
		join, err := operator.NewSlicedBinaryJoin(sliceName(start, end), start, end, w.Join, in)
		if err != nil {
			return nil, fmt.Errorf("plan: state-slice: %w", err)
		}
		node.join = join
		sp.slices = append(sp.slices, node)
		feed = join.Next()
		start = end
	}

	// Per-query terminals: a union when several slices contribute (or
	// always, for migratable plans), the result port itself otherwise.
	// When every slice's results are query-agnostic and the chain is
	// fixed (the RawSliceResults predicate), the queries share one union
	// instead, each reading the prefix of slices its window spans; the
	// query spanning every slice reads the union's main output (a
	// one-slice chain needs no union at all). Sinks consume their source
	// synchronously (no queue hop): a sink is a terminal with no
	// downstream, so queueing its input only deferred identical work to
	// another scheduling pass.
	if !cfg.RawSliceResults && validateRawSliceResults(w, ends, cfg) == nil && len(ends) > 1 {
		sp.shared = operator.NewUnion(name + ".union")
	}
	sp.unions = make([]*operator.Union, len(w.Queries))
	sp.sinks = make([]*operator.Sink, len(w.Queries))
	sp.live = make([]bool, len(w.Queries))
	for qi, q := range w.Queries {
		sp.live[qi] = true
		contributing := sp.sliceOf(q.Window) + 1
		sink := sp.newQuerySink(qi)
		switch {
		case cfg.RawSliceResults || (!cfg.Migratable && contributing == 1):
			// A single slice contributes and wireSliceResults attaches
			// the sink to its (possibly filtered) result port.
		case sp.shared != nil:
			port := sp.shared.Out()
			if contributing < len(ends) || port.Connected() {
				port = sp.shared.AddOutput(contributing)
			}
			port.AttachFunc(sink.Accept)
		default:
			u := operator.NewUnion(w.QueryName(qi) + ".union")
			sp.unions[qi] = u
			u.Out().AttachFunc(sink.Accept)
		}
		sp.sinks[qi] = sink
	}

	if !cfg.RawSliceResults {
		for si := range sp.slices {
			if err := sp.wireSliceResults(si); err != nil {
				return nil, err
			}
		}
	}
	sp.rebuildOps()
	return sp, nil
}

// newQuerySink builds the terminal sink of query slot qi, applying the
// plan-wide collection and result-handler settings.
func (sp *StateSlicePlan) newQuerySink(qi int) *operator.Sink {
	sink := operator.NewDirectSink(sp.w.QueryName(qi))
	if sp.cfg.Collect {
		sink.Collecting()
	}
	if h := sp.cfg.OnResult; h != nil {
		sink.OnResult(func(t *stream.Tuple) { h(qi, t) })
	}
	return sink
}

// RawSliceEligible reports whether a chain over the given slice boundaries
// qualifies for RawSliceResults — the single source of truth the sharded
// build consults before selecting its slice-merge fast path, so the
// eligibility predicate and the build-time validation cannot drift apart.
func RawSliceEligible(w Workload, ends []stream.Time, migratable bool) bool {
	return validateRawSliceResults(w, ends, StateSliceConfig{Migratable: migratable}) == nil
}

// validateRawSliceResults checks that every slice's result stream is
// query-agnostic, the precondition for exposing raw slice ports.
func validateRawSliceResults(w Workload, ends []stream.Time, cfg StateSliceConfig) error {
	if cfg.Migratable {
		return fmt.Errorf("plan: RawSliceResults leaves the per-query unions unbuilt, which migration rewires; the two cannot be combined")
	}
	if w.AnyFilter() {
		return fmt.Errorf("plan: RawSliceResults requires an unfiltered workload (result-side selections make slice streams query-specific)")
	}
	isEnd := make(map[stream.Time]bool, len(ends))
	for _, e := range ends {
		isEnd[e] = true
	}
	for _, win := range w.DistinctWindows() {
		if !isEnd[win] {
			return fmt.Errorf("plan: RawSliceResults requires every distinct query window to be a slice boundary (window %s falls inside a slice and would need a router)", win)
		}
	}
	return nil
}

// validateEnds checks the slice boundary list.
func validateEnds(w Workload, ends []stream.Time) error {
	if len(ends) == 0 {
		return fmt.Errorf("plan: state-slice needs at least one slice boundary")
	}
	prev := stream.Time(0)
	for i, e := range ends {
		if e <= prev {
			return fmt.Errorf("plan: slice boundaries must be positive and strictly ascending (index %d: %s after %s)", i, e, prev)
		}
		prev = e
	}
	if last := ends[len(ends)-1]; last != w.MaxWindow() {
		return fmt.Errorf("plan: last slice boundary %s must equal the largest query window %s", last, w.MaxWindow())
	}
	return nil
}

// sliceName renders the canonical slice label used in plans and traces.
func sliceName(start, end stream.Time) string {
	return fmt.Sprintf("slice[%s,%s]", start, end)
}

// Slices returns the live sliced joins of the chain, in chain order.
func (sp *StateSlicePlan) Slices() []*operator.SlicedBinaryJoin {
	out := make([]*operator.SlicedBinaryJoin, len(sp.slices))
	for i, n := range sp.slices {
		out[i] = n.join
	}
	return out
}

// Ends returns the current slice end boundaries, in chain order.
func (sp *StateSlicePlan) Ends() []stream.Time {
	out := make([]stream.Time, len(sp.slices))
	for i, n := range sp.slices {
		_, out[i] = n.join.Range()
	}
	return out
}

// Sinks returns the per-query sinks (indexed like the workload queries).
func (sp *StateSlicePlan) Sinks() []*operator.Sink { return sp.sinks }

// QuerySlot describes one query slot of the live chain: the query as
// admitted and whether the slot still subscribes to results. Detached slots
// stay in place (Live false) so slot indices remain stable.
type QuerySlot struct {
	Query Query
	Live  bool
}

// QuerySlots returns the chain's query slots — built-in and attached, in
// slot order — reflecting every admission applied so far. Explain renders
// from this, not from the build-time workload, so attach/detach (and the
// query set a migration serves) stay observable.
func (sp *StateSlicePlan) QuerySlots() []QuerySlot {
	out := make([]QuerySlot, len(sp.w.Queries))
	for qi, q := range sp.w.Queries {
		out[qi] = QuerySlot{Query: q, Live: sp.live[qi]}
	}
	return out
}

// QueryUnion returns the order-preserving union assembling query qi's
// answer, or nil when a single slice feeds the sink directly or the query
// reads the chain's shared union (both only on non-migratable chains, where
// the sink is the query's terminal). The union's output port is the query's
// terminal: consumers that replace the sink — the sharded executor taps the
// port straight into its cross-replica merge — may detach it and attach
// their own function. Migrations rewire the union's inputs, never its
// output, so a replacement consumer survives re-slicing.
func (sp *StateSlicePlan) QueryUnion(qi int) *operator.Union { return sp.unions[qi] }

// sliceOf returns the index of the slice whose range contains window w.
func (sp *StateSlicePlan) sliceOf(w stream.Time) int {
	for i, n := range sp.slices {
		if _, end := n.join.Range(); w <= end {
			return i
		}
	}
	return len(sp.slices) - 1
}

// disjunction returns OR(cond_k) on the given stream for queries k >= minQ,
// the sigma'_i filter of Section 6.1.
func (sp *StateSlicePlan) disjunction(minQ int, side stream.ID) stream.Predicate {
	var or stream.Or
	for _, q := range sp.w.Queries[minQ:] {
		cond := q.filterOrTrue()
		if side == stream.StreamB {
			cond = q.filterBOrTrue()
		}
		if trivial(cond) {
			return stream.True{}
		}
		or = append(or, cond)
	}
	if len(or) == 1 {
		return or[0]
	}
	return or
}

// needsGate reports whether a selection gate is worthwhile before a slice
// starting at the given window: the pushed-down disjunction of the remaining
// queries' predicates on either stream must be non-trivial (Section 6.1).
func (sp *StateSlicePlan) needsGate(start stream.Time) bool {
	if !sp.w.AnyFilter() {
		return false
	}
	minQ := firstQueryBeyond(sp.w.Queries, start)
	return !trivial(sp.disjunction(minQ, stream.StreamA)) ||
		!trivial(sp.disjunction(minQ, stream.StreamB))
}

// newGate constructs the inter-slice filter guarding the slice that starts
// at the given window: it reads from in and forwards surviving items into
// out. Callers must have checked needsGate.
func (sp *StateSlicePlan) newGate(start stream.Time, in, out *stream.Queue) operator.Operator {
	minQ := firstQueryBeyond(sp.w.Queries, start)
	if sp.cfg.DisableLineage {
		// Chain one stream filter per side with a non-trivial
		// disjunction; a trivial side passes through the other filter
		// untouched anyway.
		dA := sp.disjunction(minQ, stream.StreamA)
		dB := sp.disjunction(minQ, stream.StreamB)
		switch {
		case trivial(dB):
			f := operator.NewStreamFilter(fmt.Sprintf("sigma'>%s", start), dA, stream.StreamA, in)
			f.Out().Attach(out)
			return f
		case trivial(dA):
			f := operator.NewStreamFilter(fmt.Sprintf("sigma'>%s.B", start), dB, stream.StreamB, in)
			f.Out().Attach(out)
			return f
		default:
			fa := operator.NewStreamFilter(fmt.Sprintf("sigma'>%s", start), dA, stream.StreamA, in)
			fb := operator.NewStreamFilter(fmt.Sprintf("sigma'>%s.B", start), dB, stream.StreamB, fa.Out().NewQueue())
			fb.Out().Attach(out)
			return chainedGate{fa, fb}
		}
	}
	name := fmt.Sprintf("lineage>%s", start)
	var lf *operator.LineageFilter
	if trivial(sp.disjunction(minQ, stream.StreamB)) {
		lf = operator.NewLineageFilter(name, minQ+1, in)
	} else {
		lf = operator.NewLineageFilter2(name, minQ+1, in)
	}
	lf.Out().Attach(out)
	return lf
}

// chainedGate runs two stacked filters as one gate operator.
type chainedGate struct {
	first, second operator.Operator
}

// Name implements Operator.
func (g chainedGate) Name() string { return g.first.Name() + "+" + g.second.Name() }

// Pending implements Operator.
func (g chainedGate) Pending() bool { return g.first.Pending() || g.second.Pending() }

// Step implements Operator.
func (g chainedGate) Step(m *operator.CostMeter, max int) int {
	n := g.first.Step(m, max)
	g.second.Step(m, -1)
	return n
}

// wireSliceResults (re)builds the result path of slice si: router (when the
// slice serves several distinct query windows), per-edge selection filters
// grouped by predicate, and the connections into the per-query unions or
// sinks. The slice's previous wiring must have been detached already. The
// served set is computed per slot — live queries whose window exceeds the
// slice start — not positionally, because admission appends slots out of
// window order and detach leaves dead slots in place. A wiring failure
// propagates as an error (Build and the restructuring operations all have
// error returns) rather than crashing the process.
func (sp *StateSlicePlan) wireSliceResults(si int) error {
	node := sp.slices[si]
	node.router = nil
	node.filters = nil
	node.edges = nil
	start, end := node.join.Range()
	served := sp.servedAt(start)
	if sp.shared != nil {
		// The slice's results enter the shared union once; only a query
		// the first slice serves alone reads the port itself.
		node.join.Result().Attach(sp.shared.AddInput())
		if si == 0 {
			for _, qi := range served {
				if sp.w.Queries[qi].Window <= end {
					node.join.Result().AttachFunc(sp.sinks[qi].Accept)
				}
			}
		}
		return nil
	}

	// Partition the served queries: windows inside (start, end] need
	// routing when more than one distinct window lands there; windows
	// beyond end accept every result of this slice. Router branches must
	// ascend, and served slots carry no window order, so the inside
	// windows are sorted and deduplicated explicitly.
	type target struct {
		qi   int
		port *operator.Port
	}
	var targets []target
	insideW := []stream.Time{}
	for _, qi := range served {
		w := sp.w.Queries[qi].Window
		if w <= end {
			insideW = append(insideW, w)
		}
	}
	sort.Slice(insideW, func(a, b int) bool { return insideW[a] < insideW[b] })
	insideW = dedupeTimes(insideW)
	// Routing is needed when the slice serves several distinct windows,
	// or when its end window exceeds every inside window (possible after
	// an online split at a non-window boundary): results between the
	// largest inside window and the slice end belong only to the queries
	// beyond the slice.
	needRouter := len(insideW) > 1 ||
		(len(insideW) == 1 && insideW[0] != end)
	if needRouter {
		r := operator.NewRouter(node.join.Name()+".router", node.join.Result().NewQueue())
		node.router = r
		if insideW[len(insideW)-1] != end {
			r.RequireLastCheck()
		}
		ports := make(map[stream.Time]*operator.Port, len(insideW))
		for _, w := range insideW {
			port, err := r.AddBranch(w)
			if err != nil {
				// Windows are deduplicated and ascending, so this
				// indicates a plan builder bug — but it surfaces as a
				// build/restructure error, not a process crash.
				return fmt.Errorf("plan: %s: %w", r.Name(), err)
			}
			ports[w] = port
		}
		for _, qi := range served {
			w := sp.w.Queries[qi].Window
			if w <= end {
				targets = append(targets, target{qi, ports[w]})
			} else {
				targets = append(targets, target{qi, r.All()})
			}
		}
	} else {
		for _, qi := range served {
			targets = append(targets, target{qi, node.join.Result()})
		}
	}

	// Group edges sharing a source port and an identical filter
	// requirement behind a single filter operator, so the measured filter
	// cost matches the sigma'_A terms of Eq. (3).
	type groupKey struct {
		port *operator.Port
		pred string
	}
	groups := make(map[groupKey]*operator.Port)
	for _, tg := range targets {
		q := sp.w.Queries[tg.qi]
		out := tg.port
		needA := q.HasFilter() && !sp.impliedAtSlice(start, tg.qi, stream.StreamA)
		needB := q.HasFilterB() && !sp.impliedAtSlice(start, tg.qi, stream.StreamB)
		if needA || needB {
			keyStr := ""
			if needA {
				keyStr = q.Filter.String()
			}
			if needB {
				keyStr += "|" + q.FilterB.String()
			}
			key := groupKey{tg.port, keyStr}
			if g, ok := groups[key]; ok {
				out = g
			} else {
				fname := fmt.Sprintf("%s.sigma'(%s)", node.join.Name(), sp.w.QueryName(tg.qi))
				var f operator.Operator
				var fout *operator.Port
				if sp.cfg.DisableLineage {
					var pa, pb stream.Predicate
					if needA {
						pa = q.Filter
					}
					if needB {
						pb = q.FilterB
					}
					rf := operator.NewResultFilter2(fname, pa, pb, tg.port.NewQueue())
					f, fout = rf, rf.Out()
				} else {
					mf := operator.NewMaskFilter2(fname, tg.qi, needA, needB, tg.port.NewQueue())
					f, fout = mf, mf.Out()
				}
				node.filters = append(node.filters, f)
				groups[key] = fout
				out = fout
			}
		}
		sp.connect(node, tg.qi, out)
	}
	return nil
}

// connect attaches one query terminal to a result source port.
func (sp *StateSlicePlan) connect(node *sliceNode, qi int, src *operator.Port) {
	if u := sp.unions[qi]; u != nil {
		q := u.AddInput()
		src.Attach(q)
		node.edges = append(node.edges, edge{union: u, queue: q})
		return
	}
	src.AttachFunc(sp.sinks[qi].Accept)
}

// impliedAtSlice reports whether every tuple of the given stream admitted
// into the slice starting at the given boundary already satisfies query qi's
// selection on that stream, making a result-side filter redundant (the
// Figure 10 situation, where only the first slice's results need sigma'_A).
func (sp *StateSlicePlan) impliedAtSlice(start stream.Time, qi int, side stream.ID) bool {
	pick := func(q Query) stream.Predicate {
		if side == stream.StreamB {
			return q.filterBOrTrue()
		}
		return q.filterOrTrue()
	}
	want := pick(sp.w.Queries[qi])
	for _, k := range sp.servedAt(start) {
		if !implies(pick(sp.w.Queries[k]), want) {
			return false
		}
	}
	return true
}

// servedAt lists the live query slots subscribed to results of a slice
// starting at the given boundary, in slot order.
func (sp *StateSlicePlan) servedAt(start stream.Time) []int {
	var out []int
	for qi, q := range sp.w.Queries {
		if sp.live[qi] && q.Window > start {
			out = append(out, qi)
		}
	}
	return out
}

// dedupeTimes removes adjacent duplicates from a sorted time slice.
func dedupeTimes(ts []stream.Time) []stream.Time {
	out := ts[:0]
	for _, t := range ts {
		if len(out) == 0 || out[len(out)-1] != t {
			out = append(out, t)
		}
	}
	return out
}

// rebuildOps regenerates the topological operator list after construction or
// migration. Restructures call it inside their barrier, where every queue is
// drained, so it also reclaims what restructures leave behind: each union
// drops its closed, empty inputs, and a detached slot whose union has none
// left (it has forwarded its final MaxTime) leaves the schedule. The
// slot itself stays in unions, sinks and Plan.Sinks, which are indexed by
// slot.
func (sp *StateSlicePlan) rebuildOps() {
	ops := append([]operator.Operator{}, sp.entryOps...)
	var stateful []operator.StateSizer
	for _, n := range sp.slices {
		if n.gate != nil {
			ops = append(ops, n.gate)
		}
		ops = append(ops, n.join)
		stateful = append(stateful, n.join)
		if n.router != nil {
			ops = append(ops, n.router)
		}
		ops = append(ops, n.filters...)
	}
	if sp.shared != nil {
		ops = append(ops, sp.shared)
	}
	retired := func(qi int) bool {
		u := sp.unions[qi]
		return u != nil && !sp.live[qi] && u.Inputs() == 0
	}
	for qi, u := range sp.unions {
		if u != nil {
			u.DropClosed()
			if !retired(qi) {
				ops = append(ops, u)
			}
		}
	}
	for qi, s := range sp.sinks {
		if !retired(qi) {
			ops = append(ops, s)
		}
	}
	sp.Plan.Ops = ops
	sp.Plan.Stateful = stateful
	sp.Plan.Sinks = sp.sinks
}

package plan

import (
	"fmt"
	"slices"

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
	mark     *operator.LineageMark // nil without lineage-marked selections
	chainIn  *operator.ChainInput
	slices   []*sliceNode
	unions   []*operator.Union // per query slot; nil when wired directly to the sink or read from shared
	// shared is the one union of a fixed chain (not migratable, not raw,
	// at least two slices, selections by lineage marks): input i is slice
	// i's raw results, and every query reads the prefix of slices up to
	// its window. On a chain with routers or selections each input runs
	// its slice's router and mask-filter groups as per-output tests and
	// every query reads a selecting output; without them it is a plain
	// merge and a query the first slice serves alone reads that slice's
	// port (wireShared). nil for migratable and WithoutLineage chains,
	// which keep per-query unions.
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
			sp.mark = operator.NewLineageMark("lineage", condsA, condsB, entryQ)
			sp.entryOps = append(sp.entryOps, sp.mark)
			chainFeed = sp.mark.Out().NewQueue()
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

	// Per-query terminals. A fixed chain (neither migratable nor raw, at
	// least two slices, selections by lineage marks) merges its slice
	// results once, through the shared union (wireShared). Otherwise a
	// query gets a union when several slices contribute (or always, for
	// migratable plans) and reads the result port itself when one does.
	// Sinks consume their source synchronously (no queue hop): a sink is
	// a terminal with no downstream, so queueing its input only deferred
	// identical work to another scheduling pass.
	if !cfg.RawSliceResults && !cfg.Migratable && len(ends) > 1 && !(w.AnyFilter() && cfg.DisableLineage) {
		sp.shared = operator.NewUnion(name + ".union")
	}
	sp.unions = make([]*operator.Union, len(w.Queries))
	sp.sinks = make([]*operator.Sink, len(w.Queries))
	sp.live = make([]bool, len(w.Queries))
	for qi, q := range w.Queries {
		sp.live[qi] = true
		sp.sinks[qi] = sp.newQuerySink(qi)
		if sp.shared == nil && !cfg.RawSliceResults && (cfg.Migratable || sp.sliceOf(q.Window) > 0) {
			u := operator.NewUnion(w.QueryName(qi) + ".union")
			sp.unions[qi] = u
			u.Out().AttachFunc(sp.sinks[qi].Accept)
		}
	}
	switch {
	case sp.shared != nil:
		if err := sp.wireShared(); err != nil {
			return nil, err
		}
	case !cfg.RawSliceResults:
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

// sliceResults is the result path of one slice: the router branches, the
// selection groups and what each served query reads. wireSliceResults builds
// it from operators; the shared union runs it as per-output tests.
type sliceResults struct {
	// windows are the router's branch windows, ascending; nil when the
	// slice needs no router. testLast is the router's RequireLastCheck.
	windows  []stream.Time
	testLast bool
	groups   []resultGroup
	reads    []sliceRead // one per served query, in slot order
}

// resultGroup is one selection filter after a slice, shared by the edges
// with the same source and the same filter requirement, so the measured
// filter cost matches the sigma'_A terms of Eq. (3).
type resultGroup struct {
	branch       int // router branch it reads; -1: every result
	qi           int // the first query it serves: its mask bit and name
	needA, needB bool
}

// sliceRead is what one served query reads of a slice's results.
type sliceRead struct {
	qi     int
	branch int // router branch; -1: every result
	group  int // selection group; -1: none
}

// sliceResults plans the result path of slice si. The served set is
// computed per slot — live queries whose window exceeds the slice start —
// not positionally, because admission appends slots out of window order and
// detach leaves dead slots in place.
func (sp *StateSlicePlan) sliceResults(si int) sliceResults {
	start, end := sp.slices[si].join.Range()
	served := sp.servedAt(start)

	// Windows inside (start, end] need routing when more than one distinct
	// window lands there; windows beyond end accept every result of this
	// slice. Router branches must ascend, and served slots carry no window
	// order, so the inside windows are sorted and deduplicated explicitly.
	var inside []stream.Time
	for _, qi := range served {
		if w := sp.w.Queries[qi].Window; w <= end {
			inside = append(inside, w)
		}
	}
	slices.Sort(inside)
	inside = dedupeTimes(inside)
	// Routing is needed when the slice serves several distinct windows,
	// or when its end window exceeds every inside window (possible after
	// an online split at a non-window boundary): results between the
	// largest inside window and the slice end belong only to the queries
	// beyond the slice.
	var r sliceResults
	if len(inside) > 1 || (len(inside) == 1 && inside[0] != end) {
		r.windows = inside
		r.testLast = inside[len(inside)-1] != end
	}

	type groupKey struct {
		branch int
		pred   string
	}
	groups := make(map[groupKey]int)
	for _, qi := range served {
		q := sp.w.Queries[qi]
		rd := sliceRead{qi: qi, branch: -1, group: -1}
		if r.windows != nil && q.Window <= end {
			rd.branch, _ = slices.BinarySearch(r.windows, q.Window)
		}
		needA := q.HasFilter() && !sp.impliedAtSlice(start, qi, stream.StreamA)
		needB := q.HasFilterB() && !sp.impliedAtSlice(start, qi, stream.StreamB)
		if needA || needB {
			key := groupKey{branch: rd.branch}
			if needA {
				key.pred = q.Filter.String()
			}
			if needB {
				key.pred += "|" + q.FilterB.String()
			}
			g, ok := groups[key]
			if !ok {
				g = len(r.groups)
				groups[key] = g
				r.groups = append(r.groups, resultGroup{branch: rd.branch, qi: qi, needA: needA, needB: needB})
			}
			rd.group = g
		}
		r.reads = append(r.reads, rd)
	}
	return r
}

// wireSliceResults (re)builds the result path of slice si from operators:
// a router (when the slice serves several distinct query windows), the
// selection groups, and the connections into the per-query unions or sinks.
// The slice's previous wiring must have been detached already. A wiring
// failure propagates as an error (Build and the restructuring operations
// all have error returns) rather than crashing the process.
func (sp *StateSlicePlan) wireSliceResults(si int) error {
	node := sp.slices[si]
	node.router = nil
	node.filters = nil
	node.edges = nil
	r := sp.sliceResults(si)

	// branch returns the port serving router branch b (-1: every result).
	branch := func(int) *operator.Port { return node.join.Result() }
	if r.windows != nil {
		rt := operator.NewRouter(node.join.Name()+".router", node.join.Result().NewQueue())
		node.router = rt
		if r.testLast {
			rt.RequireLastCheck()
		}
		ports := make([]*operator.Port, len(r.windows))
		for b, w := range r.windows {
			port, err := rt.AddBranch(w)
			if err != nil {
				// Windows are deduplicated and ascending, so this
				// indicates a plan builder bug — but it surfaces as a
				// build/restructure error, not a process crash.
				return fmt.Errorf("plan: %s: %w", rt.Name(), err)
			}
			ports[b] = port
		}
		branch = func(b int) *operator.Port {
			if b < 0 {
				return rt.All()
			}
			return ports[b]
		}
	}
	outs := make([]*operator.Port, len(r.groups))
	for g, gr := range r.groups {
		in := branch(gr.branch).NewQueue()
		fname := fmt.Sprintf("%s.sigma'(%s)", node.join.Name(), sp.w.QueryName(gr.qi))
		if sp.cfg.DisableLineage {
			var pa, pb stream.Predicate
			if gr.needA {
				pa = sp.w.Queries[gr.qi].Filter
			}
			if gr.needB {
				pb = sp.w.Queries[gr.qi].FilterB
			}
			f := operator.NewResultFilter2(fname, pa, pb, in)
			node.filters = append(node.filters, f)
			outs[g] = f.Out()
		} else {
			f := operator.NewMaskFilter2(fname, gr.qi, gr.needA, gr.needB, in)
			node.filters = append(node.filters, f)
			outs[g] = f.Out()
		}
	}
	for _, rd := range r.reads {
		src := branch(rd.branch)
		if rd.group >= 0 {
			src = outs[rd.group]
		}
		sp.connect(node, rd.qi, src)
	}
	return nil
}

// wireShared feeds every slice's raw results into the shared union once,
// input i being slice i, and gives each query an output reading the prefix
// of slices up to its window. When no slice needs a router or a selection
// (the RawSliceResults predicate), the union is a plain merge: the query
// spanning every slice reads Out, the others read prefix outputs, and a
// query the first slice serves alone reads that slice's port itself.
// Otherwise each input carries its slice's router and selection groups as
// tests, and every query reads a selecting output (one reading the first
// slice alone is charged nothing by the union, as its per-query wiring had
// no union), with the chain's quiescence as the union's frontier floor.
func (sp *StateSlicePlan) wireShared() error {
	if validateRawSliceResults(sp.w, sp.Ends(), sp.cfg) == nil {
		first := sp.slices[0].join.Result()
		for qi, q := range sp.w.Queries {
			k := sp.sliceOf(q.Window) + 1
			port := sp.shared.Out()
			switch {
			case k == 1:
				port = first
			case k < len(sp.slices) || port.Connected():
				port = sp.shared.AddOutput(k)
			}
			port.AttachFunc(sp.sinks[qi].Accept)
		}
		for _, n := range sp.slices {
			n.join.Result().Attach(sp.shared.AddInput())
		}
		return nil
	}
	reads := make([][]operator.Read, len(sp.w.Queries))
	for si, n := range sp.slices {
		res := sp.sliceResults(si)
		groups := make([]operator.MaskTest, len(res.groups))
		for g, gr := range res.groups {
			groups[g] = operator.MaskTest{Query: gr.qi, CheckA: gr.needA, CheckB: gr.needB, Branch: gr.branch}
		}
		in, err := sp.shared.AddSelectingInput(res.windows, res.testLast, groups)
		if err != nil {
			return fmt.Errorf("plan: %w", err)
		}
		n.join.Result().Attach(in)
		for _, rd := range res.reads {
			reads[rd.qi] = append(reads[rd.qi], operator.Read{Branch: rd.branch, Group: rd.group})
		}
	}
	for qi := range sp.w.Queries {
		port, err := sp.shared.AddSelectingOutput(reads[qi])
		if err != nil {
			return fmt.Errorf("plan: %w", err)
		}
		port.AttachFunc(sp.sinks[qi].Accept)
	}
	if slices.ContainsFunc(sp.slices, func(n *sliceNode) bool { return n.gate != nil }) {
		sp.shared.SetFloor(sp.quiescentFloor)
	}
	return nil
}

// quiescentFloor is the shared union's frontier floor on a chain with
// lineage gates: while no queue after the lineage marker holds an item — the
// chain input's, a gate's or a slice's — every slice has finished with every
// tuple the marker consumed, so no slice will emit a result older than the
// marker's last consumed time. A gate drops tuples, and the slices behind it
// punctuate only for what it passes; the floor stands in for the
// punctuations they did not send. -1 while any of those queues is busy.
func (sp *StateSlicePlan) quiescentFloor() stream.Time {
	if sp.chainIn.Pending() {
		return -1
	}
	for _, n := range sp.slices {
		if n.join.Pending() || (n.gate != nil && n.gate.Pending()) {
			return -1
		}
	}
	return sp.mark.Last()
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

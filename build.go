package stateslice

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"stateslice/internal/cost"
	"stateslice/internal/engine"
	"stateslice/internal/operator"
	"stateslice/internal/optimizer"
	"stateslice/internal/plan"
	"stateslice/internal/workload"
)

// Plan is the unified handle every Build strategy returns: one interface
// for explaining, costing, executing and — for chain-backed plans —
// re-slicing a compiled workload. A Plan is a live operator graph with
// state: execute it once, either with Run or through one Session; build a
// fresh plan (building is cheap) for another run.
type Plan interface {
	// Name returns the plan's display name.
	Name() string
	// Strategy returns the sharing strategy the plan was built with.
	Strategy() Strategy
	// Ends returns the chain's current slice end boundaries, in chain
	// order, or nil for plans that are not state-slice chains.
	Ends() []Time
	// Explain renders a human-readable description of the compiled
	// operator graph.
	Explain() string
	// EstimatedCost evaluates the paper's analytic cost model for this
	// plan shape under the build's CostModel (WithCostParams, or
	// DefaultCostModel): state memory in KB and comparisons per second.
	// The two-query formulas Eqs. (1)-(2) bound the pull-up and
	// push-down baselines, so those strategies require a two-query
	// workload; chains and unshared plans cost any workload.
	EstimatedCost() (Cost, error)
	// Run pulls every tuple from the source through the plan and
	// returns the run statistics.
	Run(src Source, cfg RunConfig) (*Result, error)
	// NewSession prepares an incremental run: feed tuples one at a
	// time, consume sources, and migrate chain plans mid-stream.
	NewSession(cfg RunConfig) (Session, error)
	// Migrate re-slices a live chain to the given slice end boundaries
	// (ascending; the last must equal the current largest boundary) by
	// merging and splitting slices while the plan's session runs
	// (Section 5.3). It requires a chain strategy, WithMigratable, and
	// an active session created with NewSession.
	Migrate(to []Time) error

	// sealed keeps the implementation set closed so the interface can
	// grow without breaking callers.
	sealed()
}

// QueryID identifies a query within one plan's session lifetime: the
// 0-based workload index for queries built in at Build time, or the ID
// Session.Attach returned for queries admitted mid-stream. IDs are never
// reused — a detached query's ID stays assigned (its slot in Result's
// per-query statistics is preserved), so a stale ID can never silently
// address a different subscriber.
type QueryID int

// Session drives a plan incrementally: feed tuples one at a time (in global
// timestamp order), consume sources, and — between feeds — migrate the
// owning chain plan via Plan.Migrate or change the subscriber set via
// Attach and Detach. Sequential plans are driven by an engine-backed
// session; sharded plans (WithShards) by a session that routes each tuple
// to its key's replica. Every Session is single-shot: Finish flushes the
// plan with a final punctuation and returns the run statistics, after which
// the session cannot be fed.
//
// Sessions are not safe for concurrent use; one goroutine drives a session.
type Session interface {
	// Feed pushes one source tuple into the plan. Tuples must arrive in
	// global timestamp order.
	Feed(t *Tuple) error
	// Consume feeds the session from a source until it is exhausted. It
	// may be called several times (with sources whose timestamps continue
	// ascending) and interleaved with Feed and plan migrations.
	Consume(src Source) error
	// Drain processes everything buffered until the plan quiesces,
	// flushing any pending micro-batch (for sharded plans: blocking until
	// every replica has quiesced).
	Drain()
	// Attach admits a new query to the running plan at a feed barrier:
	// every tuple fed so far is fully processed, the query subscribes to
	// the existing slice prefix covering its window (splitting at most
	// one slice), and feeding resumes — the stream never stops, no state
	// is rebuilt, no input is replayed. From the first post-admission
	// arrival on, the query's results are byte-identical to those of the
	// same query built in from the start. Requires a chain strategy with
	// WithMigratable, a fully unfiltered workload, an unfiltered query,
	// and a window within (0, largest slice boundary]. Results stream
	// through WithResultHandler; per-query statistics appear in Finish's
	// Result under the returned ID.
	Attach(q Query) (QueryID, error)
	// Detach unsubscribes a previously built-in or attached query at a
	// feed barrier: buffered results flush in order, the query stops
	// receiving results, and slices no remaining query subscribes to are
	// garbage-collected (shrinking the chain's window states). The ID's
	// statistics — result counts, collected tuples — survive to Finish.
	// At least one live query must remain.
	Detach(id QueryID) error
	// Checkpoint takes a barrier-consistent snapshot of the running
	// session: every tuple fed so far is fully processed first (for
	// sharded sessions, on every replica, at the same global stream
	// position), the per-slice window contents, feed frontiers and query
	// roster are copied while nothing is in flight, and feeding resumes.
	// The session continues unaffected. Serialize the snapshot with
	// Checkpoint.Bytes and resume it — in this process or another — by
	// building the same workload with WithRestore. Requires a chain
	// strategy (MemOpt, CPUOpt); ctx only gates entry (a done context
	// fails fast), it cannot interrupt the barrier itself.
	Checkpoint(ctx context.Context) (*Checkpoint, error)
	// Rebalance re-cuts a sharded session's shard ownership to equi-depth
	// boundaries learned from the key distribution observed so far —
	// contiguous key ranges of near-equal observed mass under band
	// partitioning, hash-space intervals under hash partitioning — and
	// moves the affected window state between the existing replicas at a
	// feed barrier: every tuple fed so far is fully processed on every
	// replica first, the barrier snapshot is redistributed under the new
	// cuts, and feeding resumes. No later tuple overtakes the move on any
	// shard and the merged output is byte-identical across the boundary.
	// It returns true when ownership moved and false for a no-op — nothing
	// observed yet, an already balanced load, or a skew no boundary change
	// can improve (a single hot key). Requires WithShards; sequential
	// sessions fail with ErrNotSharded. ctx only gates entry (a done
	// context fails fast), it cannot interrupt the barrier itself.
	// WithRebalance arms the same move on an automatic sustained-imbalance
	// trigger.
	Rebalance(ctx context.Context) (bool, error)
	// Finish flushes the plan with a final punctuation and returns the
	// run statistics. The session cannot be fed afterwards. For sharded
	// sessions, the first replica or driver failure of the run — which
	// also surfaces on Feed/Consume as soon as it happens — is carried on
	// Result.Err; always check it before trusting a sharded session's
	// statistics.
	Finish() *Result
	// Close aborts the session without the final flush Finish performs:
	// feeding stops, every replica, merge and assembly goroutine of a
	// sharded session unwinds deadlock- and leak-free — even mid-Migrate
	// or mid-Attach barrier — and every subsequent operation fails with
	// ErrClosed. Close returns the session's first recorded failure (a
	// contained PanicError, a replica error), or nil for a clean abort;
	// ctx bounds how long Close waits for the teardown (the unwind keeps
	// finishing in the background if ctx expires first). Close is
	// idempotent: later calls return ErrClosed. Finish after Close
	// returns the partial statistics with Result.Err classified, so an
	// aborted run is never mistaken for a completed one.
	//
	// On sharded sessions (WithShards) Close alone may be called from any
	// goroutine — including concurrently with a Feed or Consume in
	// progress, which it unblocks. Sequential sessions follow the
	// single-driver rule even for Close; to abort one from outside its
	// driving goroutine, build the plan with WithContext and cancel.
	Close(ctx context.Context) error
}

// Build compiles the workload into an executable Plan under the given
// sharing strategy. It is the single entry point subsuming the deprecated
// per-strategy constructors:
//
//	p, err := stateslice.Build(w, stateslice.MemOpt, stateslice.WithCollect())
//
// Options outside the strategy's shape (for example WithEnds on a pull-up
// plan, or WithShards on a join the partitioner cannot split) are rejected
// with an error rather than ignored.
func Build(w Workload, s Strategy, opts ...Option) (Plan, error) {
	var o buildOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.err != nil {
		return nil, o.err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	for qi := range o.sinks {
		if qi < 0 || qi >= len(w.Queries) {
			return nil, fmt.Errorf("stateslice: WithSink query index %d out of range (workload has %d queries)", qi, len(w.Queries))
		}
	}
	if !s.sliced() {
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{o.ends != nil, "WithEnds"},
			{o.migratable, "WithMigratable"},
			{o.disableLineage, "WithoutLineage"},
			{o.restore != nil, "WithRestore"},
			{o.recovery != nil, "WithRecovery"},
			{o.rebalance != nil, "WithRebalance"},
		} {
			if bad.set {
				return nil, fmt.Errorf("stateslice: %s applies to state-slice chains only, not the %s strategy", bad.name, s)
			}
		}
	}
	if o.recovery != nil && !o.shardsSet && !o.autoShards {
		return nil, errors.New("stateslice: WithRecovery supervises the sharded executor's replicas and requires WithShards; sequential sessions stay fail-fast")
	}
	if o.rebalance != nil && !o.shardsSet && !o.autoShards {
		return nil, errors.New("stateslice: WithRebalance redistributes state between shard replicas and requires WithShards; sequential sessions have nothing to rebalance")
	}
	if o.restore != nil {
		if err := validateRestoreShape(o); err != nil {
			return nil, err
		}
	}
	if o.ends != nil && s != MemOpt {
		return nil, fmt.Errorf("stateslice: WithEnds overrides the slice layout and is valid only with MemOpt, not %s (CPU-Opt computes its own boundaries)", s)
	}
	model := o.model
	if !o.modelSet {
		model = DefaultCostModel()
	}

	if o.autoShards && o.shardsSet {
		return nil, errors.New("stateslice: WithAutoShards and WithShards both set the shard count; choose one")
	}
	if o.keyRangeSet && !o.shardsSet && !o.autoShards {
		return nil, errors.New("stateslice: WithKeyRange parameterizes the sharded executor's band partitioner and requires WithShards")
	}

	// The optimizer pass pipeline is the compilation spine every build runs —
	// hand-built workloads and parsed SliceQL alike — so both paths make
	// identical decisions and record identical traces (DESIGN.md
	// "Compilation pipeline"). The passes decide; the builders below execute
	// and stay the validators of their own shapes.
	mode, ok := modeOf(s)
	if !ok {
		return nil, fmt.Errorf("stateslice: unknown strategy %s", s)
	}
	lg := &optimizer.Logical{
		Workload:         w,
		Params:           model.chainParams(),
		PinnedEnds:       o.ends,
		RequestedShards:  o.shards,
		AutoShards:       o.autoShards,
		KeyMin:           o.keyMin,
		KeyMax:           o.keyMax,
		KeyRangeDeclared: o.keyRangeSet,
		MaxProcs:         runtime.GOMAXPROCS(0),
		DisableLineage:   o.disableLineage,
	}
	if err := optimizer.Compile(lg, optimizer.Preset(mode)); err != nil {
		return nil, err
	}
	rs := s
	if s == Auto {
		rs = MemOpt
		if lg.Sharing == optimizer.ChainCPU {
			rs = CPUOpt
		}
	}
	if o.autoShards {
		o.shards = lg.Shards
		o.shardsSet = true
		if !lg.UseKeyRange {
			// A declared key domain only capped the inferred count here;
			// hash partitioning ignores it at run time and the sharded
			// builder rejects it, so it stops here.
			o.keyRangeSet = false
		}
	}

	if o.shardsSet {
		return buildSharded(w, rs, o, model, lg)
	}

	bp := &builtPlan{strategy: rs, w: w, model: model, migratable: o.migratable, batchSize: o.batchSize, ctx: o.ctx, trace: lg.Trace}
	switch rs {
	case MemOpt, CPUOpt:
		cfg := chainConfig(rs, o, lg)
		// Chains route WithResultHandler and WithSink through the plan's
		// own result hook: sinks created later by Session.Attach then get
		// the same composite, so admitted queries stream results too.
		cfg.OnResult = sequentialOnResult(o)
		var (
			sp  *plan.StateSlicePlan
			err error
		)
		if o.restore != nil {
			sp, err = plan.RestoreStateSlice(w, cfg, o.restore.chain)
			if err != nil {
				return nil, err
			}
			bp.restore = o.restore.chain
		} else {
			sp, err = plan.BuildStateSlice(w, cfg)
			if err != nil {
				return nil, err
			}
		}
		bp.chain = sp
		bp.exec = sp.Plan
	case PullUp, PushDown, Unshared:
		var (
			p   *engine.Plan
			err error
		)
		switch rs {
		case PullUp:
			p, err = plan.BuildPullUp(w, o.collect)
		case PushDown:
			p, err = plan.BuildPushDown(w, o.collect)
		default:
			p, err = plan.BuildUnshared(w, o.collect)
		}
		if err != nil {
			return nil, err
		}
		if o.name != "" {
			p.Name = o.name
		}
		bp.exec = p
	default:
		return nil, fmt.Errorf("stateslice: unknown strategy %s", rs)
	}

	if o.hashProbing {
		if err := enableHashProbing(bp.exec); err != nil {
			return nil, err
		}
	}
	if h := sequentialOnResult(o); h != nil && bp.chain == nil {
		for qi := range bp.exec.Sinks {
			qi := qi
			bp.exec.Sinks[qi].OnResult(func(t *Tuple) { h(qi, t) })
		}
	}
	return bp, nil
}

// sequentialOnResult composes the build's streaming result callbacks — the
// WithResultHandler handler first, then the query's WithSink sink — into the
// single per-query hook the sequential executors invoke. Nil when neither is
// configured.
func sequentialOnResult(o buildOptions) func(int, *Tuple) {
	if o.resultHandler == nil && len(o.sinks) == 0 {
		return nil
	}
	handler, sinks := o.resultHandler, o.sinks
	return func(qi int, t *Tuple) {
		if handler != nil {
			handler(QueryID(qi), t)
		}
		if s, ok := sinks[qi]; ok {
			s.Emit(t)
		}
	}
}

// modeOf maps a public strategy onto its optimizer preset.
func modeOf(s Strategy) (optimizer.Mode, bool) {
	switch s {
	case MemOpt:
		return optimizer.ChainMem, true
	case CPUOpt:
		return optimizer.ChainCPU, true
	case Auto:
		return optimizer.ChainAuto, true
	case PullUp:
		return optimizer.ModePullUp, true
	case PushDown:
		return optimizer.ModePushDown, true
	case Unshared:
		return optimizer.ModeUnshared, true
	default:
		return 0, false
	}
}

// chainConfig assembles the chain configuration of a MemOpt or CPUOpt build
// from the optimizer's decisions: the sharing pass's slice boundaries
// (caller-pinned, or Dijkstra-chosen for CPU-Opt; nil lets the chain builder
// derive the Mem-Opt distinct windows), lineage, migration wiring and the
// plan name. Both the sequential chain build and the sharded replica factory
// compile from it.
func chainConfig(s Strategy, o buildOptions, lg *optimizer.Logical) plan.StateSliceConfig {
	cfg := plan.StateSliceConfig{
		Ends:           lg.Ends,
		DisableLineage: o.disableLineage,
		Migratable:     o.migratable,
		Collect:        o.collect,
		Name:           o.name,
	}
	if cfg.Name == "" {
		cfg.Name = "state-slice(" + s.String() + ")"
	}
	return cfg
}

// enableHashProbing switches every regular window join of the plan to
// hash-index probing, reporting plans that contain none: sliced chains use
// SlicedBinaryJoin operators, which are never hash-probed, and silently
// "succeeding" on them hid real configuration mistakes.
func enableHashProbing(p *engine.Plan) error {
	eligible := 0
	for _, s := range p.Stateful {
		if wj, ok := s.(*operator.WindowJoin); ok {
			if _, err := wj.WithHashProbe(); err != nil {
				return err
			}
			eligible++
		}
	}
	if eligible == 0 {
		return fmt.Errorf("stateslice: plan %q contains no regular window join eligible for hash probing (state-slice chains use sliced joins, which are always nested-loop)", p.Name)
	}
	return nil
}

// builtPlan is the sequential, engine-backed Plan implementation shared by
// every strategy.
type builtPlan struct {
	strategy   Strategy
	w          Workload
	exec       *engine.Plan
	chain      *plan.StateSlicePlan // nil unless strategy.sliced()
	model      CostModel
	migratable bool
	batchSize  int                   // WithBatchSize default for runs and sessions
	ctx        context.Context       // WithContext bound for runs and sessions
	restore    *plan.ChainCheckpoint // WithRestore snapshot; sessions seed its frontier
	sess       *engine.Session       // latest session, the migration target
	trace      []optimizer.Note      // the pass pipeline's decision record
}

func (p *builtPlan) sealed() {}

// Name implements Plan.
func (p *builtPlan) Name() string { return p.exec.Name }

// Strategy implements Plan.
func (p *builtPlan) Strategy() Strategy { return p.strategy }

// Ends implements Plan.
func (p *builtPlan) Ends() []Time {
	if p.chain == nil {
		return nil
	}
	return p.chain.Ends()
}

// Run implements Plan. A restored plan runs through a session so the
// snapshot's feed frontier is seeded before the first tuple.
func (p *builtPlan) Run(src Source, cfg RunConfig) (*Result, error) {
	if p.restore != nil {
		s, err := p.NewSession(cfg)
		if err != nil {
			return nil, err
		}
		if err := s.Consume(src); err != nil {
			return nil, err
		}
		res := s.Finish()
		if res.Err != nil {
			return nil, res.Err
		}
		return res, nil
	}
	return engine.RunSource(p.exec, src, p.runConfig(cfg))
}

// NewSession implements Plan.
func (p *builtPlan) NewSession(cfg RunConfig) (Session, error) {
	s, err := engine.NewSession(p.exec, p.runConfig(cfg))
	if err != nil {
		return nil, err
	}
	if p.restore != nil {
		if err := s.SeedFrontier(p.restore.Fed, p.restore.LastTime); err != nil {
			return nil, err
		}
	}
	p.sess = s
	return &builtSession{s: s, p: p}, nil
}

// builtSession wraps the engine session driving a sequential plan with the
// admission surface: Attach and Detach delegate to the chain's feed-barrier
// protocol (internal/plan Attach/Detach).
type builtSession struct {
	s *engine.Session
	p *builtPlan
}

// Feed implements Session.
func (cs *builtSession) Feed(t *Tuple) error { return cs.s.Feed(t) }

// Consume implements Session.
func (cs *builtSession) Consume(src Source) error { return cs.s.Consume(src) }

// Drain implements Session.
func (cs *builtSession) Drain() { cs.s.Drain() }

// Checkpoint implements Session: the chain drains to quiescence inside the
// same feed-barrier protocol migration and admission use, and the snapshot
// is copied while nothing is in flight.
func (cs *builtSession) Checkpoint(ctx context.Context) (*Checkpoint, error) {
	if cs.p.chain == nil {
		return nil, fmt.Errorf("stateslice: the %s strategy does not support checkpoints; only state-slice chains snapshot their sliced state", cs.p.strategy)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	cp, err := cs.p.chain.Checkpoint(cs.s)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{chain: cp}, nil
}

// Rebalance implements Session: sequential sessions have no replicas to
// move state between, so the call is rejected with ErrNotSharded.
func (cs *builtSession) Rebalance(context.Context) (bool, error) {
	return false, fmt.Errorf("stateslice: Rebalance moves window state between shard replicas and requires WithShards: %w", ErrNotSharded)
}

// Finish implements Session.
func (cs *builtSession) Finish() *Result { return cs.s.Finish() }

// Close implements Session. Sequential sessions own no goroutines, so the
// abort is immediate: the session becomes unusable and its first recorded
// failure, if any, is returned.
func (cs *builtSession) Close(ctx context.Context) error { return cs.s.Close(ctx) }

// Attach implements Session.
func (cs *builtSession) Attach(q Query) (QueryID, error) {
	if err := cs.p.admissionReady(); err != nil {
		return 0, err
	}
	qi, err := cs.p.chain.Attach(cs.s, q)
	return QueryID(qi), err
}

// Detach implements Session.
func (cs *builtSession) Detach(id QueryID) error {
	if err := cs.p.admissionReady(); err != nil {
		return err
	}
	return cs.p.chain.Detach(cs.s, int(id))
}

// admissionReady mirrors Migrate's structural preconditions for Attach and
// Detach, which reuse the migration wiring (a union per query, splittable
// slices).
func (p *builtPlan) admissionReady() error {
	if p.chain == nil {
		return fmt.Errorf("stateslice: the %s strategy does not support query admission; only state-slice chains attach and detach queries live", p.strategy)
	}
	if !p.migratable {
		return fmt.Errorf("stateslice: build the chain with WithMigratable to attach or detach queries (admission reuses the migration wiring): %w", ErrNotMigratable)
	}
	return nil
}

// runConfig applies the build's WithBatchSize and WithContext defaults
// unless the run config sets its own.
func (p *builtPlan) runConfig(cfg RunConfig) RunConfig {
	if cfg.BatchSize == 0 {
		cfg.BatchSize = p.batchSize
	}
	if cfg.Ctx == nil {
		cfg.Ctx = p.ctx
	}
	return cfg
}

// Migrate implements Plan: it diffs the live chain's boundaries against the
// target and applies the merges (right to left) and splits that transform
// one into the other, exactly the Section 5.3 maintenance primitives
// (plan.MigrateTo).
func (p *builtPlan) Migrate(to []Time) error {
	if p.chain == nil {
		return fmt.Errorf("stateslice: the %s strategy does not support migration; only state-slice chains re-slice online", p.strategy)
	}
	if !p.migratable {
		return fmt.Errorf("stateslice: build the chain with WithMigratable to migrate it: %w", ErrNotMigratable)
	}
	if p.sess == nil {
		return fmt.Errorf("stateslice: Migrate needs a session from NewSession first: %w", ErrNoSession)
	}
	return p.chain.MigrateTo(p.sess, to)
}

// EstimatedCost implements Plan.
func (p *builtPlan) EstimatedCost() (Cost, error) {
	return estimateCost(p.strategy, p.w, p.Ends(), p.model)
}

// Explain implements Plan.
func (p *builtPlan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %q  strategy=%s\n", p.Name(), p.strategy)
	if p.chain != nil {
		explainSlots(&b, p.chain.QuerySlots())
	} else {
		explainQueries(&b, p.w)
	}
	if p.chain != nil {
		start := Time(0)
		b.WriteString("  chain:")
		for _, e := range p.chain.Ends() {
			fmt.Fprintf(&b, " (%s,%s]", fmtTime(start), fmtTime(e))
			start = e
		}
		if p.migratable {
			b.WriteString("  (migratable)")
		}
		b.WriteString("\n")
	}
	b.WriteString("  operators: ")
	for i, op := range p.exec.Ops {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(op.Name())
	}
	b.WriteString("\n")
	writeTrace(&b, p.trace)
	return b.String()
}

// writeTrace appends the optimizer's pass trace to an Explain rendering.
func writeTrace(b *strings.Builder, trace []optimizer.Note) {
	if len(trace) == 0 {
		return
	}
	b.WriteString("  passes:\n")
	b.WriteString(optimizer.RenderTrace(trace))
}

// fmtTime renders a timestamp as compact seconds for Explain output.
func fmtTime(t Time) string {
	return strconv.FormatFloat(t.ToSeconds(), 'g', -1, 64) + "s"
}

// explainQueries renders the workload's query list.
func explainQueries(b *strings.Builder, w Workload) {
	for i, q := range w.Queries {
		fmt.Fprintf(b, "  %s: window %s", w.QueryName(i), fmtTime(q.Window))
		if q.HasFilter() {
			fmt.Fprintf(b, ", filter(A) %s", q.Filter)
		}
		if q.HasFilterB() {
			fmt.Fprintf(b, ", filter(B) %s", q.FilterB)
		}
		b.WriteString("\n")
	}
}

// explainSlots renders a live chain's query roster — every slot ever
// admitted, built in or attached, with detached slots marked — so Explain
// observes the effect of Session.Attach and Session.Detach.
func explainSlots(b *strings.Builder, slots []plan.QuerySlot) {
	for i, s := range slots {
		name := s.Query.Name
		if name == "" {
			name = "Q" + strconv.Itoa(i+1)
		}
		fmt.Fprintf(b, "  %s: window %s", name, fmtTime(s.Query.Window))
		if s.Query.HasFilter() {
			fmt.Fprintf(b, ", filter(A) %s", s.Query.Filter)
		}
		if s.Query.HasFilterB() {
			fmt.Fprintf(b, ", filter(B) %s", s.Query.FilterB)
		}
		if !s.Live {
			b.WriteString("  (detached)")
		}
		b.WriteString("\n")
	}
}

// estimateCost evaluates the analytic model for one plan shape.
func estimateCost(s Strategy, w Workload, ends []Time, m CostModel) (Cost, error) {
	switch s {
	case MemOpt, CPUOpt:
		secs := make([]float64, len(ends))
		for i, e := range ends {
			secs[i] = e.ToSeconds()
		}
		return cost.ChainCost(workload.Specs(w), secs, m.chainParams())
	case PullUp, PushDown:
		p, err := twoQueryParams(w, m)
		if err != nil {
			return Cost{}, err
		}
		if s == PullUp {
			return cost.PullUp(p), nil
		}
		return cost.PushDown(p), nil
	case Unshared:
		return unsharedCost(w, m), nil
	default:
		return Cost{}, fmt.Errorf("stateslice: no cost model for strategy %s", s)
	}
}

// twoQueryParams maps a two-query workload onto the Table 1 parameters of
// Eqs. (1)-(2): Q1 unfiltered with window W1, Q2 with selection selectivity
// SelSigma and window W2.
func twoQueryParams(w Workload, m CostModel) (cost.Params, error) {
	if len(w.Queries) != 2 {
		return cost.Params{}, fmt.Errorf("stateslice: the Eq. (1)/(2) cost model covers two-query workloads, got %d queries (chain strategies cost any workload)", len(w.Queries))
	}
	return cost.Params{
		LambdaA:  m.RateA,
		LambdaB:  m.RateB,
		W1:       w.Queries[0].Window.ToSeconds(),
		W2:       w.Queries[1].Window.ToSeconds(),
		TupleKB:  m.TupleKB,
		SelSigma: selectivityOf(w.Queries[1].Filter),
		SelJoin:  m.JoinSelectivity,
	}, nil
}

// unsharedCost sums the per-query costs of independent plans (Figure 2):
// each query pays its own filtered states, probing, purging and selections.
func unsharedCost(w Workload, m CostModel) Cost {
	l := (m.RateA + m.RateB) / 2
	var c Cost
	for _, q := range w.Queries {
		sA := selectivityOf(q.Filter)
		sB := selectivityOf(q.FilterB)
		win := q.Window.ToSeconds()
		c.MemoryKB += (sA + sB) * l * win * m.TupleKB
		c.CPU += 2*sA*sB*l*l*win + // probing of the private join
			(sA+sB)*l // cross-purge
		if sA < 1 {
			c.CPU += l // selection on stream A
		}
		if sB < 1 {
			c.CPU += l // selection on stream B
		}
	}
	return c
}

// selectivityOf returns a predicate's modelled selectivity (1 when absent).
func selectivityOf(p Predicate) float64 {
	if p == nil {
		return 1
	}
	return p.Selectivity()
}

// chainParams maps the public cost model onto the internal chain model.
func (m CostModel) chainParams() cost.ChainParams {
	return cost.ChainParams{
		LambdaA: m.RateA,
		LambdaB: m.RateB,
		TupleKB: m.TupleKB,
		SelJoin: m.JoinSelectivity,
		Csys:    m.Csys,
	}
}

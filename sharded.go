package stateslice

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"stateslice/internal/optimizer"
	"stateslice/internal/plan"
	"stateslice/internal/shard"
	"stateslice/internal/stream"
)

// This file implements the WithShards execution path: the plan is compiled
// into p independent replicas of the full state-slice chain, the input is
// partitioned by the join key — hashed for key-partitionable joins,
// contiguous owner ranges with boundary replication for band joins
// (WithKeyRange) — each replica runs on the batched sequential engine on
// its own goroutine, and order-preserving merges reassemble the global
// output order (internal/shard).

// buildSharded assembles the sharded Plan of WithShards.
func buildSharded(w Workload, s Strategy, o buildOptions, model CostModel, lg *optimizer.Logical) (Plan, error) {
	if !s.sliced() {
		return nil, fmt.Errorf("stateslice: WithShards replicates a state-slice chain and applies to the chain strategies only, not %s", s)
	}
	if o.hashProbing {
		return nil, errors.New("stateslice: WithShards cannot be combined with WithHashProbing: state-slice chains use sliced joins, which are always nested-loop")
	}
	// Partitioning eligibility: key-partitionable joins hash-partition (the
	// cheaper scheme, no replication); band-partitionable joins range-
	// partition with boundary replication, which needs the key domain from
	// WithKeyRange. Anything else cannot be sharded losslessly.
	var band *shard.Band
	switch width, bandOK := stream.PartitionableByBand(w.Join); {
	case stream.PartitionableByKey(w.Join):
		if o.keyRangeSet {
			return nil, fmt.Errorf("stateslice: WithKeyRange parameterizes band partitioning, but the key-partitionable join %q is hash-partitioned and ignores the key domain; drop the option (or use a band predicate such as BandJoin)", w.Join)
		}
	case bandOK:
		if !o.keyRangeSet {
			return nil, fmt.Errorf("stateslice: the band-partitionable join %q needs WithKeyRange(min, max) so WithShards can split the key domain into contiguous owner ranges", w.Join)
		}
		band = &shard.Band{Width: width, MinKey: o.keyMin, MaxKey: o.keyMax}
		if err := band.Validate(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("stateslice: WithShards partitions by the join key and requires a key-partitionable or band-partitionable join predicate, got %q (a matching pair could be split across shards and lost)", w.Join)
	}
	cfg := chainConfig(s, o, lg)
	// The cross-shard merge sinks collect and stream results; replica
	// sinks only relay.
	cfg.Collect = false
	// Compile one probe replica now so configuration errors surface at
	// Build time, and to learn the chain's boundary layout.
	probe, err := plan.BuildStateSlice(w, cfg)
	if err != nil {
		return nil, err
	}
	name := o.name
	if name == "" {
		name = fmt.Sprintf("state-slice(%s,shards=%d)", s, o.shards)
	}
	cfg.Name = name
	// Eligible chains take the slice-merge fast path: each slice's result
	// stream crosses goroutines once instead of once per subscribing
	// query. It requires query-agnostic slice streams (unfiltered, every
	// distinct window a slice boundary — CPU-Opt merged slices route
	// results and are ineligible) and a fixed layout (not migratable).
	cfg.RawSliceResults = plan.RawSliceEligible(w, probe.Ends(), o.migratable)
	if cfg.RawSliceResults {
		// Defense in depth: the executor's slice-merge windows must align
		// with the chain's boundaries. RawSliceEligible implies this, but
		// running the executor-side check here means a drifted eligibility
		// rule fails at Build time, not when NewSession wires goroutines.
		if err := shard.ValidateSliceMergeWindows(probe.Ends(), queryWindows(w)); err != nil {
			return nil, err
		}
	}
	sp := &shardedPlan{
		name:       name,
		strategy:   s,
		w:          w,
		cfg:        cfg,
		model:      model,
		shards:     o.shards,
		batchSize:  o.batchSize,
		band:       band,
		migratable: o.migratable,
		collect:    o.collect,
		sinks:      o.sinks,
		handler:    o.resultHandler,
		ctx:        o.ctx,
		recovery:   o.recovery,
		rebalance:  o.rebalance,
		initEnds:   probe.Ends(),
		initSlots:  initialSlots(w),
		trace:      lg.Trace,
	}
	if o.restore != nil {
		// The restored layout and roster replace the probe's: sessions
		// continue the snapshot's chain shape, not the founding one. A
		// restore/band mismatch is caught again by the executor; checking
		// the snapshot's replica layout here keeps the failure at Build.
		sp.restore = o.restore.shard
		rep0 := sp.restore.Replicas[0]
		sp.initEnds = endsToTimes(rep0.Ends())
		sp.initSlots = restoredSlots(w, rep0)
	}
	sp.ends = append([]Time(nil), sp.initEnds...)
	sp.slots = append([]plan.QuerySlot(nil), sp.initSlots...)
	return sp, nil
}

// endsToTimes converts stream.Time boundaries to the public alias slice.
func endsToTimes(ends []stream.Time) []Time {
	out := make([]Time, len(ends))
	for i, e := range ends {
		out[i] = e
	}
	return out
}

// restoredSlots reconstructs the Explain roster from a replica snapshot:
// founding slots keep their workload queries (predicates included), slots
// admitted mid-stream are re-synthesized from the snapshot, and dead slots
// stay marked detached.
func restoredSlots(w Workload, cp *plan.ChainCheckpoint) []plan.QuerySlot {
	slots := make([]plan.QuerySlot, 0, len(cp.Slots))
	for i, sl := range cp.Slots {
		q := Query{Name: sl.Name, Window: sl.Window}
		if i < len(w.Queries) {
			q = w.Queries[i]
		}
		slots = append(slots, plan.QuerySlot{Query: q, Live: sl.Live})
	}
	return slots
}

// initialSlots builds the query roster of a fresh plan or session: the
// build-time workload, every slot live.
func initialSlots(w Workload) []plan.QuerySlot {
	slots := make([]plan.QuerySlot, len(w.Queries))
	for i, q := range w.Queries {
		slots[i] = plan.QuerySlot{Query: q, Live: true}
	}
	return slots
}

// queryWindows lists the workload's query windows in query order.
func queryWindows(w Workload) []Time {
	windows := make([]Time, len(w.Queries))
	for i, q := range w.Queries {
		windows[i] = q.Window
	}
	return windows
}

// shardedPlan executes the chain as key-partitioned replicas (hash or band
// range) with an order-preserving merge. Like every Plan it is
// single-driver: Run, NewSession and Migrate are called from one goroutine.
type shardedPlan struct {
	name       string
	strategy   Strategy
	w          Workload
	cfg        plan.StateSliceConfig // replica configuration
	model      CostModel
	shards     int
	batchSize  int
	band       *shard.Band // nil = hash partitioning
	migratable bool
	collect    bool
	sinks      map[int]Sink
	handler    func(QueryID, *Tuple) // WithResultHandler
	ctx        context.Context       // WithContext bound for runs and sessions
	recovery   *Restart              // WithRecovery: supervised replica restart
	rebalance  *Rebalance            // WithRebalance: automatic load-adaptive rebalancing
	restore    *shard.Checkpoint     // WithRestore: seed replicas from a snapshot

	initEnds  []Time
	initSlots []plan.QuerySlot // roster a fresh session starts from
	ends      []Time           // current layout (updated by Migrate and admission)
	// slots is the query roster the latest session has admitted — built-in
	// and attached queries, detached ones marked dead — mirroring the
	// replicas' plan.QuerySlots so Explain renders the live set without
	// crossing into executor goroutines.
	slots []plan.QuerySlot
	sess  *shardSession    // latest session, the migration and admission target
	trace []optimizer.Note // the pass pipeline's decision record
}

func (p *shardedPlan) sealed() {}

// Name implements Plan.
func (p *shardedPlan) Name() string { return p.name }

// Strategy implements Plan.
func (p *shardedPlan) Strategy() Strategy { return p.strategy }

// Ends implements Plan. Every replica carries the same boundary layout;
// Migrate keeps this copy current.
func (p *shardedPlan) Ends() []Time { return append([]Time(nil), p.ends...) }

// executor assembles a fresh executor over fresh replicas.
func (p *shardedPlan) executor(cfg RunConfig) (*shard.Executor, error) {
	if cfg.Series || cfg.WarmupFraction > 0 {
		return nil, errors.New("stateslice: sharded plans aggregate per-replica memory monitors and do not support RunConfig.Series or WarmupFraction; run without WithShards for per-arrival memory series")
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = p.batchSize
	}
	var onResult func(int, *Tuple)
	if p.handler != nil || len(p.sinks) > 0 {
		handler, sinks := p.handler, p.sinks
		onResult = func(qi int, t *Tuple) {
			if handler != nil {
				handler(QueryID(qi), t)
			}
			if s, ok := sinks[qi]; ok {
				s.Emit(t)
			}
		}
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = p.ctx
	}
	w, rcfg := p.w, p.cfg
	scfg := shard.Config{
		Shards:      p.shards,
		BatchSize:   cfg.BatchSize,
		SampleEvery: cfg.SampleEvery,
		Band:        p.band,
		Collect:     p.collect,
		OnResult:    onResult,
		Ctx:         ctx,
		SliceMerge:  rcfg.RawSliceResults,
		Name:        p.name,
	}
	if scfg.SliceMerge {
		scfg.Windows = queryWindows(w)
	}
	// The restore closure keeps workload knowledge (predicates, roles) out
	// of the shard package: the executor hands back the raw per-replica
	// snapshot and this plan rebuilds the chain around it. It serves
	// WithRestore seeding, supervised mid-run restarts and rebalance
	// rebuilds; Session.Rebalance works on demand without any option, so
	// the closure is wired unconditionally.
	scfg.Recovery = p.recovery
	scfg.Restore = p.restore
	if p.rebalance != nil {
		scfg.Rebalance = &shard.RebalancePolicy{
			Threshold:  p.rebalance.Threshold,
			CheckEvery: p.rebalance.CheckEvery,
			Sustained:  p.rebalance.Sustained,
			MinGain:    p.rebalance.MinGain,
		}
	}
	scfg.RestoreFn = func(_ int, cp *plan.ChainCheckpoint) (*plan.StateSlicePlan, error) {
		return plan.RestoreStateSlice(w, rcfg, cp)
	}
	return shard.New(scfg, func(int) (*plan.StateSlicePlan, error) {
		return plan.BuildStateSlice(w, rcfg)
	})
}

// Run implements Plan.
func (p *shardedPlan) Run(src Source, cfg RunConfig) (*Result, error) {
	e, err := p.executor(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(src)
}

// NewSession implements Plan. The session runs fresh replicas with the
// build's original slice layout; it becomes the target of Migrate.
func (p *shardedPlan) NewSession(cfg RunConfig) (Session, error) {
	e, err := p.executor(cfg)
	if err != nil {
		return nil, err
	}
	p.ends = append([]Time(nil), p.initEnds...)
	p.slots = append([]plan.QuerySlot(nil), p.initSlots...)
	p.sess = &shardSession{e: e, p: p}
	return p.sess, nil
}

// Migrate implements Plan: the re-slicing fans out to every replica at the
// current stream position — all tuples fed so far are processed first, no
// later tuple overtakes the migration on any shard.
func (p *shardedPlan) Migrate(to []Time) error {
	if !p.migratable {
		return fmt.Errorf("stateslice: build the chain with WithMigratable to migrate it: %w", ErrNotMigratable)
	}
	if p.sess == nil {
		return fmt.Errorf("stateslice: Migrate needs a session from NewSession first: %w", ErrNoSession)
	}
	ends, err := p.sess.e.Migrate(to)
	if err != nil {
		return err
	}
	p.ends = ends
	return nil
}

// EstimatedCost implements Plan. The analytic model prices the chain's
// aggregate shape: partitioning splits the same window states across
// replicas, so the state memory estimate carries over, while the
// comparison estimate is an upper bound under sharding (each replica
// probes only its own key range).
func (p *shardedPlan) EstimatedCost() (Cost, error) {
	return estimateCost(p.strategy, p.w, p.ends, p.model)
}

// Explain implements Plan.
func (p *shardedPlan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %q  strategy=%s  shards=%d\n", p.name, p.strategy, p.shards)
	explainSlots(&b, p.slots)
	start := Time(0)
	b.WriteString("  chain:")
	for _, e := range p.ends {
		fmt.Fprintf(&b, " (%s,%s]", fmtTime(start), fmtTime(e))
		start = e
	}
	if p.migratable {
		b.WriteString("  (migratable)")
	}
	b.WriteString("\n")
	// The hash partitioner mixes keys through splitmix64 before the
	// modulo — not a plain `hash(Key) mod p` on the raw key value — so
	// clustered or consecutive key *values* still spread across shards.
	// Per-key frequency skew is irreducible either way: one key's whole
	// state lives on one shard (see internal/shard.Partitioner). Band
	// plans use contiguous owner ranges instead, which do not mix values
	// at all — the Explain line names the scheme so the skew caveats of
	// each are attributable.
	part := fmt.Sprintf("splitmix64(Key) mod %d", p.shards)
	if p.band != nil {
		part = fmt.Sprintf("range(Key in [%d,%d]) into %d owner ranges, replicated within band %d of a boundary, owner-suppressed duplicates",
			p.band.MinKey, p.band.MaxKey, p.shards, p.band.Width)
	}
	if p.cfg.RawSliceResults {
		fmt.Fprintf(&b, "  executor: %s -> %d chain replicas (one engine goroutine each) -> %d per-slice merges + one shared union with a prefix output per query, on one assembly goroutine\n",
			part, p.shards, len(p.ends))
	} else {
		fmt.Fprintf(&b, "  executor: %s -> %d chain replicas (one engine goroutine each) -> %d order-preserving per-query mergers, one merge goroutine per founding query\n",
			part, p.shards, len(p.slots))
	}
	if p.sess != nil {
		// A live session carries the current (possibly rebalanced)
		// ownership cuts and the observed load shares; render them so
		// Explain shows what the static partitioning line above cannot —
		// where the keys actually went.
		b.WriteString("  ownership (live):\n")
		for _, os := range p.sess.e.Ownership() {
			fmt.Fprintf(&b, "    shard %d: %s  share %.1f%%\n", os.Shard, os.Range, 100*os.Share)
		}
	}
	writeTrace(&b, p.trace)
	return b.String()
}

// shardSession adapts the shard executor to the Session interface. Errors
// detected inside replicas surface on the next Feed, Consume or Migrate
// call; Finish returns the statistics of whatever completed and carries the
// first replica or driver error on Result.Err, since the Session interface
// has no error return there — a failed replica is never silently dropped.
type shardSession struct {
	e *shard.Executor
	p *shardedPlan
}

// Feed implements Session.
func (s *shardSession) Feed(t *Tuple) error { return s.e.Feed(t) }

// Consume implements Session.
func (s *shardSession) Consume(src Source) error { return s.e.Consume(src) }

// Drain implements Session.
func (s *shardSession) Drain() { s.e.Drain() }

// Attach implements Session: the admission fans out to every replica at the
// current stream position — all tuples fed so far are processed on every
// shard before the query subscribes, so no shard's suffix starts early.
func (s *shardSession) Attach(q Query) (QueryID, error) {
	if !s.p.migratable {
		return 0, fmt.Errorf("stateslice: build the chain with WithMigratable to attach or detach queries (admission reuses the migration wiring): %w", ErrNotMigratable)
	}
	qi, ends, err := s.e.Attach(q)
	if err != nil {
		return 0, err
	}
	s.p.slots = append(s.p.slots, plan.QuerySlot{Query: q, Live: true})
	s.p.ends = ends
	return QueryID(qi), nil
}

// Detach implements Session: every replica unsubscribes the query and
// garbage-collects subscriber-less trailing slices; the plan's recorded
// layout shrinks with them.
func (s *shardSession) Detach(id QueryID) error {
	if !s.p.migratable {
		return fmt.Errorf("stateslice: build the chain with WithMigratable to attach or detach queries (admission reuses the migration wiring): %w", ErrNotMigratable)
	}
	ends, err := s.e.Detach(int(id))
	if err != nil {
		return err
	}
	s.p.slots[id].Live = false
	s.p.ends = ends
	return nil
}

// Checkpoint implements Session: one barrier freezes every replica at the
// same stream position, each snapshots its chain, and the driver composes
// them with the partitioning metadata into one restorable unit.
func (s *shardSession) Checkpoint(ctx context.Context) (*Checkpoint, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	cp, err := s.e.Checkpoint()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{shard: cp}, nil
}

// Rebalance implements Session: one barrier snapshots every replica at the
// same stream position, the snapshot is redistributed under equi-depth cuts
// learned from the observed key distribution, and each replica rebuilds its
// chain from its new share before feeding resumes.
func (s *shardSession) Rebalance(ctx context.Context) (bool, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return false, err
		}
	}
	return s.e.Rebalance()
}

// Finish implements Session. A replica failure — which also surfaces on
// Feed/Consume/Migrate as soon as it is published — is returned on
// Result.Err rather than discarded.
func (s *shardSession) Finish() *Result {
	res, err := s.e.Finish()
	res.Err = err
	return res
}

// Close implements Session: it cancels the executor's run context and waits
// — bounded by ctx — for every replica, merge and assembly goroutine to
// unwind through the ordered teardown Finish uses, even when the abort lands
// mid-Migrate or mid-Attach barrier. Unlike the other session methods, Close
// may be called from any goroutine, including concurrently with a Feed or
// Consume in progress (which it unblocks).
func (s *shardSession) Close(ctx context.Context) error { return s.e.Close(ctx) }

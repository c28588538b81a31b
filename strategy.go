package stateslice

import (
	"context"
	"errors"
	"fmt"
)

// Strategy selects the sharing paradigm a Build call compiles the workload
// into. The paper's contribution is that one shared state-slice chain
// subsumes the baselines; the enum makes the choice a runtime parameter
// instead of five unrelated constructors.
type Strategy int

const (
	// MemOpt builds the memory-optimal state-slice chain: one sliced
	// join per distinct query window (Section 5.1; Theorems 3 and 4).
	MemOpt Strategy = iota
	// CPUOpt builds the CPU-optimal state-slice chain: adjacent slices
	// merged by Dijkstra's algorithm over the slice-merge graph whenever
	// saved purge and scheduling overhead outweighs added routing
	// (Section 5.2). Tune the model with WithCostParams.
	CPUOpt
	// PullUp builds the naive shared baseline with selection pull-up:
	// one largest-window join plus a router (Section 3.1).
	PullUp
	// PushDown builds the stream-partition baseline with selection
	// push-down: split, per-partition joins, router and union
	// (Section 3.2).
	PushDown
	// Unshared builds one independent plan per query (Figure 2).
	Unshared
	// Auto builds whichever state-slice chain — Mem-Opt or CPU-Opt — the
	// analytic cost model prices cheaper in comparisons for this workload
	// (ties go to Mem-Opt, the smaller state). The optimizer's sharing
	// pass makes the choice; the built plan reports the resolved concrete
	// strategy, and Explain's pass trace records both candidates' costs.
	Auto
)

// Strategies lists every concrete build strategy, in a stable order
// convenient for sweeps and tests. Auto is not listed: it resolves to one of
// these at Build time.
func Strategies() []Strategy { return []Strategy{MemOpt, CPUOpt, PullUp, PushDown, Unshared} }

// String names the strategy as used in plan names and CLI flags.
func (s Strategy) String() string {
	switch s {
	case MemOpt:
		return "mem-opt"
	case CPUOpt:
		return "cpu-opt"
	case PullUp:
		return "pull-up"
	case PushDown:
		return "push-down"
	case Unshared:
		return "unshared"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ParseStrategy resolves a strategy name as produced by String, including
// "auto".
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range append(Strategies(), Auto) {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("stateslice: unknown strategy %q (want one of %v or auto)", name, Strategies())
}

// sliced reports whether the strategy builds a state-slice chain.
func (s Strategy) sliced() bool { return s == MemOpt || s == CPUOpt || s == Auto }

// Cost-model defaults, the Section 7.1 experiment settings. DefaultCostModel
// starts from these; WithCostParams never substitutes them silently.
const (
	// DefaultJoinSelectivity is the middle S1 setting of Table 3.
	DefaultJoinSelectivity = 0.1
	// DefaultCsys is the per-tuple-per-operator scheduling overhead, in
	// comparisons, used throughout the paper's CPU-Opt evaluation.
	DefaultCsys = 3.0
	// DefaultRate is the middle per-stream arrival rate of the sweeps,
	// in tuples/sec.
	DefaultRate = 50.0
	// DefaultTupleKB is the modelled tuple size Mt in KB.
	DefaultTupleKB = 1.0
)

// CostModel carries the inputs of the analytic cost model (Table 1): it
// parameterizes the CPU-Opt chain optimizer and Plan.EstimatedCost.
//
// A CostModel is taken verbatim: an
// explicit Csys of 0 means zero scheduling overhead (every slice boundary
// is then free, so CPU-Opt degenerates to Mem-Opt) and is honored, not
// rewritten to a default. Fields that cannot meaningfully be zero
// (the rates, JoinSelectivity, TupleKB) are rejected by Validate with an
// explicit error instead of being silently defaulted; start from
// DefaultCostModel and override what you know.
type CostModel struct {
	// RateA and RateB are the expected stream arrival rates in
	// tuples/sec. Must be positive.
	RateA, RateB float64
	// JoinSelectivity is S1, the join output over the Cartesian product.
	// Must lie in (0, 1]: a zero-selectivity join produces nothing and
	// has no meaningful plan to optimize.
	JoinSelectivity float64
	// Csys is the per-tuple-per-operator overhead factor in comparisons.
	// Must be non-negative; zero is a valid, honored setting.
	Csys float64
	// TupleKB is the tuple size Mt in KB, used for memory estimates.
	// Must be positive.
	TupleKB float64
}

// DefaultCostModel returns the paper's Section 7.1 settings. Override
// individual fields before passing the model to WithCostParams.
func DefaultCostModel() CostModel {
	return CostModel{
		RateA:           DefaultRate,
		RateB:           DefaultRate,
		JoinSelectivity: DefaultJoinSelectivity,
		Csys:            DefaultCsys,
		TupleKB:         DefaultTupleKB,
	}
}

// Validate reports the first invalid field, if any.
func (m CostModel) Validate() error {
	if m.RateA <= 0 || m.RateB <= 0 {
		return fmt.Errorf("stateslice: cost model rates must be positive (got A=%g, B=%g)", m.RateA, m.RateB)
	}
	if m.JoinSelectivity <= 0 || m.JoinSelectivity > 1 {
		return fmt.Errorf("stateslice: cost model join selectivity must lie in (0,1], got %g (a zero-output join has nothing to optimize; use DefaultJoinSelectivity %g for the paper's setting)",
			m.JoinSelectivity, DefaultJoinSelectivity)
	}
	if m.Csys < 0 {
		return fmt.Errorf("stateslice: cost model Csys must be non-negative, got %g (0 is valid and means no scheduling overhead)", m.Csys)
	}
	if m.TupleKB <= 0 {
		return fmt.Errorf("stateslice: cost model tuple size must be positive, got %g KB", m.TupleKB)
	}
	return nil
}

// buildOptions accumulates the functional options of Build.
type buildOptions struct {
	name           string
	collect        bool
	migratable     bool
	disableLineage bool
	hashProbing    bool
	shards         int
	shardsSet      bool
	autoShards     bool
	keyMin, keyMax int64
	keyRangeSet    bool
	ends           []Time
	model          CostModel
	modelSet       bool
	sinks          map[int]Sink
	resultHandler  func(QueryID, *Tuple)
	batchSize      int
	ctx            context.Context
	restore        *Checkpoint
	recovery       *Restart
	rebalance      *Rebalance
	err            error
}

// Option customizes a Build call. Options compose left to right; an invalid
// option or an option incompatible with the chosen strategy surfaces as a
// Build error.
type Option func(*buildOptions)

// WithName overrides the plan name shown in results and Explain output.
func WithName(name string) Option {
	return func(o *buildOptions) { o.name = name }
}

// WithCollect makes every query sink retain its result tuples, exposed via
// Result.Results after a run.
func WithCollect() Option {
	return func(o *buildOptions) { o.collect = true }
}

// WithEnds pins explicit slice end-window boundaries (ascending, the last
// equal to the largest query window) instead of the optimizer's choice.
// Valid only with the MemOpt strategy, which it turns into a custom chain.
func WithEnds(ends ...Time) Option {
	return func(o *buildOptions) { o.ends = append([]Time(nil), ends...) }
}

// WithCostParams supplies the analytic cost model consumed by the CPU-Opt
// optimizer and by Plan.EstimatedCost. The model is validated by
// CostModel.Validate and then used verbatim — see the CostModel docs for
// the zero-value semantics. Without this option, CPUOpt and EstimatedCost
// fall back to DefaultCostModel.
func WithCostParams(m CostModel) Option {
	return func(o *buildOptions) {
		if err := m.Validate(); err != nil && o.err == nil {
			o.err = err
		}
		o.model = m
		o.modelSet = true
	}
}

// WithMigratable wires the chain uniformly (a union per query) so that
// Plan.Migrate can merge and split slices while a session runs (Section
// 5.3). Valid only with the chain strategies MemOpt and CPUOpt.
func WithMigratable() Option {
	return func(o *buildOptions) { o.migratable = true }
}

// WithoutLineage switches pushed-down selections from lineage marking
// (Section 6.1) to plain re-evaluation at every slice gate — the ablation
// baseline. Valid only with the chain strategies.
func WithoutLineage() Option {
	return func(o *buildOptions) { o.disableLineage = true }
}

// WithHashProbing switches every regular window join in the plan from
// nested-loop probing (the paper's cost model) to hash-index probing (Kang
// et al. [14]). It requires an equijoin workload and a plan that actually
// contains eligible joins: state-slice chains use sliced joins, which are
// never hash-probed, so Build reports an error instead of silently
// succeeding.
func WithHashProbing() Option {
	return func(o *buildOptions) { o.hashProbing = true }
}

// WithShards executes the chain as p independent full replicas, the input
// hash-partitioned by the equijoin key (Tuple.Key): tuples with equal keys
// always land on the same replica, so every replica computes exactly the
// results of its own key range on its own goroutine — driven by the
// unmodified batched sequential engine — and an order-preserving per-query
// merge reassembles the global (Time, Seq) output order. Results are
// byte-identical to the unsharded engine at every p; service rate scales
// with the shard count both by parallelism and because each replica's
// window states (and therefore its nested-loop probe spans) shrink by the
// partitioning factor.
//
// Keys are spread by a splitmix64 mixing hash before the modulo, so
// clustered or consecutive key values still distribute across shards;
// per-key frequency skew is irreducible — a hot key's entire window state
// lives on one shard and caps the achievable speedup (results stay
// byte-identical; only the balance degrades).
//
// WithShards requires a chain strategy (MemOpt or CPUOpt) and a join
// predicate the partitioner can reason about: either key-partitionable (an
// Equijoin workload, hash-partitioned as above) or band-partitionable (a
// BandJoin workload, |A.Key - B.Key| <= B, which additionally needs
// WithKeyRange — see that option for the contiguous range partitioning and
// boundary replication it selects). For any other predicate a pair of
// matching tuples could be split across replicas and silently lost, so
// Build reports an error. Sharded plans support sessions,
// WithSink streaming (sink callbacks run on merge-layer goroutines, so
// sinks of different queries may fire concurrently; see Sink), and WithMigratable
// migration, which fans out to every replica at the same stream position.
// WithBatchSize composes: it tunes each replica's engine micro-batch.
// WithShards(1) runs the full sharded machinery with one replica,
// measuring the feed/merge overhead against the plain engine. It cannot be
// combined with WithHashProbing (sliced chains are always nested-loop).
func WithShards(p int) Option {
	return func(o *buildOptions) {
		if p < 1 && o.err == nil {
			o.err = fmt.Errorf("stateslice: WithShards needs at least 1 shard, got %d", p)
		}
		o.shards = p
		o.shardsSet = true
	}
}

// WithAutoShards lets the optimizer's shard-inference pass pick the shard
// count instead of an explicit WithShards(p): the host parallelism
// (GOMAXPROCS), capped at 16 and by the declared key domain — an equijoin
// cannot use more shards than it has keys, and a band join wants roughly 4B
// keys per shard before boundary replication dominates. The inferred count
// appears in Explain's pass trace. Everything else follows WithShards
// semantics: a chain strategy and a partitionable join are required, and a
// band join still needs a declared key domain (WithKeyRange, or KEYS in a
// SliceQL query). Cannot be combined with WithShards (the explicit request
// would win silently).
//
// The inferred count depends on the host, so plans built with WithAutoShards
// are reproducible in results (sharding is byte-identical at every p) but
// not in shape across machines; sweeps that pin p should use WithShards.
func WithAutoShards() Option {
	return func(o *buildOptions) { o.autoShards = true }
}

// WithKeyRange declares the inclusive [min, max] key domain of the input
// streams for a band-partitioned sharded build: WithShards over a
// band-partitionable join predicate (such as BandJoin) splits the declared
// domain into p contiguous owner ranges, feeds every tuple to each replica
// whose range lies within the band width B of its key, and suppresses the
// boundary duplicates on the merge side, so results stay byte-identical to
// the sequential engine at every shard count. Keys outside the declared
// range are clamped onto the edge shards — correct, but they concentrate
// load there, so declare the real domain.
//
// Unlike the hash partitioner, contiguous ranges do not mix key values:
// keys clustered inside one range land on one shard, and keys clustered at
// a range boundary replicate to the neighbor too. Both degrade balance and
// feed volume (the replication factor is roughly 1 + 2B/rangeWidth for
// uniform keys), never correctness.
//
// WithKeyRange is required for, and only valid with, a band-partitionable
// join under WithShards: key-partitionable joins are hash-partitioned and
// ignore the domain, so Build rejects the combination instead of silently
// dropping the option.
func WithKeyRange(min, max int64) Option {
	return func(o *buildOptions) {
		if min > max && o.err == nil {
			o.err = fmt.Errorf("stateslice: WithKeyRange needs min <= max, got [%d, %d]", min, max)
		}
		o.keyMin, o.keyMax = min, max
		o.keyRangeSet = true
	}
}

// WithBatchSize sets the engine's micro-batch size K for every run and
// session of the built plan: the operator graph is scheduled once per K
// arrivals instead of after every tuple, amortizing the per-tuple scheduling
// pass. Per-query results are identical for every K (operators drain FIFO
// queues in arrival order regardless of when the scheduler runs); K only
// trades intra-batch latency and queue memory against scheduling overhead.
// K = 1 is the default and reproduces the paper's tuple-at-a-time CAPE
// schedule exactly; negative K means unbounded (drain only at Finish or a
// migration flush), which is usually a pessimisation — see EXPERIMENTS.md.
// A RunConfig carrying its own non-zero BatchSize overrides this option.
//
// WithBatchSize tunes every plan, since every plan runs on the sequential
// engine: plain chains and baselines directly, sharded chains (WithShards)
// through each replica's engine.
func WithBatchSize(k int) Option {
	return func(o *buildOptions) {
		if k == 0 && o.err == nil {
			o.err = errors.New("stateslice: WithBatchSize needs a positive batch size (or negative for unbounded); the default without the option is 1, the paper-faithful per-tuple schedule")
		}
		o.batchSize = k
	}
}

// WithContext bounds every run and session of the built plan by ctx: once
// the context is done, Consume feed loops stop between tuples, barrier waits
// (migration and admission on sharded plans) abandon, and blocked cross-
// goroutine sends release — the same unwind Session.Close performs, with the
// context's cause reported instead of ErrClosed. Cancellation never
// interrupts one tuple's processing halfway; it takes effect at the next
// tuple or batch boundary. A RunConfig carrying its own non-nil Ctx
// overrides the option for that run.
func WithContext(ctx context.Context) Option {
	return func(o *buildOptions) {
		if ctx == nil && o.err == nil {
			o.err = errors.New("stateslice: WithContext needs a non-nil context (omit the option for an unbounded run)")
		}
		o.ctx = ctx
	}
}

// WithRestore resumes the plan from a checkpoint taken by
// Session.Checkpoint instead of a fresh start: the chain (or every chain
// replica, for sharded snapshots) is rebuilt with the snapshot's slice
// layout, window contents and query roster, the feed frontiers are seeded,
// and feeding continues where the snapshot was taken — the restored session
// produces exactly the results of the tuples fed after the restore point.
// The workload must be the one the checkpointed plan was built from
// (validated window-by-window; predicates are code and travel with the
// build, not the blob), and a sharded snapshot needs the same shard count
// and partitioning. Valid with the chain strategies MemOpt and CPUOpt.
func WithRestore(cp *Checkpoint) Option {
	return func(o *buildOptions) {
		if cp == nil && o.err == nil {
			o.err = errors.New("stateslice: WithRestore needs a non-nil checkpoint (omit the option for a fresh start)")
		}
		o.restore = cp
	}
}

// WithRecovery arms supervised replica restart on a sharded plan (requires
// WithShards): a replica that dies with a contained crash — a panicking
// operator or callback, surfaced as a PanicError — is rebuilt from a
// periodic runner-local checkpoint and fed the missing input delta from a
// replay ring, while the other replicas and the merge layer keep running.
// Replayed results are suppressed by count, so the merged output stays
// byte-identical to an uninterrupted run. The policy bounds restarts per
// replica and backs off exponentially between attempts; an exhausted budget
// — and every non-crash failure class — degrades to the default fail-fast
// teardown, so supervision never hides a fault. Build errors and driver
// misuse are never retried.
func WithRecovery(pol Restart) Option {
	return func(o *buildOptions) {
		p := pol
		o.recovery = &p
	}
}

// Rebalance configures the automatic load-adaptive rebalance trigger of
// WithRebalance. Zero or negative fields select the documented defaults, so
// the zero value Rebalance{} is a complete, conservative policy.
type Rebalance struct {
	// Threshold is the max/mean per-replica delivery ratio of an
	// evaluation window that counts as imbalanced (a perfectly balanced
	// window measures 1.0). <= 0 selects 1.5.
	Threshold float64
	// CheckEvery is how many fed tuples pass between imbalance
	// evaluations. <= 0 selects 4096.
	CheckEvery int
	// Sustained is how many consecutive imbalanced evaluations trigger a
	// rebalance — a burst shorter than Sustained windows never moves
	// state. <= 0 selects 2.
	Sustained int
	// MinGain is the minimum predicted improvement factor (measured
	// imbalance over the learned cuts' predicted imbalance) a rebalance
	// must offer; skews no boundary change can improve — a single hot key
	// — predict no gain and are skipped instead of thrashed on. <= 0
	// selects 1.2.
	MinGain float64
}

// WithRebalance arms automatic load-adaptive shard rebalancing on a sharded
// plan (requires WithShards): the session monitors the observed key
// distribution and the per-replica delivery balance on the feed path, and
// after sustained imbalance it re-cuts ownership to learned equi-depth
// boundaries — contiguous key ranges holding near-equal observed mass under
// band partitioning (WithKeyRange), hash-space intervals under hash
// partitioning — moving the affected window state between the existing
// replicas at a feed barrier. All tuples fed so far are processed before the
// move, no later tuple overtakes it on any shard, and the merged output is
// byte-identical across the boundary at every shard count. The policy only
// automates the trigger; Session.Rebalance performs the same move on demand
// without this option.
func WithRebalance(pol Rebalance) Option {
	return func(o *buildOptions) {
		p := pol
		o.rebalance = &p
	}
}

// WithSink registers a streaming callback for one query (0-based workload
// index): the sink receives every result tuple of that query as it is
// produced, before the run finishes.
func WithSink(query int, s Sink) Option {
	return func(o *buildOptions) {
		if o.sinks == nil {
			o.sinks = make(map[int]Sink)
		}
		o.sinks[query] = s
	}
}

// WithResultHandler registers one streaming callback receiving every result
// tuple of every query together with the query's ID — the 0-based workload
// index for built-in queries, or the ID Session.Attach returned for queries
// admitted mid-stream. Unlike WithSink it needs no per-query registration,
// which is what makes it fit a churning subscriber set: queries that do not
// exist yet at Build time still stream through it. It composes with WithSink
// (the handler fires first, then the query's sink, on the same goroutine —
// the session driver for sequential plans, a merge-layer goroutine for
// sharded ones; under WithShards different queries' callbacks may run on
// different goroutines and fire concurrently (see Sink), so guard any state
// they share).
func WithResultHandler(fn func(QueryID, *Tuple)) Option {
	return func(o *buildOptions) {
		if fn == nil && o.err == nil {
			o.err = errors.New("stateslice: WithResultHandler needs a non-nil handler")
		}
		o.resultHandler = fn
	}
}

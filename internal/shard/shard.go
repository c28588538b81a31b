// Package shard executes a state-slice chain as P independent replicas, one
// per key range, with an order-preserving merge of the replica outputs.
//
// For key-partitionable joins (equijoins on Tuple.Key) hash-partitioning
// both input streams by key yields fully independent shard states: a pair of
// tuples split across shards can never join, and each replica computes
// exactly the results of its own key range — the same data-parallel move
// that shared-arrangement and multi-way stream-join scale-out systems use to
// spread indexed state across workers. Band joins (|A.Key - B.Key| <= B)
// use contiguous range partitioning with boundary replication instead:
// every tuple is fed to each shard whose owner range lies within B of its
// key, and the taps drop every joined pair not owned by the shard of the
// probing male's key, so the replication's boundary duplicates never reach
// the merge (Config.Band; band.go states the ownership lemma). Either way
// each replica is the unmodified batched sequential engine
// (internal/engine) driving a full copy of the chain on its own goroutine;
// no operator knows it is sharded.
//
// Ordering is restored by a run-based cross-replica merge (kmerge, the
// shard specialization of the union merge in operator/union.go), driven by
// the punctuation stream each replica's output already carries: a sliced
// join emits punct(t) after the probing male at t, so a replica's output
// frontier advances with every male it processes. Because a second male
// with the *same* timestamp may still be in flight inside a replica, the
// executor demotes forwarded punctuations to t-1, making the frontier
// strict; the final MaxTime punctuation of Finish is forwarded untouched
// and flushes the merge completely. Idle shards — inevitable under key
// skew — are kept moving by periodic input punctuation broadcasts
// (Config.PunctEvery), which the engine forwards through the chain
// (engine.Session.FeedPunct).
//
// Two merge topologies share that machinery. The general path merges each
// query's per-shard output streams, one merge goroutine per founding query
// (admitted queries share them round-robin), so every merger runs
// concurrently; it handles every chain the engine handles — filters, routed
// slices, mid-stream migration. The slice-merge fast path
// (Config.SliceMerge, for unfiltered chains whose every window is a slice
// boundary) merges each *slice's* per-shard result stream instead and
// assembles the per-query answers engine-style: every distinct result
// crosses goroutines from the replicas once, not once per subscribing query
// — the margin that lets the sharded executor beat the single-core engine
// even on one core, where only the probe-work reduction of smaller
// per-shard states (and none of the parallelism) is available to pay for
// the merge — and is merged across slices once, by one shared union with a
// prefix output per query. One assembly goroutine owns the slice merges,
// the union and the sinks — see assemble.go.
//
// Result streams cross goroutines as item slabs (stream.Batcher) over
// bounded channels (see stream.SlabCap for why slab boundaries never change
// results), recycled through a free list so the steady state allocates nothing.
// Within one shard a stream keeps its replica order (FIFO edges end to
// end); across shards results never tie on (Time, Seq) — a joined tuple
// inherits the Seq of its probing male, and every male's surviving results
// come from exactly one shard (its key's only shard under hash
// partitioning; its key's owner shard after band suppression) — so the
// merged sequence is the unique global (Time, Seq) order, byte-identical
// to the sequential engine's output at every shard count.
//
// Replica failures are never swallowed: the first error any runner hits is
// published to the driver, surfaces on the next Feed/Consume/Migrate call,
// and is returned again by Finish. Panics inside any spawned goroutine —
// replica runners, merge workers, the assembler — are contained the same
// way: recovered into a fault.PanicError and published as the first error,
// so one crashing operator or user callback fails the session instead of
// the process (the blast-radius property a shared chain owes its co-hosted
// queries).
//
// The executor is also cancellable: Config.Ctx bounds the whole run, and
// Close aborts it — both unwind the feed channels, replica runners, mergers
// and assemblers through the same ordered teardown Finish uses, deadlock-
// and leak-free even when the abort lands mid-barrier (see barrier and
// teardownLocked).
//
// Chain migration (Section 5.3) fans out: Migrate flushes the pending feed
// slabs, then every replica applies the same merge/split program at the
// same global stream position (plan.MigrateTo) before feeding resumes.
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stateslice/internal/engine"
	"stateslice/internal/fault"
	"stateslice/internal/operator"
	"stateslice/internal/plan"
	rec "stateslice/internal/recover"
	"stateslice/internal/stream"
)

// DefaultPunctEvery is the default input-tuple period of punctuation
// broadcasts. Broadcasts only bound merge latency and memory on idle
// shards — correctness never depends on the period, because every male a
// shard does receive punctuates its output anyway and Finish flushes with
// MaxTime.
const DefaultPunctEvery = 256

// chanBuf is the buffer size, in slabs, of the merge channels; it only
// affects throughput, never correctness.
const chanBuf = 32

// feedSlab and feedBuf cap the feed edge; they do not fix its batch size.
// The driver sends a shard's slab as soon as the shard's feed channel is
// empty — its replica is idle, and batching for an idle consumer only adds
// latency — and otherwise once the slab holds feedSlab items, so slabs hold
// one input when the replicas keep up and grow to feedSlab under load.
//
// The caps keep the edge fine-grained: one input tuple amplifies into tens
// of result items per query, so a shard running a large input lead floods
// the merge unions with items their frontiers cannot release until the
// lagging shards catch up (the merge channel itself cannot exert that
// backpressure — its consumer absorbs batches unconditionally into the
// union queues). A shard's lead — the items in its feed channel plus its
// batcher — is at most (feedBuf+1)*feedSlab inputs whatever the slab
// sizes, because the channel holds feedBuf slabs of at most feedSlab items
// and the driver blocks once the batcher fills behind a full channel. That
// bounds every merger queue to a small multiple of the result
// amplification instead of the whole stream.
const (
	feedSlab = 16
	feedBuf  = 4
)

// feedPoll bounds how long a replica runner polls its empty feed channel
// before it parks on it (nextFeed). With slabs sent to idle replicas, a
// steady stream reaches its runners one input at a time, and waking a
// parked runner wakes an idle processor's OS thread, which the kernel can
// queue behind the driver's busy thread for a scheduler tick: on a 2-CPU
// VM about 2 % of the handoffs of some paced runs stalled 4 ms, and none of
// others, so p50 result latency read 0.2 ms in one run and 1.1 ms in the
// next. A polling runner keeps its thread running, so the next slab needs
// no wake-up. 1 ms spans the gap between a shard's inputs down to 1 000
// inputs per second per shard; a sparser stream costs up to 1 ms of CPU
// per input.
const feedPoll = time.Millisecond

// Config parameterises an Executor.
type Config struct {
	// Shards is the replica count P (>= 1). P = 1 still runs the full
	// sharded machinery — feed channels, merge layer — and measures its
	// overhead against the plain engine.
	Shards int
	// BatchSize is the engine micro-batch size K applied to every
	// replica's session (see engine.Config.BatchSize).
	BatchSize int
	// PunctEvery is the input-tuple period of punctuation broadcasts to
	// all shards; 0 selects DefaultPunctEvery, negative disables
	// broadcasts (the final punctuation still flushes everything).
	PunctEvery int
	// SampleEvery is the per-replica monitor sampling period (see
	// engine.Config.SampleEvery).
	SampleEvery int
	// Band, when non-nil, selects contiguous range partitioning with
	// boundary replication for band-join predicates (|A.Key - B.Key| <=
	// Band.Width) instead of the default key hash: each tuple is fed to
	// every shard whose owner range lies within Band.Width of its key, and
	// the taps suppress every joined result not owned by the shard that
	// owns the probing male's key, so exactly one copy of each pair
	// reaches the merge (see band.go for the ownership lemma). nil keeps
	// hash partitioning, which requires a key-partitionable join.
	Band *Band
	// Collect makes the per-query merge sinks retain result tuples.
	Collect bool
	// OnResult, when non-nil, receives every result of query qi in that
	// query's delivery order. On the slice-merge path every callback runs
	// on the one assembler goroutine; on the query-level path each on its
	// query's merge worker, so callbacks of different queries may run
	// concurrently.
	OnResult func(qi int, t *stream.Tuple)
	// Ctx, when non-nil, bounds the whole run: once it is done, Consume
	// stops between tuples, barrier waits abandon, and blocked feed sends
	// release — the same unwind Close performs, surfacing the context's
	// cause instead of ErrClosed. nil means the run is bounded only by
	// Close/Finish.
	Ctx context.Context
	// SliceMerge selects the slice-level merge fast path: replicas are
	// built with plan.StateSliceConfig.RawSliceResults, each slice's
	// result stream crosses goroutines once, and the assembler merges the
	// slices and assembles the per-query answers with one shared union.
	// Requires Windows and raw replicas; the coordinator (the public build
	// layer) selects it for eligible plans
	// (unfiltered, every window a slice boundary, not migratable).
	SliceMerge bool
	// Windows are the query windows, required by SliceMerge to derive
	// each query's contributing slices. Every window must equal one of
	// the chain's slice boundaries (ValidateSliceMergeWindows).
	Windows []stream.Time
	// Name labels the run's Result.
	Name string
	// Recovery, when non-nil, arms supervised replica restart: a replica
	// that dies with a contained crash (fault.PanicError) is rebuilt from
	// its last runner-local checkpoint and fed the delta from its replay
	// ring, up to the policy's budget, instead of failing the session.
	// Requires RestoreFn. nil keeps the fail-fast default — the first
	// replica failure aborts the run.
	Recovery *rec.Restart
	// RestoreFn rebuilds one replica's chain from a checkpoint; required by
	// Recovery and Restore. The public build layer supplies it, closing
	// over the founding workload (predicates are code and never travel in
	// a snapshot).
	RestoreFn func(shard int, cp *plan.ChainCheckpoint) (*plan.StateSlicePlan, error)
	// Restore, when non-nil, resumes the executor from a sharded
	// checkpoint instead of a fresh start: every replica is rebuilt from
	// its snapshot via RestoreFn, the engine frontiers and the driver's
	// feed counters are seeded, and feeding continues where the snapshot
	// was taken. The shard count and partitioning must match the snapshot.
	Restore *Checkpoint
	// Rebalance, when non-nil, arms the automatic rebalance trigger: the
	// feed path evaluates the per-replica delivery imbalance on the
	// policy's cadence and re-cuts ownership to learned equi-depth
	// boundaries after sustained imbalance (see rebalance.go). Requires
	// RestoreFn. Executor.Rebalance also works on demand without a policy;
	// the policy only automates the trigger.
	Rebalance *RebalancePolicy
}

// ValidateSliceMergeWindows checks a slice-merge configuration against the
// chain's slice boundary layout: every query window must equal one of the
// boundaries, so each query's contributing slice prefix is non-empty and
// the assembly needs no routing. The public build layer runs this check at
// Build time — a misconfigured plan fails before any session or goroutine
// exists — and New repeats it before wiring anything, so the executor never
// reaches session time with windows its assembler cannot serve. It is the
// executor-side counterpart of plan.RawSliceEligible.
func ValidateSliceMergeWindows(ends, windows []stream.Time) error {
	if len(windows) == 0 {
		return errors.New("shard: SliceMerge needs the query windows")
	}
	if len(ends) == 0 {
		return errors.New("shard: SliceMerge needs a chain with at least one slice boundary")
	}
	isEnd := make(map[stream.Time]bool, len(ends))
	for _, e := range ends {
		isEnd[e] = true
	}
	for qi, w := range windows {
		if !isEnd[w] {
			return fmt.Errorf("shard: query %d window %s is not a slice boundary of the chain (first boundary %s, last %s); the slice-merge fast path requires every query window to be a boundary — use the query-level merge for this layout",
				qi, w, ends[0], ends[len(ends)-1])
		}
	}
	return nil
}

// feedMsg is one unit on a shard's feed channel: either an item slab or a
// control barrier.
type feedMsg struct {
	items []stream.Item
	ctl   *ctl
}

// ctl is a barrier command: a migration when target is non-nil, an admission
// when attach or detach is set, a checkpoint when snap is non-nil, a
// rebalance rebuild when rebuild is non-nil, otherwise a drain. The runner
// acknowledges on ack after the replica has quiesced.
type ctl struct {
	target []stream.Time
	attach *attachCmd
	detach *int
	// snap receives each replica's chain snapshot at index idx; the slots
	// are disjoint per runner and the driver reads them only after every
	// acknowledgement, so the shared backing array is race-free.
	snap []*plan.ChainCheckpoint
	// rebuild hands each runner its redistributed checkpoint at index idx;
	// the runner rebuilds its chain from it (see rebalance.go). Unlike
	// other barrier commands an error here fails the replica: ownership
	// has already been re-cut on the driver, so a replica that kept its
	// old state is corrupt.
	rebuild []*plan.ChainCheckpoint
	ack     chan error
}

// attachCmd fans one query admission out to every replica. The merger and
// its owning worker are built by the driver before the barrier, so runners
// only wire taps — they never touch driver-owned registries.
type attachCmd struct {
	q  plan.Query
	qi int // slot index every replica must produce
	m  *merger
	mw *mergeWorker
}

// taggedBatch routes a result slab to a query merger together with its
// source shard. It carries the merger itself, not an index into a registry:
// admission appends mergers while the workers run, and a pointer in the
// batch is immune to the registry growing under them.
type taggedBatch struct {
	m     *merger
	shard int
	items []stream.Item
}

// outEdge is one replica output stream — a query terminal or, on the
// slice-merge fast path, a slice result port — with its batcher and merge
// destination. Edges are runner-owned (the taps and flushResults run on the
// runner goroutine); each is allocated individually so admission can append
// edges without invalidating the pointers captured by earlier taps.
type outEdge struct {
	b *stream.Batcher
	// Query-level merge path:
	m  *merger
	mw *mergeWorker
	// Slice-merge fast path:
	slice int
	asmIn chan sliceBatch
	// Supervised-restart accounting (Config.Recovery; see recover.go).
	// emitted counts items accepted into the batcher; emittedSnap is the
	// count at the last runner-local snapshot; skip arms the replay
	// suppression after a restart: the tap drops exactly emitted -
	// emittedSnap replayed items, which by chain determinism are the items
	// the merge layer already received. All three are runner-owned.
	emitted     uint64
	emittedSnap uint64
	skip        uint64
}

// replica is one chain copy with its session and feed edge. All fields
// except feed are owned by the runner goroutine once the executor starts;
// res and err are published to the driver by the runner's exit
// (sync.WaitGroup) or a barrier acknowledgement, and the first error is
// additionally published through Executor.noteErr so the driver observes it
// mid-run.
type replica struct {
	idx  int
	sp   *plan.StateSlicePlan
	sess *engine.Session
	feed chan feedMsg
	out  []*outEdge // per-query (or per-slice) result edges, runner-owned
	res  *engine.Result
	err  error
	// shipped records that a slice tap sent a full slab since the last
	// flush, so a flush with nothing left to send still marks its end for
	// the assembler (flushResults). Runner-owned.
	shipped bool

	// meterBase banks the cost meters of sessions retired by a rebalance
	// rebuild, so Finish aggregates the whole run and the per-replica
	// probe counts stay cumulative across a move. Runner-owned mid-run;
	// the runner's exit (runWG) orders it before Finish's read.
	meterBase operator.CostMeter

	// Supervised-restart state (Config.Recovery; see recover.go), all
	// runner-owned: the last runner-local snapshot (nil = the empty initial
	// chain), the replay ring of feed slabs delivered since it, the
	// snapshot cadence counter, and the degraded flag set when a
	// post-restructure snapshot fails (the replica then falls back to
	// fail-fast).
	snapCp    *plan.ChainCheckpoint
	ring      [][]stream.Item
	sinceSnap int
	norecover bool
}

// merger merges one query's per-shard result streams in (Time, Seq) order,
// feeding the query's sink. Each merger is owned by exactly one merge
// worker; mergers owned by different workers run concurrently.
type merger struct {
	mg   *kmerge
	sink *operator.Sink
}

// mergeWorker drains the tagged result batches of a disjoint subset of the
// query mergers on its own goroutine.
type mergeWorker struct {
	in chan taggedBatch
	// mergers owned by this worker. The driver appends here (at New and on
	// every Attach) and the worker goroutine reads the slice only after in
	// is closed — the close orders every prior append before the read, so
	// no lock is needed.
	mergers []*merger
}

// Executor drives P chain replicas and their cross-replica merge layer.
// Driver calls (Feed, Consume, Drain, Migrate, Attach, Detach, Finish) are
// serialized on one driver-gate mutex, and Close may be called from any
// goroutine at any time: it cancels the executor context first — which
// in-flight Consume loops, barrier waits and blocked feed sends observe and
// release the gate on — then runs the ordered teardown under the gate.
type Executor struct {
	cfg  Config
	part Partitioner
	// rpart replaces the hash partitioner under band partitioning
	// (Config.Band); nil otherwise.
	rpart    *RangePartitioner
	replicas []*replica
	// mon is the load monitor feeding adaptive rebalancing (nil for a
	// single shard); driver-owned, updated inline on the feed path.
	mon *loadMonitor
	// sup supervises replica restarts (nil without Config.Recovery);
	// buildFn is the replica factory, retained so a restart before the
	// first snapshot can rebuild from scratch.
	sup     *rec.Supervisor
	buildFn func(shard int) (*plan.StateSlicePlan, error)
	// Query-level merge path (nil under SliceMerge): per-query mergers,
	// merger qi owned by merge worker qi % len(mergeWorkers).
	mergers      []*merger
	mergeWorkers []*mergeWorker
	// Slice-level merge path (nil otherwise).
	asm   *assembler
	feedB []stream.Batcher // per-shard feed batchers, driver-owned
	// free recycles consumed result slabs from the merge layer back to the
	// replica taps; a channel-based free list stays allocation-free where
	// a sync.Pool would box every slice header.
	free    chan []stream.Item
	runWG   sync.WaitGroup
	mergeWG sync.WaitGroup

	// failed flags that a replica has published a failure; the per-tuple
	// hot path (Feed) checks only this single atomic load and takes errMu
	// — which guards asyncErr, the first such failure — exclusively on
	// the rare failure branch.
	failed   atomic.Bool
	errMu    sync.Mutex
	asyncErr error

	// ctx bounds the run: derived from Config.Ctx (or Background) with a
	// cancel cause, cancelled by Close with fault.ErrClosed. closing
	// mirrors ctx.Done as one atomic load for the per-tuple hot path
	// (context.AfterFunc sets it, so a parent cancellation is observed
	// without a per-tuple channel poll).
	ctx     context.Context
	cancel  context.CancelCauseFunc
	ctxDone <-chan struct{}
	closing atomic.Bool
	// feedBlocked is set while the driver blocks on a full feed channel:
	// no other shard gets a slab until that one drains, so the runners
	// park instead of polling (nextFeed).
	feedBlocked atomic.Bool

	// mu is the driver gate: every driver call and Close's teardown take
	// it, so channel closes can never race channel sends. Fields below it
	// are driver state, only touched with mu held.
	mu         sync.Mutex
	fed        int
	repFed     int
	sincePunct int
	lastTime   stream.Time
	start      time.Time
	finished   bool
	torn       bool
	err        error

	// Close's single-shot rendezvous: the first Close wins closeStarted,
	// runs the teardown on its own goroutine (so a stuck replica cannot
	// wedge Close past its context), stores closeErr, then closes
	// closeDone — the store is ordered before every reader's receive.
	closeStarted atomic.Bool
	closeDone    chan struct{}
	closeErr     error
}

// New builds the replicas via the factory (called once per shard; every
// call must produce an identical chain over the same workload), wires the
// merge layer and starts the shard and assembly goroutines. The executor is
// ready to Feed on return. All configuration errors — including slice-merge
// windows that do not align with the chain's boundaries — surface here,
// before any goroutine starts.
func New(cfg Config, build func(shard int) (*plan.StateSlicePlan, error)) (*Executor, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.PunctEvery == 0 {
		cfg.PunctEvery = DefaultPunctEvery
	}
	if cfg.Name == "" {
		cfg.Name = "state-slice(sharded)"
	}
	if cfg.Recovery != nil && cfg.RestoreFn == nil {
		return nil, errors.New("shard: Recovery requires Config.RestoreFn to rebuild replicas from their checkpoints")
	}
	if cfg.Rebalance != nil {
		if cfg.RestoreFn == nil {
			return nil, errors.New("shard: Rebalance requires Config.RestoreFn to rebuild replicas from redistributed checkpoints")
		}
		p := cfg.Rebalance.withDefaults()
		cfg.Rebalance = &p
	}
	if cfg.Restore != nil {
		if err := validateRestore(cfg, cfg.Restore); err != nil {
			return nil, err
		}
	}
	e := &Executor{
		cfg:       cfg,
		part:      NewPartitioner(cfg.Shards),
		feedB:     make([]stream.Batcher, cfg.Shards),
		start:     time.Now(),
		closeDone: make(chan struct{}),
		buildFn:   build,
	}
	if cfg.Recovery != nil {
		e.sup = rec.NewSupervisor(*cfg.Recovery, cfg.Shards)
	}
	parent := cfg.Ctx
	if parent == nil {
		parent = context.Background()
	}
	e.ctx, e.cancel = context.WithCancelCause(parent)
	e.ctxDone = e.ctx.Done()
	context.AfterFunc(e.ctx, func() { e.closing.Store(true) })
	if cfg.Band != nil {
		rp, err := NewRangePartitioner(cfg.Shards, *cfg.Band)
		if err != nil {
			return nil, err
		}
		e.rpart = &rp
	}
	if cfg.Shards > 1 {
		e.mon = newLoadMonitor(cfg.Shards, cfg.Band)
	}
	if cfg.Restore != nil {
		// Re-install the snapshot's learned ownership cuts: the restored
		// replicas hold state partitioned by them, so resuming on the
		// fixed split would route keys onto shards that do not own their
		// state.
		if cuts := cfg.Restore.BandCuts; cuts != nil && (e.rpart == nil || !e.rpart.SetCuts(cuts)) {
			return nil, fmt.Errorf("shard: restore: checkpoint band cuts %v are invalid for this partitioning", cuts)
		}
		if cuts := cfg.Restore.HashCuts; cuts != nil && (e.rpart != nil || !e.part.SetCuts(cuts)) {
			return nil, fmt.Errorf("shard: restore: checkpoint hash cuts %v are invalid for this partitioning", cuts)
		}
	}
	queries := -1
	for i := 0; i < cfg.Shards; i++ {
		var sp *plan.StateSlicePlan
		var err error
		if cfg.Restore != nil {
			sp, err = cfg.RestoreFn(i, cfg.Restore.Replicas[i])
		} else {
			sp, err = build(i)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if n := len(sp.Plan.Sinks); queries == -1 {
			queries = n
		} else if n != queries {
			return nil, fmt.Errorf("shard: replica %d has %d queries, replica 0 has %d", i, n, queries)
		}
		sess, err := engine.NewSession(sp.Plan, engine.Config{
			BatchSize:   cfg.BatchSize,
			SampleEvery: cfg.SampleEvery,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r := &replica{
			idx:  i,
			sp:   sp,
			sess: sess,
			feed: make(chan feedMsg, feedBuf),
		}
		if cfg.Restore != nil {
			snap := cfg.Restore.Replicas[i]
			if err := sess.SeedFrontier(snap.Fed, snap.LastTime); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			// The restore point doubles as the replica's first runner-local
			// snapshot, so an early crash restores from it instead of
			// replaying the whole pre-checkpoint stream it never saw.
			r.snapCp = snap
		}
		e.replicas = append(e.replicas, r)
	}
	if cfg.Restore != nil {
		e.fed = cfg.Restore.Fed
		e.repFed = cfg.Restore.RepFed
		e.sincePunct = cfg.Restore.SincePunct
		e.lastTime = cfg.Restore.LastTime
	}
	if cfg.SliceMerge {
		if len(cfg.Windows) != queries {
			return nil, fmt.Errorf("shard: SliceMerge needs the %d query windows, got %d", queries, len(cfg.Windows))
		}
		if err := ValidateSliceMergeWindows(e.replicas[0].sp.Ends(), cfg.Windows); err != nil {
			return nil, err
		}
	}

	// Sized past the slabs that can be in flight at once (every merge
	// channel, every batcher and every feed edge), so recycling rarely
	// misses.
	e.free = make(chan []stream.Item, (chanBuf+2)*queries+4*chanBuf+(feedBuf+2)*cfg.Shards)

	if cfg.SliceMerge {
		e.asm = newAssembler(cfg.Shards, e.replicas[0].sp.Ends(), cfg.Windows, e.free, cfg, e.noteErr)
	} else {
		// One merge worker per founding query, so every query's merger
		// runs concurrently; admitted queries share them round-robin.
		e.mergeWorkers = make([]*mergeWorker, queries)
		for qi := range e.mergeWorkers {
			e.mergeWorkers[qi] = &mergeWorker{in: make(chan taggedBatch, chanBuf)}
			e.registerMerger(e.newMerger(qi, fmt.Sprintf("Q%d", qi+1)), e.mergeWorkers[qi])
		}
	}

	// Tap every replica's output streams — results and punctuations —
	// into the runner-owned batchers, shipping every full slab to the
	// merge layer immediately so a result-heavy drain never grows a batch
	// past the slab size (the send may block on merge backpressure, which
	// is the intended flow control). Punctuations are demoted one tick to
	// a strict frontier (see the package docs); MaxTime passes through so
	// Finish still flushes the merge.
	//
	// On the slice-merge path the taps sit on the raw slice result ports
	// and route every slice to the assembler; on
	// the query-level path, union-terminated queries hand their output
	// port to the tap outright (the replica's relay sink hop disappears;
	// migrations rewire union inputs, never the output), while
	// direct-wired terminals keep their sink in tap-only mode because the
	// terminal port may be shared between queries.
	//
	// Under band partitioning every tap additionally applies the owner
	// rule before batching: a joined result survives only on the shard
	// owning the probing male's key, so the boundary duplicates that
	// replication creates never reach the merge (band.go). Punctuations
	// always pass — duplicate-male punctuation only advances frontiers.
	for _, r := range e.replicas {
		if cfg.SliceMerge {
			for si, j := range r.sp.Slices() {
				o := &outEdge{b: new(stream.Batcher), slice: si, asmIn: e.asm.in}
				r.out = append(r.out, o)
				e.attachSliceTap(r, j, o)
			}
			continue
		}
		for qi, sink := range r.sp.Plan.Sinks {
			r.out = append(r.out, e.tapQuery(r, r.sp.QueryUnion(qi), sink, e.mergers[qi], e.mergeWorkers[qi]))
		}
	}

	for _, r := range e.replicas {
		e.runWG.Add(1)
		go e.runReplica(r)
	}
	if e.asm != nil {
		e.asm.start()
	}
	for _, w := range e.mergeWorkers {
		e.mergeWG.Add(1)
		go e.runMergeWorker(w)
	}
	return e, nil
}

// foreignFn returns the band owner-rule predicate for a shard — a result
// survives only on the shard owning the probing male's key — or nil under
// hash partitioning, where no tuple is ever replicated.
func (e *Executor) foreignFn(shardIdx int) func(*stream.Tuple) bool {
	if e.rpart == nil {
		return nil
	}
	rp := e.rpart
	return func(t *stream.Tuple) bool { return rp.Owner(bandOwnerKey(t)) != shardIdx }
}

// tapQuery wires one query terminal on replica r into the merge layer and
// returns its output edge. Union-terminated queries hand their output port
// to the tap outright (the replica's relay sink hop disappears; migrations
// and admissions rewire union inputs, never the output), while direct-wired
// terminals keep their sink in tap-only mode because the terminal port may
// be shared between queries. Punctuations are demoted one tick to a strict
// frontier (MaxTime passes so Finish — and a detach flush — still complete
// the merge); under band partitioning the owner rule drops boundary
// duplicates before batching.
func (e *Executor) tapQuery(r *replica, u *operator.Union, sink *operator.Sink, m *merger, mw *mergeWorker) *outEdge {
	o := &outEdge{b: new(stream.Batcher), m: m, mw: mw}
	e.attachQueryTap(r, u, sink, o)
	return o
}

// attachQueryTap (re)wires one query output of replica r's current chain
// into edge o. Without supervision the tap is the plain two-branch closure
// the hot path has always run; with supervision it additionally maintains
// the edge's emitted count and drops the armed replay-suppression prefix
// after a restart (see recover.go).
func (e *Executor) attachQueryTap(r *replica, u *operator.Union, sink *operator.Sink, o *outEdge) {
	shardIdx := r.idx
	foreign := e.foreignFn(shardIdx)
	var tap func(stream.Item)
	if e.sup == nil {
		tap = func(it stream.Item) {
			if it.IsPunct() {
				if it.Punct < stream.MaxTime {
					it.Punct--
				}
			} else if foreign != nil && foreign(it.Tuple) {
				return
			}
			o.b.Add(it)
			if o.b.Full() {
				o.mw.in <- taggedBatch{m: o.m, shard: shardIdx, items: o.b.TakeWith(e.getSlab())}
			}
		}
	} else {
		tap = func(it stream.Item) {
			if it.IsPunct() {
				if it.Punct < stream.MaxTime {
					it.Punct--
				}
			} else if foreign != nil && foreign(it.Tuple) {
				return
			}
			if o.skip > 0 {
				o.skip--
				return
			}
			o.emitted++
			o.b.Add(it)
			if o.b.Full() {
				o.mw.in <- taggedBatch{m: o.m, shard: shardIdx, items: o.b.TakeWith(e.getSlab())}
			}
		}
	}
	if u != nil {
		u.Out().DetachAll()
		u.Out().AttachFunc(tap)
	} else {
		sink.OnItem(tap).TapOnly()
	}
}

// attachSliceTap (re)wires one raw slice result port of replica r's current
// chain into edge o — the slice-merge counterpart of attachQueryTap, with
// the same plain/counting split.
func (e *Executor) attachSliceTap(r *replica, j *operator.SlicedBinaryJoin, o *outEdge) {
	shardIdx := r.idx
	foreign := e.foreignFn(shardIdx)
	if e.sup == nil {
		j.Result().AttachFunc(func(it stream.Item) {
			if it.IsPunct() {
				if it.Punct < stream.MaxTime {
					it.Punct--
				}
			} else if foreign != nil && foreign(it.Tuple) {
				return
			}
			o.b.Add(it)
			if o.b.Full() {
				o.asmIn <- sliceBatch{slice: o.slice, shard: shardIdx, items: o.b.TakeWith(e.getSlab())}
				r.shipped = true
			}
		})
		return
	}
	j.Result().AttachFunc(func(it stream.Item) {
		if it.IsPunct() {
			if it.Punct < stream.MaxTime {
				it.Punct--
			}
		} else if foreign != nil && foreign(it.Tuple) {
			return
		}
		if o.skip > 0 {
			o.skip--
			return
		}
		o.emitted++
		o.b.Add(it)
		if o.b.Full() {
			o.asmIn <- sliceBatch{slice: o.slice, shard: shardIdx, items: o.b.TakeWith(e.getSlab())}
			r.shipped = true
		}
	})
}

// newMerger builds one query merger — sink, k-way merge, collection and
// result-handler wiring — for query slot qi.
func (e *Executor) newMerger(qi int, name string) *merger {
	m := &merger{sink: operator.NewDirectSink(name)}
	m.mg = newKmerge(e.cfg.Shards, m.sink.AcceptRun, e.free)
	if e.cfg.Collect {
		m.sink.Collecting()
	}
	if h := e.cfg.OnResult; h != nil {
		slot := qi
		m.sink.OnResult(func(t *stream.Tuple) { h(slot, t) })
	}
	return m
}

// registerMerger records a merger in the driver-owned registry and hands
// it to worker mw. Driver-only (New and Attach); the worker goroutine reads
// its merger list only after its channel closes.
func (e *Executor) registerMerger(m *merger, mw *mergeWorker) {
	e.mergers = append(e.mergers, m)
	mw.mergers = append(mw.mergers, m)
}

// Shards returns the replica count.
func (e *Executor) Shards() int { return e.cfg.Shards }

// ReplicatedFeeds returns the total number of per-replica tuple deliveries
// so far: equal to the fed tuple count under hash partitioning, and inflated
// by the boundary replication factor (roughly 1 + 2*Width/RangeWidth for
// uniform keys) under band partitioning. The bench harness records it so
// feed-volume inflation is visible next to the probe-comparison savings.
func (e *Executor) ReplicatedFeeds() int { return e.repFed }

// noteErr publishes the first replica failure so the driver observes it on
// the next Feed, Consume, Migrate or Finish call instead of the run
// silently looking clean.
func (e *Executor) noteErr(err error) {
	e.errMu.Lock()
	if e.asyncErr == nil {
		e.asyncErr = err
	}
	e.errMu.Unlock()
	e.failed.Store(true)
}

// pendingErr returns the first published replica failure, if any. The
// no-failure fast path is a single atomic load, so checking it per fed
// tuple costs the hot path nothing.
func (e *Executor) pendingErr() error {
	if !e.failed.Load() {
		return nil
	}
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.asyncErr
}

// runReplica is the shard goroutine: it feeds its session from the slab
// channel, applies barrier commands, and finishes the session when the
// channel closes. The first error — a session error or a contained panic —
// fails the replica permanently (later slabs are drained but not fed, so no
// sender ever blocks on a dead consumer) and is published to the driver.
func (e *Executor) runReplica(r *replica) {
	defer e.runWG.Done()
	poll := false
	for {
		msg, ok := e.nextFeed(r, poll)
		if !ok {
			break
		}
		poll = msg.ctl == nil
		if msg.ctl != nil {
			msg.ctl.ack <- e.applyCtl(r, msg.ctl)
			continue
		}
		// The closing check makes mid-stream teardown event-driven: once
		// Close (or a context cancellation, or a fail-fast abort) lands,
		// buffered slabs are drained but not fed — an aborted run never
		// reports results as complete, so feeding up to (feedBuf+1)*feedSlab
		// inputs through the whole chain would only buy teardown latency.
		recorded := false
		if r.err == nil && !e.closing.Load() {
			if recorded = e.recoveryArmed(r); recorded {
				e.recordSlab(r, msg.items)
			}
			if err := e.feedReplica(r, msg.items); err != nil {
				if !e.recoverReplica(r, err) {
					r.err = err
					e.noteErr(err)
				}
			} else {
				e.maybeSnapshot(r)
			}
		}
		if !recorded {
			// The session keeps the tuples, never the slab; only the
			// replay ring aliases feed slabs.
			recycleSlab(e.free, msg.items)
		}
		e.flushResults(r)
	}
	if r.err == nil {
		if e.closing.Load() {
			// Aborted run: mark the session closed so Finish skips the
			// final MaxTime flush — the merge layer is being torn down,
			// not completed, and abort latency should not pay for a full
			// result flush. The ErrClosed echo on the replica's Result is
			// the abort itself, not a fault, so it is not published.
			r.sess.Close(context.Background())
		}
		res, err := e.finishReplica(r)
		r.res = res
		if err != nil && !errors.Is(err, fault.ErrClosed) {
			r.err = err
			e.noteErr(err)
		}
	}
	e.flushResults(r)
}

// feedReplica feeds one slab into the replica's session, containing a panic
// — an injected hook, or a failure the engine's own containment cannot see
// — into a classified replica error instead of crashing the process.
func (e *Executor) feedReplica(r *replica, items []stream.Item) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("shard: %w", fault.Capture("replica runner", r.idx, v))
		}
	}()
	for _, it := range items {
		if it.IsPunct() {
			err = r.sess.FeedPunct(it.Punct)
		} else {
			if err = fault.Fire(fault.ReplicaFeed, r.idx); err == nil {
				err = r.sess.Feed(it.Tuple)
			}
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", r.idx, err)
		}
	}
	return nil
}

// finishReplica finishes the replica's session inside a containment
// boundary: the final flush runs the whole operator graph and every sink
// callback one last time, and a panic there must fail the replica, not the
// process. A non-nil Result.Err (the engine's own contained failure) is
// surfaced the same way.
func (e *Executor) finishReplica(r *replica) (res *engine.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("shard: %w", fault.Capture("replica finish", r.idx, v))
		}
	}()
	res = r.sess.Finish()
	if res.Err != nil {
		return res, fmt.Errorf("shard %d: %w", r.idx, res.Err)
	}
	return res, nil
}

// applyCtl executes one barrier command on the runner goroutine: all slabs
// sent before it have been fed, so a migration or admission happens at the
// same global stream position on every replica. Plain errors (validation
// rejections, which fail identically on every replica before any mutation)
// are returned to the driver without failing the replica, as before; a
// contained panic, by contrast, may have left the chain half-restructured,
// so it fails the replica permanently and is published.
func (e *Executor) applyCtl(r *replica, c *ctl) (err error) {
	if r.err != nil {
		return r.err
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("shard: %w", fault.Capture("replica barrier", r.idx, v))
			r.err = err
			e.noteErr(err)
		}
		e.flushResults(r)
	}()
	if err := fault.Fire(fault.BarrierApply, r.idx); err != nil {
		return fmt.Errorf("shard %d: %w", r.idx, err)
	}
	switch {
	case c.attach != nil:
		err = e.applyAttach(r, c.attach)
	case c.detach != nil:
		err = r.sp.Detach(r.sess, *c.detach)
	case c.target != nil:
		if e.asm != nil {
			err = errors.New("shard: the slice-merge fast path does not support migration; build the executor without SliceMerge")
		} else {
			err = r.sp.MigrateTo(r.sess, c.target)
		}
	case c.rebuild != nil:
		if err = e.applyRebuild(r, c.rebuild[r.idx]); err != nil {
			// Ownership was re-cut on the driver before this barrier; a
			// replica that could not adopt its share is corrupt, so the
			// error is replica-fatal (unlike other barrier rejections).
			r.err = err
			e.noteErr(err)
		}
	case c.snap != nil:
		var cp *plan.ChainCheckpoint
		if cp, err = r.sp.Checkpoint(r.sess); err == nil {
			c.snap[r.idx] = cp
			if e.recoveryArmed(r) {
				// A driver checkpoint is a fresh restart point for free:
				// adopt it so the replay ring resets here too.
				e.adoptSnapshot(r, cp)
			}
		}
	default:
		r.sess.Drain()
		err = r.sess.Err()
	}
	if err == nil && (c.attach != nil || c.detach != nil || c.target != nil) {
		// The chain's shape changed; the old snapshot and ring cannot
		// reproduce the restructure, so refresh the restart point (or
		// degrade this replica to fail-fast if that is impossible).
		e.refreshSnapshot(r)
	}
	return err
}

// applyAttach admits the query on one replica and taps its fresh union into
// the merger the driver built for it. Runs on the runner goroutine, so the
// append to the runner-owned edge list is race-free.
func (e *Executor) applyAttach(r *replica, c *attachCmd) error {
	qi, err := r.sp.Attach(r.sess, c.q)
	if err != nil {
		return fmt.Errorf("shard %d: %w", r.idx, err)
	}
	if qi != c.qi {
		return fmt.Errorf("shard %d: attach produced query slot %d, expected %d (replicas diverged)", r.idx, qi, c.qi)
	}
	r.out = append(r.out, e.tapQuery(r, r.sp.QueryUnion(qi), r.sp.Sinks()[qi], c.m, c.mw))
	return nil
}

// nextFeed returns the runner's next feed message, or false once the feed
// channel is closed. With poll set (the runner's last message was a slab)
// it polls an empty channel for up to feedPoll, yielding the processor
// between polls, before it parks. It parks at once after a barrier, which
// holds the driver until every runner acks and often ends a feed phase
// (Drain), and while the driver is blocked on a full feed channel
// (feedBlocked), which is where a saturated executor's runners wait: no
// slab is due then, so polling would only take CPU from the replicas and
// the merge layer that still have work.
func (e *Executor) nextFeed(r *replica, poll bool) (feedMsg, bool) {
	if poll {
		for deadline := time.Now().Add(feedPoll); !e.feedBlocked.Load() && time.Now().Before(deadline); {
			select {
			case msg, ok := <-r.feed:
				return msg, ok
			default:
			}
			runtime.Gosched()
		}
	}
	msg, ok := <-r.feed
	return msg, ok
}

// flushResults ships every non-empty output slab to the merge layer
// (the merge workers, or the assembler on the fast path). Empty
// batchers are skipped before drawing a spare from the free list —
// TakeWith discards the spare when there is nothing to seal, which would
// bleed a recycled slab per idle output per flush.
//
// On the fast path the flush's last slab is marked, and the assembler
// steps its union once per marked slab instead of once per slab. When
// every slab of the flush already left mid-step (a tap ships full slabs
// as they fill), an empty marked slab ends the flush instead, so what the
// flush pushed still reaches the sinks before the next flush arrives.
func (e *Executor) flushResults(r *replica) {
	last := -1
	for i, o := range r.out {
		if o.b.Len() > 0 {
			last = i
		}
	}
	for i, o := range r.out[:last+1] {
		if o.b.Len() == 0 {
			continue
		}
		items := o.b.TakeWith(e.getSlab())
		if o.asmIn != nil {
			o.asmIn <- sliceBatch{slice: o.slice, shard: r.idx, items: items, last: i == last}
		} else {
			o.mw.in <- taggedBatch{m: o.m, shard: r.idx, items: items}
		}
	}
	if last < 0 && r.shipped {
		e.asm.in <- sliceBatch{shard: r.idx, last: true}
	}
	r.shipped = false
}

// getSlab pops a recycled slab from the free list, or allocates a
// full-capacity one when none is available (an empty spare would make the
// next batch regrow through every append doubling).
func (e *Executor) getSlab() []stream.Item { return getSlab(e.free) }

// getSlab pops a recycled slab from the free list, or allocates one.
func getSlab(free chan []stream.Item) []stream.Item {
	select {
	case s := <-free:
		return s
	default:
		return make([]stream.Item, 0, stream.SlabCap)
	}
}

// recycleSlab clears a fully-consumed slab and offers it back to the free
// list, dropping it when the list is full or when it is smaller than a
// full slab (an empty flush marker, or a batcher's first slab grown by
// append), which would make its next user regrow it.
func recycleSlab(free chan []stream.Item, slab []stream.Item) {
	if cap(slab) < stream.SlabCap {
		return
	}
	clear(slab)
	select {
	case free <- slab[:0]:
	default:
	}
}

// runMergeWorker drains one worker's share of the query mergers: push each
// slab into its query's per-shard union input and let the merge emit
// everything the punctuation frontiers allow. Mergers of other workers run
// concurrently; a merger itself is only ever touched by its owning worker.
// A contained panic (a merge bug, or a user result handler firing inside
// step) fails the worker: it publishes the fault, then keeps draining and
// recycling incoming slabs so no replica tap ever blocks on it, and skips
// the final merge steps — its mergers' output is already corrupt.
func (e *Executor) runMergeWorker(w *mergeWorker) {
	defer e.mergeWG.Done()
	failed := false
	for tb := range w.in {
		if failed {
			recycleSlab(e.free, tb.items)
			continue
		}
		if err := e.applyMerge(tb); err != nil {
			failed = true
			e.noteErr(err)
		}
	}
	if failed {
		return
	}
	// Safe: the channel close orders every driver append to w.mergers
	// before this read.
	for _, m := range w.mergers {
		m.mg.step()
	}
}

// applyMerge folds one tagged batch into its merger inside the merge
// worker's containment boundary. Sink callbacks (Collect, OnResult) fire
// inside step, so a panicking user handler lands here too.
func (e *Executor) applyMerge(tb taggedBatch) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("shard: %w", fault.Capture("merge worker", tb.shard, v))
		}
	}()
	if err := fault.Fire(fault.MergeApply, tb.shard); err != nil {
		return fmt.Errorf("shard: merge: %w", err)
	}
	tb.m.mg.push(tb.shard, tb.items)
	tb.m.mg.step()
	return nil
}

// usable rejects a driver call on a finished, aborted or failed executor,
// with mu held. The healthy fast path costs two atomic loads (closing,
// failed) plus one non-blocking ctxDone poll per call — the poll makes an
// external cancellation deterministic (the AfterFunc flag alone could lose
// the race against a fast feed loop draining its source). A replica failure
// surfacing here for the first time aborts the run (failLocked), and an
// external cancellation surfacing here unwinds the goroutine tree in place,
// so a session abandoned right after either fail-fast error leaks nothing.
// Close-initiated teardown stays with Close's own goroutine — the surfacing
// call only reports the abort.
func (e *Executor) usable(op string) error {
	if e.finished {
		return fmt.Errorf("shard: %s: %w", op, fault.ErrSessionFinished)
	}
	aborted := e.closing.Load()
	if !aborted {
		select {
		case <-e.ctxDone:
			e.closing.Store(true)
			aborted = true
		default:
		}
	}
	if aborted {
		if e.err != nil {
			return e.err
		}
		if !e.closeStarted.Load() {
			e.teardownLocked()
		}
		return fmt.Errorf("shard: %s: %w", op, e.abortCause())
	}
	if e.err == nil {
		if err := e.pendingErr(); err != nil {
			e.failLocked(err)
		}
	}
	return e.err
}

// failLocked records the first published failure as the driver's sticky
// error and aborts the run in place: the context is cancelled with the
// failure as its cause and the goroutine tree is torn down, so a driver that
// abandons the session right after the fail-fast error leaks nothing. mu
// held; the surfacing call (Feed, Consume, Migrate, …) pays the teardown
// wait once, and every later call returns the sticky error immediately.
func (e *Executor) failLocked(err error) {
	if e.err == nil {
		e.err = err
	}
	e.cancel(err)
	e.closing.Store(true)
	e.teardownLocked()
}

// abortCause reports why the executor was aborted: fault.ErrClosed after
// Close, the context's cancellation cause otherwise.
func (e *Executor) abortCause() error {
	if err := context.Cause(e.ctx); err != nil {
		return err
	}
	return fault.ErrClosed
}

// Feed routes one source tuple to its key's shard — or, under band
// partitioning, to every shard within the band width of its key. Tuples
// must arrive in global timestamp order. A replica failure published since
// the last call surfaces here (and sticks), so a failed run cannot keep
// consuming input silently.
func (e *Executor) Feed(t *stream.Tuple) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.feed(t)
}

// feed is the Feed body, with mu held; Consume calls it directly so the
// feed loop takes the driver gate once per source, not once per tuple.
func (e *Executor) feed(t *stream.Tuple) error {
	if err := e.usable("Feed"); err != nil {
		return err
	}
	if t.Time < e.lastTime {
		return fmt.Errorf("shard: tuple %s after %s: %w", t, e.lastTime, fault.ErrOutOfOrder)
	}
	e.lastTime = t.Time
	if e.rpart != nil {
		lo, hi := e.rpart.Replicas(t.Key)
		// Each replica beyond the first gets its own copy of the tuple:
		// the chain's lineage marker writes Tuple.Level/CondMask in
		// place, so sharing one instance across replica goroutines would
		// race. The snapshot is taken before *any* delivery — once shard
		// lo holds the original, even reading t from this goroutine races
		// with its marker. Copies are value-identical, so every
		// downstream comparison (owner rule, merge order, rendered
		// results) is unaffected.
		var v stream.Tuple
		if hi > lo {
			v = *t
		}
		for s := lo; s <= hi; s++ {
			tc := t
			if s > lo {
				c := v
				tc = &c
			}
			e.enqueue(s, tc)
		}
		e.repFed += hi - lo + 1
		if e.mon != nil {
			e.mon.observe(t.Key, lo, hi)
		}
	} else {
		s := e.part.Shard(t.Key)
		e.enqueue(s, t)
		e.repFed++
		if e.mon != nil {
			e.mon.observe(t.Key, s, s)
		}
	}
	e.fed++
	e.sincePunct++
	if e.cfg.PunctEvery > 0 && e.sincePunct >= e.cfg.PunctEvery && t.Time > 0 {
		e.sincePunct = 0
		e.broadcast(t.Time - 1)
	}
	return e.maybeAutoRebalance()
}

// Consume feeds the executor from a source until it is exhausted, holding
// the driver gate for the whole source. An abort (Close, context done)
// surfaces between tuples through the per-tuple closing check in feed — at
// which point Consume returns and releases the gate, letting Close's
// teardown proceed. A panicking Source is contained into a sticky driver
// error instead of crashing the process.
func (e *Executor) Consume(src stream.Source) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		t, err := e.pull(src)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := e.feed(t); err != nil {
			return err
		}
	}
}

// pull draws one tuple from the source, containing a panicking Source — a
// user-callback boundary — into a sticky driver failure. mu held.
func (e *Executor) pull(src stream.Source) (t *stream.Tuple, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("shard: %w", fault.Capture("source pull", -1, v))
			e.failLocked(err)
			err = e.err
		}
	}()
	t, err = src.Next()
	if err != nil && err != io.EOF {
		err = fmt.Errorf("shard: source: %w", err)
	}
	return t, err
}

// enqueue appends a tuple to shard s's feed slab and sends the slab when
// the shard's feed channel is empty (its replica is idle) or the slab
// reached feedSlab items (see feedSlab).
func (e *Executor) enqueue(s int, t *stream.Tuple) {
	b := &e.feedB[s]
	b.Add(stream.TupleItem(t))
	if b.Len() >= feedSlab || len(e.replicas[s].feed) == 0 {
		e.send(s)
	}
}

// send flushes shard s's pending feed slab, installing a recycled slab as
// the batcher's next. The send releases when the executor context is
// cancelled — a stuck replica must not wedge the driver (or Close's
// teardown) forever; the dropped slab is irrelevant, because an aborted
// run never reports results as complete.
func (e *Executor) send(s int) {
	b := &e.feedB[s]
	if b.Len() == 0 {
		return
	}
	feed := e.replicas[s].feed
	if len(feed) == cap(feed) {
		// The driver is the only sender, so only a full channel blocks.
		e.feedBlocked.Store(true)
		defer e.feedBlocked.Store(false)
	}
	select {
	case feed <- feedMsg{items: b.TakeWith(e.getSlab())}:
	case <-e.ctxDone:
	}
}

// broadcast appends a punctuation to every shard's feed and flushes, so
// even shards that received no tuples learn the global frontier. The
// timestamp is strictly below every future arrival (the last fed time minus
// one tick), keeping the merge's frontiers safe under timestamp ties.
func (e *Executor) broadcast(ts stream.Time) {
	for s := range e.replicas {
		e.feedB[s].Add(stream.PunctItem(ts))
		e.send(s)
	}
}

// barrier flushes all pending slabs, issues the command to every shard and
// waits for every acknowledgement, returning the first error. Both the
// command sends and the acknowledgement waits abandon when the executor
// context is cancelled — that is what makes Close safe to call while an
// Attach or Migrate is blocked here. An abandoned barrier leaves the
// replicas at possibly divergent stream positions (some applied the
// command, some never received it), so it fails the driver permanently; the
// buffered ack channel absorbs every late acknowledgement, so mid-barrier
// runners complete and exit normally during teardown.
func (e *Executor) barrier(c ctl) error {
	acks := make(chan error, len(e.replicas))
	sent := 0
	for i := range e.replicas {
		e.send(i)
		ci := c
		ci.ack = acks
		select {
		case e.replicas[i].feed <- feedMsg{ctl: &ci}:
			sent++
		case <-e.ctxDone:
			return e.abandonBarrier()
		}
	}
	var first error
	for ; sent > 0; sent-- {
		select {
		case err := <-acks:
			if err != nil && first == nil {
				first = err
			}
		case <-e.ctxDone:
			return e.abandonBarrier()
		}
	}
	return first
}

// abandonBarrier records an aborted barrier as a sticky driver error. mu
// held (barrier is only called from driver methods).
func (e *Executor) abandonBarrier() error {
	err := fmt.Errorf("shard: barrier abandoned: %w", e.abortCause())
	if e.err == nil {
		e.err = err
	}
	return err
}

// Drain flushes the pending feed slabs and blocks until every replica has
// quiesced. Results may still be in flight toward the merge layer
// afterwards; only Finish synchronizes it.
func (e *Executor) Drain() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finished || e.closing.Load() {
		return
	}
	if err := e.barrier(ctl{}); err != nil && e.err == nil {
		e.err = err
	}
}

// Migrate re-slices every replica to the target boundary layout at the
// current stream position (all tuples fed so far are processed first; no
// tuple overtakes the migration). It returns the chain's new boundary
// layout.
func (e *Executor) Migrate(to []stream.Time) ([]stream.Time, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.usable("Migrate"); err != nil {
		return nil, err
	}
	if err := e.barrier(ctl{target: to}); err != nil {
		return nil, err
	}
	// Safe: the barrier acknowledgements order every replica mutation
	// before this read.
	return e.replicas[0].sp.Ends(), nil
}

// Attach admits one query on every replica at the current stream position —
// all tuples fed so far are processed first; no later tuple overtakes the
// admission on any shard — and wires a fresh cross-replica merger for it.
// It returns the query's slot index (stable for the executor's lifetime)
// and the chain's boundary layout after the admission, which may have
// gained one boundary from the slice split. The merge-worker pool is fixed
// at construction; the new merger joins an existing worker.
func (e *Executor) Attach(q plan.Query) (int, []stream.Time, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.usable("Attach"); err != nil {
		return 0, nil, err
	}
	if e.asm != nil {
		return 0, nil, errors.New("shard: the slice-merge fast path has a fixed query set; build the plan with WithMigratable to admit queries live")
	}
	qi := len(e.mergers)
	name := q.Name
	if name == "" {
		name = fmt.Sprintf("Q%d", qi+1)
	}
	m := e.newMerger(qi, name)
	mw := e.mergeWorkers[qi%len(e.mergeWorkers)]
	if err := e.barrier(ctl{attach: &attachCmd{q: q, qi: qi, m: m, mw: mw}}); err != nil {
		return 0, nil, err
	}
	e.registerMerger(m, mw)
	return qi, e.replicas[0].sp.Ends(), nil
}

// Detach unsubscribes query slot qi on every replica at the current stream
// position. Each replica's union flushes its residue followed by a MaxTime
// punctuation, which completes the query's cross-replica merge — the
// merger's sink keeps every result delivered before the detach and appears
// as usual in Finish. It returns the chain's boundary layout after the
// detach, which shrinks when trailing slices lost their last subscriber.
func (e *Executor) Detach(qi int) ([]stream.Time, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.usable("Detach"); err != nil {
		return nil, err
	}
	if e.asm != nil {
		return nil, errors.New("shard: the slice-merge fast path has a fixed query set; build the plan with WithMigratable to admit queries live")
	}
	if qi < 0 || qi >= len(e.mergers) {
		return nil, fmt.Errorf("shard: Detach(%d): executor has %d query slots", qi, len(e.mergers))
	}
	if err := e.barrier(ctl{detach: &qi}); err != nil {
		return nil, err
	}
	return e.replicas[0].sp.Ends(), nil
}

// Finish closes the feeds, waits for every replica to flush its final
// punctuation and for the merge layer to drain, and returns the aggregated
// run statistics together with the first replica or driver error — a failed
// replica is an error, never a silently clean-looking run. The memory
// statistics sum the per-replica monitors (replicas sample at their own
// arrival counts, so the sum is an approximation of the instantaneous
// total).
func (e *Executor) Finish() (*engine.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.finished {
		e.finished = true
		e.teardownLocked()
		// Release the executor's registration in the parent context (a
		// no-op when Close or the parent cancelled first — the original
		// cause wins, which the abort classification below relies on).
		e.cancel(fault.ErrSessionFinished)
	}
	res := &engine.Result{
		PlanName:        e.cfg.Name,
		Inputs:          e.fed,
		Wall:            time.Since(e.start),
		VirtualDuration: e.lastTime,
	}
	err := e.err
	if err == nil {
		err = e.pendingErr()
	}
	for _, r := range e.replicas {
		if r.err != nil && err == nil {
			err = r.err
		}
		comp := r.meterBase.Probe
		res.Meter.Add(r.meterBase)
		if r.res != nil {
			comp += r.res.Meter.Probe
			res.Meter.Add(r.res.Meter)
			res.Memory.Samples += r.res.Memory.Samples
			res.Memory.Avg += r.res.Memory.Avg
			res.Memory.Max += r.res.Memory.Max
			res.Memory.Last += r.res.Memory.Last
		}
		res.ReplicaComparisons = append(res.ReplicaComparisons, comp)
	}
	if cause := context.Cause(e.ctx); err == nil && cause != nil && !errors.Is(cause, fault.ErrSessionFinished) {
		// An aborted run must never report its partial statistics as a
		// completed one, even when no replica recorded a fault of its own.
		err = fmt.Errorf("shard: session was aborted before Finish: %w", cause)
	}
	if e.asm != nil {
		e.asm.fold(res)
	}
	for _, m := range e.mergers {
		res.Meter.Add(m.mg.meter)
		res.SinkCounts = append(res.SinkCounts, m.sink.Count())
		res.OrderViolations += m.sink.OrderViolations()
		res.Results = append(res.Results, m.sink.Results())
	}
	if e.sup != nil {
		stats := e.sup.Stats()
		res.Recovery = &stats
	}
	res.Err = err
	return res, err
}

// teardownLocked shuts the goroutine tree down exactly once, with mu held,
// in the one order that cannot deadlock: flush and close every feed channel
// (runners drain them and exit; their result sends keep draining because
// the merge layer is still up), wait for the runners, stop the assembler,
// close the merge-worker channels, wait for the workers. Both Finish and
// Close's teardown goroutine funnel through here — torn makes the second
// caller a no-op, whichever came first.
func (e *Executor) teardownLocked() {
	if e.torn {
		return
	}
	e.torn = true
	for i := range e.replicas {
		e.send(i)
		close(e.replicas[i].feed)
	}
	e.runWG.Wait()
	if e.asm != nil {
		e.asm.stop()
	}
	for _, w := range e.mergeWorkers {
		close(w.in)
	}
	e.mergeWG.Wait()
}

// Close aborts the executor from any goroutine: it cancels the executor
// context — which in-flight Consume loops, barrier waits and blocked feed
// sends observe, releasing the driver gate — then runs the ordered teardown
// under the gate on its own goroutine and waits for it, bounded by ctx. It
// returns the first failure the run recorded (nil for a clean abort), the
// ctx error when the teardown outlives ctx (the teardown keeps unwinding in
// the background — e.g. a replica stuck in a blocking user callback cannot
// be interrupted, only outwaited), and ErrClosed on every later call.
func (e *Executor) Close(ctx context.Context) error {
	if !e.closeStarted.CompareAndSwap(false, true) {
		return fmt.Errorf("shard: Close: %w", fault.ErrClosed)
	}
	e.cancel(fault.ErrClosed)
	e.closing.Store(true)
	go func() {
		e.mu.Lock()
		e.teardownLocked()
		err := e.err
		if err == nil {
			err = e.pendingErr()
		}
		for _, r := range e.replicas {
			if err == nil && r.err != nil {
				err = r.err
			}
		}
		if errors.Is(err, fault.ErrClosed) {
			// The abort's own traces (abandoned barrier, closing checks)
			// are not faults; a clean Close returns nil.
			err = nil
		}
		e.closeErr = err
		e.mu.Unlock()
		close(e.closeDone)
	}()
	select {
	case <-e.closeDone:
		return e.closeErr
	case <-ctx.Done():
		return fmt.Errorf("shard: Close: %w", ctx.Err())
	}
}

// Run is the batch convenience wrapper: consume the source, then Finish.
func (e *Executor) Run(src stream.Source) (*engine.Result, error) {
	if err := e.Consume(src); err != nil {
		e.Finish()
		return nil, err
	}
	return e.Finish()
}

package stateslice_test

// Chaos suite: every fault class the containment layer guards against —
// panicking sinks and result handlers, panicking replicas and merge/assembly
// workers, failing and panicking sources, cancellation mid-stream and
// mid-barrier — injected across the executor matrix (sequential, sharded
// p∈{1,4}) × (query-level merge, slice-merge fast path). Each case asserts
// the fault surfaces as a classified error (errors.Is / errors.As), the
// process survives, the session stays sticky-failed, and every spawned
// goroutine is released. The whole file runs under -race in CI.

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"stateslice"
	"stateslice/internal/fault"
)

// chaosWorkload is unfiltered with distinct windows, so it is eligible for
// every topology in the matrix, including the slice-merge fast path.
func chaosWorkload() stateslice.Workload {
	return stateslice.Workload{
		Queries: []stateslice.Query{
			{Name: "Q1", Window: 2 * stateslice.Second},
			{Name: "Q2", Window: 8 * stateslice.Second},
		},
		Join: stateslice.Equijoin{},
	}
}

func chaosInput(t testing.TB) []*stateslice.Tuple {
	t.Helper()
	input, err := stateslice.Generate(stateslice.GeneratorConfig{
		RateA: 25, RateB: 25, Duration: 20 * stateslice.Second, KeyDomain: 12, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return input
}

// topology is one executor shape of the chaos matrix. WithMigratable forces
// the query-level merge on sharded plans (migratable chains are ineligible
// for the slice-merge fast path), so both merge topologies are exercised
// over the same workload.
type topology struct {
	name    string
	sharded bool
	fast    bool // slice-merge fast path (sharded only)
	opts    []stateslice.Option
}

func chaosTopologies() []topology {
	return []topology{
		{name: "sequential"},
		{name: "shards=1/query-merge", sharded: true,
			opts: []stateslice.Option{stateslice.WithShards(1), stateslice.WithMigratable()}},
		{name: "shards=4/query-merge", sharded: true,
			opts: []stateslice.Option{stateslice.WithShards(4), stateslice.WithMigratable()}},
		{name: "shards=1/slice-merge", sharded: true, fast: true,
			opts: []stateslice.Option{stateslice.WithShards(1)}},
		{name: "shards=4/slice-merge", sharded: true, fast: true,
			opts: []stateslice.Option{stateslice.WithShards(4)}},
	}
}

// runChaos builds the topology's plan with the extra options, drives the
// whole input through a session, and returns the first classified error —
// from Consume or from Finish's Result.Err — plus the Finish result. The
// session is always finished and closed, so a passing test also proves the
// unwind completes (no deadlock) and the partial statistics survive.
func runChaos(t *testing.T, tp topology, input []*stateslice.Tuple, extra ...stateslice.Option) (error, *stateslice.Result) {
	t.Helper()
	p, err := stateslice.Build(chaosWorkload(), stateslice.MemOpt, append(tp.opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	consumeErr := sess.Consume(stateslice.SliceSource(input))
	res := sess.Finish()
	if res == nil {
		t.Fatal("Finish returned no statistics after a fault")
	}
	closeCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sess.Close(closeCtx)
	if consumeErr != nil {
		return consumeErr, res
	}
	return res.Err, res
}

// assertPanicErr asserts err classifies as a *PanicError with a stack and,
// when wantOp is non-empty, the expected containment boundary.
func assertPanicErr(t *testing.T, err error, wantOp string) {
	t.Helper()
	if err == nil {
		t.Fatal("fault never surfaced as an error")
	}
	var pe *stateslice.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not classify as a PanicError", err)
	}
	if wantOp != "" && pe.Op != wantOp {
		t.Errorf("panic contained at %q, want %q", pe.Op, wantOp)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
}

// TestChaosPanicInSink drives a panicking WithSink callback through every
// topology: the panic must be contained into a PanicError instead of
// crashing the process, and the session must fail sticky.
func TestChaosPanicInSink(t *testing.T) {
	input := chaosInput(t)
	for _, tp := range chaosTopologies() {
		t.Run(tp.name, func(t *testing.T) {
			defer assertGoroutinesReleased(t, goroutineBase())
			var emitted atomic.Int64
			sink := stateslice.SinkFunc(func(*stateslice.Tuple) {
				if emitted.Add(1) == 5 {
					panic("chaos: sink blew up")
				}
			})
			err, _ := runChaos(t, tp, input, stateslice.WithSink(0, sink))
			assertPanicErr(t, err, "")
		})
	}
}

// TestChaosPanicInResultHandler is the WithResultHandler variant of the sink
// case, over the sequential and sharded topologies.
func TestChaosPanicInResultHandler(t *testing.T) {
	input := chaosInput(t)
	for _, tp := range chaosTopologies() {
		t.Run(tp.name, func(t *testing.T) {
			defer assertGoroutinesReleased(t, goroutineBase())
			var emitted atomic.Int64
			handler := func(stateslice.QueryID, *stateslice.Tuple) {
				if emitted.Add(1) == 5 {
					panic("chaos: handler blew up")
				}
			}
			err, _ := runChaos(t, tp, input, stateslice.WithResultHandler(handler))
			assertPanicErr(t, err, "")
		})
	}
}

// TestChaosPanicInReplica injects a panic into a replica runner's feed path
// on every sharded topology: the replica must fail — publishing a PanicError
// that names its shard — while the process and the driver survive.
func TestChaosPanicInReplica(t *testing.T) {
	input := chaosInput(t)
	for _, tp := range chaosTopologies() {
		if !tp.sharded {
			continue
		}
		t.Run(tp.name, func(t *testing.T) {
			defer assertGoroutinesReleased(t, goroutineBase())
			var fed atomic.Int64
			restore := fault.Inject(fault.ReplicaFeed, func(int) error {
				if fed.Add(1) == 40 {
					panic("chaos: replica blew up")
				}
				return nil
			})
			defer restore()
			err, _ := runChaos(t, tp, input)
			assertPanicErr(t, err, "replica runner")
			var pe *stateslice.PanicError
			errors.As(err, &pe)
			if pe.Shard < 0 {
				t.Errorf("replica PanicError carries shard %d, want >= 0", pe.Shard)
			}
		})
	}
}

// TestChaosPanicInMergeLayer injects a panic into the merge layer — a merge
// worker on the query-level path, an assembly worker on the slice-merge fast
// path — and asserts the classified containment on each.
func TestChaosPanicInMergeLayer(t *testing.T) {
	input := chaosInput(t)
	for _, tp := range chaosTopologies() {
		if !tp.sharded {
			continue
		}
		t.Run(tp.name, func(t *testing.T) {
			defer assertGoroutinesReleased(t, goroutineBase())
			point, wantOp := fault.MergeApply, "merge worker"
			if tp.fast {
				point, wantOp = fault.AssembleApply, "assembly worker"
			}
			var applied atomic.Int64
			restore := fault.Inject(point, func(int) error {
				if applied.Add(1) == 3 {
					panic("chaos: merge layer blew up")
				}
				return nil
			})
			defer restore()
			err, _ := runChaos(t, tp, input)
			assertPanicErr(t, err, wantOp)
		})
	}
}

// failingSource yields the wrapped tuples, then fails with err.
type failingSource struct {
	tuples []*stateslice.Tuple
	err    error
	i      int
}

func (s *failingSource) Next() (*stateslice.Tuple, error) {
	if s.i >= len(s.tuples) {
		return nil, s.err
	}
	s.i++
	return s.tuples[s.i-1], nil
}

// TestChaosFailingSource pins the user-callback boundary at Source.Next:
// an error return surfaces wrapped (errors.Is-able) from Consume, and a
// panicking source is contained into a PanicError — on every topology.
func TestChaosFailingSource(t *testing.T) {
	input := chaosInput(t)
	broken := errors.New("chaos: source broke")
	for _, tp := range chaosTopologies() {
		t.Run(tp.name+"/error", func(t *testing.T) {
			defer assertGoroutinesReleased(t, goroutineBase())
			p, err := stateslice.Build(chaosWorkload(), stateslice.MemOpt, tp.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := p.NewSession(stateslice.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Consume(&failingSource{tuples: input[:100], err: broken}); !errors.Is(err, broken) {
				t.Fatalf("Consume returned %v, want the source error", err)
			}
			if err := sess.Close(context.Background()); err != nil && !errors.Is(err, broken) {
				t.Fatalf("Close after a source error returned %v", err)
			}
		})
		t.Run(tp.name+"/panic", func(t *testing.T) {
			defer assertGoroutinesReleased(t, goroutineBase())
			p, err := stateslice.Build(chaosWorkload(), stateslice.MemOpt, tp.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := p.NewSession(stateslice.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			src := &failingSource{tuples: input[:100]}
			src.err = nil // Next past the slice panics via nil map below
			consumeErr := sess.Consume(panicSource{inner: src})
			assertPanicErr(t, consumeErr, "source pull")
			res := sess.Finish()
			if res.Err == nil {
				t.Error("Result.Err dropped the contained source panic")
			}
			sess.Close(context.Background())
		})
	}
}

// panicSource panics once its inner source is exhausted.
type panicSource struct{ inner *failingSource }

func (s panicSource) Next() (*stateslice.Tuple, error) {
	t, err := s.inner.Next()
	if err == nil && t != nil {
		return t, nil
	}
	panic("chaos: source blew up")
}

// cancellingSource cancels the bound context after n pulls, then keeps
// yielding — the feed loop, not the source, must stop the run.
type cancellingSource struct {
	tuples []*stateslice.Tuple
	cancel context.CancelFunc
	n, i   int
}

func (s *cancellingSource) Next() (*stateslice.Tuple, error) {
	if s.i == s.n {
		s.cancel()
	}
	if s.i >= len(s.tuples) {
		return nil, io.EOF
	}
	s.i++
	return s.tuples[s.i-1], nil
}

// TestChaosCancelMidStream cancels a WithContext-bound session in the middle
// of Consume on every topology: the feed loop must stop between tuples with
// a context.Canceled-classified error, the session must refuse further
// feeds, and Finish must classify the aborted run on Result.Err.
func TestChaosCancelMidStream(t *testing.T) {
	input := chaosInput(t)
	for _, tp := range chaosTopologies() {
		t.Run(tp.name, func(t *testing.T) {
			defer assertGoroutinesReleased(t, goroutineBase())
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p, err := stateslice.Build(chaosWorkload(), stateslice.MemOpt,
				append(tp.opts, stateslice.WithContext(ctx))...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := p.NewSession(stateslice.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			src := &cancellingSource{tuples: input, cancel: cancel, n: len(input) / 2}
			if err := sess.Consume(src); !errors.Is(err, context.Canceled) {
				t.Fatalf("Consume returned %v, want a context.Canceled-classified abort", err)
			}
			if err := sess.Close(context.Background()); err != nil {
				t.Errorf("Close after a context abort returned %v, want nil (a cancellation is not a fault)", err)
			}
			if err := sess.Feed(input[len(input)-1]); err == nil {
				t.Error("Feed after the abort must fail")
			}
			res := sess.Finish()
			if !errors.Is(res.Err, context.Canceled) && !errors.Is(res.Err, stateslice.ErrClosed) {
				t.Errorf("Result.Err = %v, want the abort classification", res.Err)
			}
		})
	}
}

// TestChaosCloseMidBarrier blocks every replica inside a Migrate barrier,
// Closes the session from another goroutine, and asserts: the in-flight
// Migrate aborts with an ErrClosed-classified error instead of deadlocking,
// Close with a too-short context reports the deadline while the teardown
// keeps unwinding, and once the replicas unblock everything is released and
// a clean Close verdict (no fault) comes back.
func TestChaosCloseMidBarrier(t *testing.T) {
	defer assertGoroutinesReleased(t, goroutineBase())
	input := chaosInput(t)
	p, err := stateslice.Build(chaosWorkload(), stateslice.MemOpt,
		stateslice.WithShards(4), stateslice.WithMigratable())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Consume(stateslice.SliceSource(input[:len(input)/2])); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	restore := fault.Inject(fault.BarrierApply, func(int) error {
		entered <- struct{}{}
		<-release
		return nil
	})
	defer restore()

	migErr := make(chan error, 1)
	go func() { migErr <- p.Migrate([]stateslice.Time{8 * stateslice.Second}) }()
	<-entered // at least one replica is now blocked mid-barrier

	// Close cannot finish while the replicas sit in the blocking hook: it
	// must report the context deadline, not deadlock.
	shortCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err = sess.Close(shortCtx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close against blocked replicas returned %v, want the context deadline", err)
	}

	if err := <-migErr; !errors.Is(err, stateslice.ErrClosed) {
		t.Fatalf("in-flight Migrate returned %v, want an ErrClosed-classified abort", err)
	}
	close(release) // let the replicas finish the barrier and unwind

	// A later Close returns ErrClosed (idempotence), never a second teardown.
	if err := sess.Close(context.Background()); !errors.Is(err, stateslice.ErrClosed) {
		t.Fatalf("second Close returned %v, want ErrClosed", err)
	}
	res := sess.Finish()
	if !errors.Is(res.Err, stateslice.ErrClosed) {
		t.Errorf("Result.Err = %v, want the ErrClosed abort classification", res.Err)
	}
}

// TestChaosCancelMidMigration is the external-cancellation variant of the
// mid-barrier abort: the WithContext context is cancelled while every
// replica is blocked applying a Migrate barrier. The migration must abandon
// with a context.Canceled-classified error, and Close must then report the
// abandoned barrier (an abort mid-restructure leaves the replicas possibly
// diverged — that is a recorded failure, unlike a plain cancellation).
func TestChaosCancelMidMigration(t *testing.T) {
	defer assertGoroutinesReleased(t, goroutineBase())
	input := chaosInput(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := stateslice.Build(chaosWorkload(), stateslice.MemOpt,
		stateslice.WithShards(4), stateslice.WithMigratable(), stateslice.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(stateslice.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Consume(stateslice.SliceSource(input[:len(input)/2])); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	restore := fault.Inject(fault.BarrierApply, func(int) error {
		entered <- struct{}{}
		<-release
		return nil
	})
	defer restore()

	migErr := make(chan error, 1)
	go func() { migErr <- p.Migrate([]stateslice.Time{8 * stateslice.Second}) }()
	<-entered
	cancel()
	if err := <-migErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Migrate returned %v, want a context.Canceled-classified abort", err)
	}
	close(release)
	if err := sess.Close(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after an abandoned barrier returned %v, want the recorded abandonment", err)
	}
}

// TestChaosErrorTaxonomy pins the exported sentinels on their misuse paths,
// so callers can rely on errors.Is across the whole API surface.
func TestChaosErrorTaxonomy(t *testing.T) {
	input := chaosInput(t)
	for _, tp := range []topology{
		{name: "sequential"},
		{name: "sharded", sharded: true, opts: []stateslice.Option{stateslice.WithShards(2)}},
	} {
		t.Run(tp.name, func(t *testing.T) {
			defer assertGoroutinesReleased(t, goroutineBase())
			p, err := stateslice.Build(chaosWorkload(), stateslice.MemOpt, tp.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Migrate([]stateslice.Time{8 * stateslice.Second}); !errors.Is(err, stateslice.ErrNotMigratable) {
				t.Errorf("Migrate on a non-migratable plan: %v, want ErrNotMigratable", err)
			}
			sess, err := p.NewSession(stateslice.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Attach(stateslice.Query{Window: 2 * stateslice.Second}); !errors.Is(err, stateslice.ErrNotMigratable) {
				t.Errorf("Attach on a non-migratable plan: %v, want ErrNotMigratable", err)
			}
			if err := sess.Feed(input[10]); err != nil {
				t.Fatal(err)
			}
			if err := sess.Feed(input[0]); !errors.Is(err, stateslice.ErrOutOfOrder) {
				t.Errorf("out-of-order Feed: %v, want ErrOutOfOrder", err)
			}
			res := sess.Finish()
			if res.Err != nil {
				t.Errorf("an out-of-order rejection must not fail the session: %v", res.Err)
			}
			if err := sess.Feed(input[10]); !errors.Is(err, stateslice.ErrSessionFinished) {
				t.Errorf("Feed after Finish: %v, want ErrSessionFinished", err)
			}
			if err := sess.Close(context.Background()); err != nil && !errors.Is(err, stateslice.ErrSessionFinished) {
				t.Errorf("Close after Finish: %v", err)
			}
		})
	}
	t.Run("migrate-without-session", func(t *testing.T) {
		p, err := stateslice.Build(chaosWorkload(), stateslice.MemOpt, stateslice.WithMigratable())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Migrate([]stateslice.Time{8 * stateslice.Second}); !errors.Is(err, stateslice.ErrNoSession) {
			t.Errorf("Migrate without a session: %v, want ErrNoSession", err)
		}
	})
	t.Run("nil-context-option", func(t *testing.T) {
		if _, err := stateslice.Build(chaosWorkload(), stateslice.MemOpt, stateslice.WithContext(nil)); err == nil {
			t.Error("WithContext(nil) must fail at Build")
		}
	})
}

// skewedChaosInput remaps the chaos feed onto a quadratic key skew so a
// rebalance plan actually moves state (a balanced feed legally no-ops before
// any fault point fires).
func skewedChaosInput(t testing.TB) []*stateslice.Tuple {
	input := chaosInput(t)
	for _, tp := range input {
		tp.Key = (tp.Key * tp.Key) / 12
	}
	return input
}

// TestChaosPanicInRebalanceApply injects a panic into the rebalance rebuild
// on both sharded merge topologies: the fault must surface from Rebalance as
// a PanicError contained at the replica barrier, the session must fail
// sticky, and the teardown must release every goroutine — a crash halfway
// through a state move may leave replicas diverged, so fail-fast is the only
// safe verdict.
func TestChaosPanicInRebalanceApply(t *testing.T) {
	w := bandWorkloadAPI(1)
	input := skewedChaosInput(t)
	for _, tp := range []topology{
		{name: "query-merge", opts: []stateslice.Option{
			stateslice.WithShards(4), stateslice.WithMigratable(), stateslice.WithKeyRange(0, 11)}},
		{name: "slice-merge", opts: []stateslice.Option{
			stateslice.WithShards(4), stateslice.WithKeyRange(0, 11)}},
	} {
		t.Run(tp.name, func(t *testing.T) {
			defer assertGoroutinesReleased(t, goroutineBase())
			restore := fault.Inject(fault.RebalanceApply, func(int) error {
				panic("chaos: rebalance apply blew up")
			})
			defer restore()
			p, err := stateslice.Build(w, stateslice.MemOpt, tp.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := p.NewSession(stateslice.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Consume(stateslice.SliceSource(input[:len(input)/2])); err != nil {
				t.Fatal(err)
			}
			moved, rebErr := sess.Rebalance(context.Background())
			assertPanicErr(t, rebErr, "replica barrier")
			if moved {
				t.Error("Rebalance reported moved state after a failed rebuild")
			}
			if err := sess.Feed(input[len(input)-1]); err == nil {
				t.Error("Feed after a failed rebalance must fail sticky")
			}
			res := sess.Finish()
			if res.Err == nil {
				t.Error("Result.Err dropped the contained rebalance panic")
			}
			sess.Close(context.Background())
		})
	}
}

// TestChaosRecoveryAcrossRebalance crosses WithRecovery with a mid-stream
// Rebalance: a replica crash after the move must restart from a snapshot
// that carries the learned cuts, and a crash healed before the move must not
// spoil the rebalance — byte-identical output either way.
func TestChaosRecoveryAcrossRebalance(t *testing.T) {
	w := bandWorkloadAPI(1)
	input := skewedChaosInput(t)
	ref := sequentialReference(t, w, input)
	run := func(t *testing.T, crashAt int64) {
		defer assertGoroutinesReleased(t, goroutineBase())
		var fed atomic.Int64
		restore := fault.Inject(fault.ReplicaFeed, func(int) error {
			if fed.Add(1) == crashAt {
				panic("chaos: replica crash around a rebalance")
			}
			return nil
		})
		defer restore()
		p, err := stateslice.Build(w, stateslice.MemOpt,
			stateslice.WithShards(4), stateslice.WithKeyRange(0, 11), stateslice.WithCollect(),
			stateslice.WithRecovery(testRestart(6)))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := p.NewSession(stateslice.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close(context.Background())
		third := len(input) / 3
		if err := sess.Consume(stateslice.SliceSource(input[:third])); err != nil {
			t.Fatal(err)
		}
		moved, err := sess.Rebalance(context.Background())
		if err != nil {
			t.Fatalf("Rebalance: %v", err)
		}
		if !moved {
			t.Fatal("Rebalance refused to move state on the skewed feed; the crash interaction is vacuous")
		}
		if err := sess.Consume(stateslice.SliceSource(input[third:])); err != nil {
			t.Fatal(err)
		}
		res := sess.Finish()
		if res.Err != nil {
			t.Fatalf("supervised session error: %v", res.Err)
		}
		if res.Recovery == nil || res.Recovery.Restarts == 0 {
			t.Fatalf("Result.Recovery = %+v, want a healed restart; the crash never fired", res.Recovery)
		}
		if got := renderResults(res.Results); got != ref {
			t.Error("recovered+rebalanced output differs from the sequential engine")
		}
	}
	// The per-replica feed counter passes ~1/8 of the stream to each of the 4
	// replicas' counters combined per consumed tuple pair; the absolute counts
	// below land the crash before and after the 1/3-point rebalance.
	t.Run("crash-before-rebalance", func(t *testing.T) { run(t, 40) })
	t.Run("crash-after-rebalance", func(t *testing.T) { run(t, int64(len(input)/2)) })
}

// Package fault is the failure-semantics vocabulary of the execution stack:
// the typed sentinel errors every misuse path returns (so callers can
// errors.Is instead of matching strings), the PanicError a contained worker
// goroutine publishes instead of crashing the process, and the test-only
// fault-injection registry the chaos suite drives.
//
// The package sits at the bottom of the import DAG — engine, plan, shard
// and the public API all import it — so one taxonomy serves every
// layer and the public package can re-export the sentinels as aliases.
package fault

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sentinel errors of the session lifecycle and the chain's misuse paths.
// They are deliberately context-free: every return site wraps them with
// fmt.Errorf("...: %w", ...) so the message carries the layer and operation
// while errors.Is still matches.
var (
	// ErrSessionFinished: the session was finished (Finish ran) and cannot
	// be fed, drained, migrated or admitted to anymore.
	ErrSessionFinished = errors.New("session already finished")
	// ErrClosed: the session was closed (Close ran); every subsequent
	// operation fails with it, and an aborted run's Result.Err carries it
	// so partial statistics are never mistaken for a completed run.
	ErrClosed = errors.New("session closed")
	// ErrNotQuiescing: the operator graph kept moving items past the
	// scheduler's pass bound — an operator cycle or a misbehaving custom
	// operator. The session is failed rather than the process crashed.
	ErrNotQuiescing = errors.New("plan does not quiesce")
	// ErrOutOfOrder: a fed tuple violated the global timestamp order.
	ErrOutOfOrder = errors.New("tuple out of timestamp order")
	// ErrRestructuring: a migration or admission re-entered the chain while
	// another restructure was in progress (e.g. from a sink callback fired
	// inside a barrier).
	ErrRestructuring = errors.New("chain is already being restructured")
	// ErrNotMigratable: the operation needs a chain built with Migratable
	// (WithMigratable) — migration and live admission reuse that wiring.
	ErrNotMigratable = errors.New("plan was not built as migratable")
	// ErrNoSession: the operation needs an active session driving the plan.
	ErrNoSession = errors.New("no active session drives this plan")
	// ErrNotSharded: the operation (e.g. Rebalance) redistributes state
	// between shard replicas and needs a sharded session (WithShards).
	ErrNotSharded = errors.New("plan was not built with shards")
)

// PanicError is the classified error a recovered worker-goroutine or
// user-callback panic surfaces as: instead of crashing the process, the
// panic is published through the session's first-error machinery and carried
// on Close / Feed / Result.Err. Callers unwrap it with errors.As.
type PanicError struct {
	// Op names the containment boundary that recovered the panic, e.g.
	// "replica feed" or "assembly worker".
	Op string
	// Shard is the replica or worker index the panic occurred on; -1 when
	// the boundary is not sharded (sequential engine, source pull).
	Shard int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error. The stack is not rendered (it can run to
// kilobytes); log it separately from the field when debugging.
func (e *PanicError) Error() string {
	if e.Shard >= 0 {
		return fmt.Sprintf("panic in %s %d: %v", e.Op, e.Shard, e.Value)
	}
	return fmt.Sprintf("panic in %s: %v", e.Op, e.Value)
}

// Capture converts a recovered panic value into a *PanicError, snapshotting
// the current goroutine's stack. Call it from the deferred recover site so
// the stack still contains the panicking frames.
func Capture(op string, shard int, v any) *PanicError {
	buf := make([]byte, 16<<10)
	return &PanicError{Op: op, Shard: shard, Value: v, Stack: buf[:runtime.Stack(buf, false)]}
}

// Point names a fault-injection site in the execution stack. The registry
// generalizes the replica-feed test seam the shard tests grew first: any
// layer can Fire a point on its hot path for the one-atomic-load cost of
// the disarmed check, and the chaos suite Injects hooks that fail or panic
// there.
type Point uint8

const (
	// ReplicaFeed fires before a shard replica runner feeds one tuple into
	// its engine session.
	ReplicaFeed Point = iota
	// MergeApply fires before a merge worker folds one tagged result batch
	// into its query's cross-replica merge.
	MergeApply
	// AssembleApply fires before the assembler folds one slice batch
	// into its slice merge (the slice-merge fast path).
	AssembleApply
	// BarrierApply fires before a replica runner applies one barrier
	// command (drain, migration, attach, detach) — hooks that block here
	// hold the replica mid-barrier, which is how the chaos suite creates
	// an in-flight barrier to Close through.
	BarrierApply
	// RebalanceApply fires before a replica runner rebuilds its chain from
	// a redistributed checkpoint during a rebalance barrier — after
	// BarrierApply, before any state moves. Unlike other barrier commands,
	// an error here fails the replica: ownership has already been re-cut on
	// the driver, so a replica that cannot adopt its share is corrupt.
	RebalanceApply

	numPoints
)

// Hook is an injected fault: it receives the firing shard (or worker)
// index and may return an error — failing the site the way a session error
// would — or panic, exercising the containment path.
type Hook func(shard int) error

var (
	// armed is the disarmed-registry fast path: Fire is called per tuple
	// (ReplicaFeed) and per batch, so outside tests it must cost exactly
	// one atomic load.
	armed atomic.Bool
	mu    sync.Mutex
	hooks [numPoints]Hook
)

// Inject arms a hook at the given point and returns the function that
// removes it again. Test-only; hooks are global, so tests that inject must
// not run in parallel with each other.
func Inject(p Point, h Hook) (restore func()) {
	mu.Lock()
	hooks[p] = h
	armed.Store(true)
	mu.Unlock()
	return func() {
		mu.Lock()
		hooks[p] = nil
		still := false
		for _, h := range hooks {
			if h != nil {
				still = true
			}
		}
		armed.Store(still)
		mu.Unlock()
	}
}

// Fire runs the hook armed at p, if any. The disarmed fast path is a single
// atomic load; hook panics propagate to the caller's containment boundary
// on purpose.
func Fire(p Point, shard int) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	h := hooks[p]
	mu.Unlock()
	if h == nil {
		return nil
	}
	return h(shard)
}

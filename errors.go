package stateslice

import "stateslice/internal/fault"

// Typed error taxonomy of the session lifecycle. Every misuse or failure
// path across the execution stack — the sequential engine, the sharded
// executor, migration and admission — wraps one of these sentinels with
// fmt.Errorf("...: %w", ...), so callers classify failures with errors.Is
// instead of matching message strings:
//
//	if err := sess.Feed(t); errors.Is(err, stateslice.ErrClosed) {
//		return // the session was aborted elsewhere; stop feeding
//	}
//
// Contained crashes — a panicking operator, Source, Sink or result handler,
// or a panic inside a worker goroutine of a sharded plan — surface as a
// *PanicError, matched with errors.As.
var (
	// ErrSessionFinished reports an operation on a session whose Finish
	// already ran: a finished session cannot be fed, drained, migrated or
	// admitted to.
	ErrSessionFinished = fault.ErrSessionFinished
	// ErrClosed reports an operation on a session aborted by Close. It is
	// also the cause carried on Result.Err when Finish runs after Close, so
	// partial statistics are never mistaken for a completed run, and the
	// error of a second Close (Close is idempotent but says so).
	ErrClosed = fault.ErrClosed
	// ErrNotQuiescing reports an operator graph that kept moving items past
	// the scheduler's pass bound — an operator cycle or a misbehaving custom
	// operator. The session fails with it instead of crashing the process.
	ErrNotQuiescing = fault.ErrNotQuiescing
	// ErrOutOfOrder reports a fed tuple that violated the global timestamp
	// order Feed requires.
	ErrOutOfOrder = fault.ErrOutOfOrder
	// ErrRestructuring reports a migration or admission that re-entered the
	// chain while another restructure was in progress (for example from a
	// sink callback fired inside a barrier).
	ErrRestructuring = fault.ErrRestructuring
	// ErrNotMigratable reports a Migrate, Attach or Detach on a plan built
	// without WithMigratable — migration and live admission reuse that
	// wiring.
	ErrNotMigratable = fault.ErrNotMigratable
	// ErrNoSession reports a Plan.Migrate with no active session driving
	// the plan; call NewSession first.
	ErrNoSession = fault.ErrNoSession
	// ErrNotSharded reports a Session.Rebalance on a plan built without
	// WithShards: rebalancing redistributes window state between shard
	// replicas, so there is nothing to rebalance on a sequential session.
	ErrNotSharded = fault.ErrNotSharded
)

// PanicError is the classified error a recovered panic surfaces as: every
// goroutine the executors spawn (shard replica runners, merge workers, the
// assembler) and every user-callback boundary (Source pulls,
// Sink and WithResultHandler callbacks, operator scheduling) recovers panics
// into one of these and publishes it through the session's first-error
// machinery — the session fails, the process survives. Unwrap with
// errors.As:
//
//	var pe *stateslice.PanicError
//	if errors.As(res.Err, &pe) {
//		log.Printf("contained crash in %s (shard %d): %v\n%s",
//			pe.Op, pe.Shard, pe.Value, pe.Stack)
//	}
type PanicError = fault.PanicError

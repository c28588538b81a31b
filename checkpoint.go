package stateslice

import (
	"errors"
	"fmt"

	"stateslice/internal/plan"
	rec "stateslice/internal/recover"
	"stateslice/internal/shard"
)

// Checkpoint is a barrier-consistent snapshot of a running session: the
// per-slice window contents of every chain (or chain replica, for sharded
// sessions), the feed frontiers and the query roster — everything a fresh
// plan built with WithRestore needs to continue the run exactly where the
// snapshot was taken. Take one with Session.Checkpoint; serialize it with
// Bytes and read it back with DecodeCheckpoint.
//
// Predicates are code and never travel in a checkpoint: WithRestore pairs
// the snapshot with the founding workload, which is validated slot-by-slot
// against the snapshot's roster. Queries admitted mid-stream (Attach) are
// always unfiltered and are re-synthesized from the roster alone.
//
// A checkpoint is independent of the session it was taken from — the
// session keeps running unaffected, and the restored plan re-produces only
// results of tuples fed after the restore point.
type Checkpoint struct {
	chain *plan.ChainCheckpoint
	shard *shard.Checkpoint
}

// Restart is the supervised-restart policy WithRecovery installs on a
// sharded plan: a replica that dies with a contained crash (PanicError) is
// rebuilt from its last runner-local checkpoint and fed the missing delta
// from a replay ring, up to MaxRestarts times per replica with exponential
// backoff, instead of failing the session. The merged output stream is
// byte-identical to an uninterrupted run. The zero value selects every
// default; exhausting the budget degrades to the fail-fast teardown.
type Restart = rec.Restart

// RecoveryStats aggregates what supervised restart did during a session:
// successful restarts, replayed feed slabs, exhausted budgets and the
// cumulative rebuild time. Finish carries it on Result.Recovery for sessions
// built with WithRecovery.
type RecoveryStats = rec.Stats

// Sharded reports whether the snapshot was taken from a sharded session
// (WithShards); such a snapshot restores only into a sharded plan with the
// same shard count and partitioning.
func (c *Checkpoint) Sharded() bool { return c.shard != nil }

// Shards returns the shard count the snapshot was taken with (1 for a
// sequential session).
func (c *Checkpoint) Shards() int {
	if c.shard != nil {
		return c.shard.Shards
	}
	return 1
}

// Fed returns how many source tuples had been fed when the snapshot was
// taken.
func (c *Checkpoint) Fed() int {
	if c.shard != nil {
		return c.shard.Fed
	}
	return c.chain.Fed
}

// LastTime returns the timestamp of the latest tuple fed before the
// snapshot.
func (c *Checkpoint) LastTime() Time {
	if c.shard != nil {
		return c.shard.LastTime
	}
	return c.chain.LastTime
}

// StateTuples returns the total number of window-state tuples the snapshot
// holds — its dominant size component.
func (c *Checkpoint) StateTuples() int {
	if c.shard != nil {
		return c.shard.StateTuples()
	}
	return c.chain.StateTuples()
}

// Bytes serializes the checkpoint into the versioned binary blob format
// DecodeCheckpoint reads.
func (c *Checkpoint) Bytes() ([]byte, error) {
	switch {
	case c.shard != nil:
		return c.shard.Encode()
	case c.chain != nil:
		return c.chain.AppendTo(nil)
	default:
		return nil, errors.New("stateslice: empty checkpoint")
	}
}

// DecodeCheckpoint reads a checkpoint blob produced by Bytes, accepting
// both the sequential chain form and the sharded composite form.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) >= 7 && data[6] == plan.KindSharded {
		cp, err := shard.DecodeCheckpoint(data)
		if err != nil {
			return nil, err
		}
		return &Checkpoint{shard: cp}, nil
	}
	cp, rest, err := plan.DecodeChainCheckpoint(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("stateslice: checkpoint blob has %d trailing bytes", len(rest))
	}
	return &Checkpoint{chain: cp}, nil
}

// validateRestoreShape checks WithRestore against the build shape early, so
// a snapshot/plan mismatch fails at Build time with a specific message
// instead of surfacing as a replica error when goroutines start.
func validateRestoreShape(o buildOptions) error {
	cp := o.restore
	if cp.chain == nil && cp.shard == nil {
		return errors.New("stateslice: WithRestore got an empty checkpoint")
	}
	if cp.Sharded() {
		if !o.shardsSet {
			return fmt.Errorf("stateslice: the checkpoint was taken from a sharded session; restore it with WithShards(%d)", cp.Shards())
		}
		if o.shards != cp.Shards() {
			return fmt.Errorf("stateslice: the checkpoint was taken with %d shards but the plan is built with %d — per-replica states are partition-shaped and cannot be re-sharded", cp.Shards(), o.shards)
		}
		return nil
	}
	if o.shardsSet {
		return errors.New("stateslice: the checkpoint was taken from a sequential session and cannot seed sharded replicas; build without WithShards (or checkpoint a sharded session)")
	}
	return nil
}

package shard

import (
	"fmt"
	"time"

	"stateslice/internal/engine"
	"stateslice/internal/fault"
	"stateslice/internal/plan"
	rec "stateslice/internal/recover"
	"stateslice/internal/stream"
)

// Supervised replica restart (Config.Recovery).
//
// Every replica runner keeps two things the fail-fast path never needs: a
// periodic runner-local chain checkpoint, taken between feed slabs every
// SnapshotEvery inputs, and a replay ring of every feed slab delivered since
// that snapshot (the slabs are retained as-is — the runner recycles a feed
// slab only when supervision is off, so the ring is zero-copy). When the replica dies with a contained
// crash (a fault.PanicError), the runner — on its own goroutine, with the
// rest of the executor running undisturbed — asks the supervisor for a
// restart budget, rebuilds the chain from the snapshot, re-taps the new
// chain into the replica's existing output edges and re-feeds the ring.
//
// Replay must not re-deliver results the merge layer already received: the
// chain is deterministic, so the items a replayed input produces on an edge
// are byte-identical to the items the pre-crash run produced. Each edge
// therefore counts the items it has shipped (emitted) and remembers the
// count at snapshot time (emittedSnap); a restart arms skip = emitted -
// emittedSnap and the tap drops exactly that many replayed items before
// resuming normal delivery. The suppression is a pure prefix count — results
// never tie on (Time, Seq) across shards, but within one edge the replayed
// prefix is identical by determinism, which is stronger than any frontier
// comparison. A restart that crashes again re-enters the same loop: emitted
// kept advancing past the suppressed prefix, so the next skip is computed
// against the same snapshot and stays exact.
//
// A successful restructure barrier (migrate, attach, detach) changes the
// chain's shape, and the replay ring cannot re-apply it — the command was
// coordinated by the driver. The runner therefore refreshes its snapshot
// immediately after every restructure; if that snapshot fails, supervision
// is disabled for the replica (norecover) and it degrades to the fail-fast
// path rather than restoring a stale shape. Replay never calls fault.Fire:
// a persistent injection would otherwise kill every restart at the same
// input, turning one chaos probe into an unconditional budget exhaustion.
//
// Barrier, merge and assembly panics stay fail-fast: a half-applied
// restructure or a corrupt merge cannot be healed by rebuilding one replica.

// recoveryArmed reports whether supervised restart is active for r.
func (e *Executor) recoveryArmed(r *replica) bool {
	return e.sup != nil && !r.norecover
}

// recordSlab appends one delivered feed slab to the replay ring and advances
// the snapshot cadence counter. Runner goroutine only.
func (e *Executor) recordSlab(r *replica, items []stream.Item) {
	r.ring = append(r.ring, items)
	r.sinceSnap += len(items)
}

// maybeSnapshot refreshes the runner-local snapshot when the cadence is due.
// A failed periodic snapshot is harmless — the ring keeps growing from the
// last good snapshot, so recovery stays exact, just with a longer replay.
func (e *Executor) maybeSnapshot(r *replica) {
	if !e.recoveryArmed(r) || r.sinceSnap < e.sup.Policy().SnapshotEvery {
		return
	}
	if cp, err := r.sp.Checkpoint(r.sess); err == nil {
		e.adoptSnapshot(r, cp)
	}
}

// adoptSnapshot installs cp as the replica's restart point: the replay ring
// resets and every edge records its emitted count, the baseline the restart
// suppression is computed against.
func (e *Executor) adoptSnapshot(r *replica, cp *plan.ChainCheckpoint) {
	r.snapCp = cp
	r.ring = nil
	r.sinceSnap = 0
	for _, o := range r.out {
		o.emittedSnap = o.emitted
	}
}

// refreshSnapshot re-snapshots after a successful restructure barrier. The
// old snapshot describes a chain shape the ring cannot reproduce, so a
// failure here disables supervision for the replica instead of risking a
// restore into the wrong shape.
func (e *Executor) refreshSnapshot(r *replica) {
	if !e.recoveryArmed(r) {
		return
	}
	cp, err := r.sp.Checkpoint(r.sess)
	if err != nil {
		r.norecover = true
		r.snapCp = nil
		r.ring = nil
		return
	}
	e.adoptSnapshot(r, cp)
}

// recoverReplica attempts supervised restarts until one succeeds, the
// supervisor refuses, or the failure class is not recoverable. It runs on
// the replica's own runner goroutine; the driver and the other replicas keep
// running throughout. Returns true when the replica is healed and caught up.
func (e *Executor) recoverReplica(r *replica, cause error) bool {
	for {
		if !e.recoveryArmed(r) || !rec.Recoverable(cause) {
			return false
		}
		backoff, ok := e.sup.Admit(r.idx)
		if !ok {
			return false
		}
		if backoff > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-e.ctxDone:
				timer.Stop()
				return false
			}
		}
		err := e.restartReplica(r)
		if err == nil {
			return true
		}
		cause = err
	}
}

// restartReplica rebuilds the replica from its last snapshot (or from
// scratch when none was taken yet), re-taps the fresh chain into the
// existing output edges with replay suppression armed, and re-feeds the
// replay ring. Any failure — including a panic during replay — is contained
// and returned so the supervisor loop can charge another attempt.
func (e *Executor) restartReplica(r *replica) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("shard: %w", fault.Capture("replica restart", r.idx, v))
		}
	}()
	start := time.Now()
	var sp *plan.StateSlicePlan
	if r.snapCp != nil {
		sp, err = e.cfg.RestoreFn(r.idx, r.snapCp)
	} else {
		sp, err = e.buildFn(r.idx)
	}
	if err != nil {
		return fmt.Errorf("shard %d: restart rebuild: %w", r.idx, err)
	}
	sess, err := engine.NewSession(sp.Plan, engine.Config{
		BatchSize:   e.cfg.BatchSize,
		SampleEvery: e.cfg.SampleEvery,
	})
	if err != nil {
		return fmt.Errorf("shard %d: restart session: %w", r.idx, err)
	}
	if r.snapCp != nil {
		if err := sess.SeedFrontier(r.snapCp.Fed, r.snapCp.LastTime); err != nil {
			return fmt.Errorf("shard %d: restart: %w", r.idx, err)
		}
	}
	r.sp, r.sess = sp, sess
	for _, o := range r.out {
		o.skip = o.emitted - o.emittedSnap
	}
	e.reattachTaps(r)
	replayed := len(r.ring)
	if err := e.replayRing(r); err != nil {
		return err
	}
	e.sup.RecordRestart(r.idx, replayed, time.Since(start))
	return nil
}

// reattachTaps wires the restarted chain's output ports into the replica's
// existing edges — same batchers, same merge destinations, so the merge
// layer never observes the restart.
func (e *Executor) reattachTaps(r *replica) {
	if e.cfg.SliceMerge {
		for si, j := range r.sp.Slices() {
			e.attachSliceTap(r, j, r.out[si])
		}
		return
	}
	for qi, sink := range r.sp.Plan.Sinks {
		e.attachQueryTap(r, r.sp.QueryUnion(qi), sink, r.out[qi])
	}
}

// replayRing re-feeds every retained slab into the restarted session. Unlike
// the live feed path it never calls fault.Fire — replay heals a crash, it
// does not re-arm the probe that caused it.
func (e *Executor) replayRing(r *replica) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("shard: %w", fault.Capture("replica replay", r.idx, v))
		}
	}()
	for _, items := range r.ring {
		for _, it := range items {
			if it.IsPunct() {
				err = r.sess.FeedPunct(it.Punct)
			} else {
				err = r.sess.Feed(it.Tuple)
			}
			if err != nil {
				return fmt.Errorf("shard %d: replay: %w", r.idx, err)
			}
		}
	}
	return nil
}

// RecoveryStats returns the supervision counters (zero when recovery is not
// configured).
func (e *Executor) RecoveryStats() rec.Stats {
	if e.sup == nil {
		return rec.Stats{}
	}
	return e.sup.Stats()
}

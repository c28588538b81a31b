package shard

import (
	"encoding/binary"
	"fmt"

	"stateslice/internal/plan"
	"stateslice/internal/stream"
)

// Sharded checkpoint: a barrier-consistent snapshot of the whole executor,
// composed from one chain checkpoint per replica plus the driver's own feed
// frontier. The snapshot is taken inside the same flush-command-ack barrier
// migration and admission use, so every replica snapshots at the same global
// stream position and nothing is in flight between the driver and the
// runners.

// ShardedCheckpointVersion is the current blob version for sharded
// composite checkpoints. Version 2 added the learned ownership cuts
// (adaptive rebalancing); version-1 blobs decode with nil cuts — the
// fixed Build-time split, which is what version 1 always ran.
const ShardedCheckpointVersion uint16 = 2

// Checkpoint is a barrier-consistent snapshot of a sharded run: the driver
// feed frontier, the partitioning shape and one chain checkpoint per
// replica. Restore it with Config.Restore on an executor built with the
// same shard count, partitioning and workload.
type Checkpoint struct {
	// Shards is the replica count the snapshot was taken with; restore
	// requires the same count (the per-replica states are partition-shaped).
	Shards int
	// Fed, RepFed, SincePunct and LastTime are the driver's feed frontier:
	// source tuples fed, per-replica deliveries, tuples since the last
	// punctuation broadcast, and the latest fed timestamp.
	Fed        int
	RepFed     int
	SincePunct int
	LastTime   stream.Time
	// Band records the range-partitioning shape, nil under hash
	// partitioning; restore requires an identical configuration.
	Band *Band
	// BandCuts and HashCuts record the learned equi-depth ownership cuts
	// in effect when the snapshot was taken (RangePartitioner.Cuts /
	// Partitioner.Cuts) — the per-replica states are partitioned by them,
	// so restore re-installs them. nil means the fixed Build-time split.
	BandCuts []int64
	HashCuts []uint64
	// Replicas holds one chain snapshot per shard, in shard order.
	Replicas []*plan.ChainCheckpoint
}

// StateTuples returns the total number of window-state tuples across every
// replica — the snapshot's dominant size component.
func (cp *Checkpoint) StateTuples() int {
	n := 0
	for _, r := range cp.Replicas {
		if r != nil {
			n += r.StateTuples()
		}
	}
	return n
}

// Checkpoint takes a barrier-consistent snapshot of the whole executor: the
// pending feed slabs are flushed, every replica drains to quiescence and
// snapshots its chain at the same global stream position, and feeding
// resumes. The executor continues unaffected — the snapshot shares no
// mutable state with the live run.
func (e *Executor) Checkpoint() (*Checkpoint, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.usable("Checkpoint"); err != nil {
		return nil, err
	}
	snap := make([]*plan.ChainCheckpoint, len(e.replicas))
	if err := e.barrier(ctl{snap: snap}); err != nil {
		return nil, err
	}
	for i, cp := range snap {
		if cp == nil {
			return nil, fmt.Errorf("shard: Checkpoint: replica %d produced no snapshot", i)
		}
	}
	cp := &Checkpoint{
		Shards:     e.cfg.Shards,
		Fed:        e.fed,
		RepFed:     e.repFed,
		SincePunct: e.sincePunct,
		LastTime:   e.lastTime,
		Replicas:   snap,
	}
	if e.cfg.Band != nil {
		b := *e.cfg.Band
		cp.Band = &b
	}
	if e.rpart != nil {
		cp.BandCuts = append([]int64(nil), e.rpart.Cuts()...)
	} else {
		cp.HashCuts = append([]uint64(nil), e.part.Cuts()...)
	}
	return cp, nil
}

// validateRestore checks a snapshot against the executor configuration it
// is being restored into. Shape mismatches (shard count, partitioning) are
// configuration errors caught before any goroutine starts.
func validateRestore(cfg Config, cp *Checkpoint) error {
	if cp.Shards != cfg.Shards {
		return fmt.Errorf("shard: restore: checkpoint was taken with %d shards, executor has %d — per-replica states are partition-shaped and cannot be re-sharded", cp.Shards, cfg.Shards)
	}
	if len(cp.Replicas) != cp.Shards {
		return fmt.Errorf("shard: restore: checkpoint has %d replica snapshots for %d shards", len(cp.Replicas), cp.Shards)
	}
	for i, r := range cp.Replicas {
		if r == nil {
			return fmt.Errorf("shard: restore: replica %d snapshot is nil", i)
		}
	}
	switch {
	case cp.Band == nil && cfg.Band != nil:
		return fmt.Errorf("shard: restore: checkpoint was taken under hash partitioning but the executor is band-partitioned")
	case cp.Band != nil && cfg.Band == nil:
		return fmt.Errorf("shard: restore: checkpoint was taken under band partitioning but the executor is hash-partitioned")
	case cp.Band != nil && *cp.Band != *cfg.Band:
		return fmt.Errorf("shard: restore: checkpoint band %+v does not match the executor band %+v", *cp.Band, *cfg.Band)
	}
	switch {
	case cp.BandCuts != nil && cfg.Band == nil:
		return fmt.Errorf("shard: restore: checkpoint carries band ownership cuts but the executor is hash-partitioned")
	case cp.HashCuts != nil && cfg.Band != nil:
		return fmt.Errorf("shard: restore: checkpoint carries hash ownership cuts but the executor is band-partitioned")
	case cp.BandCuts != nil && len(cp.BandCuts) != cp.Shards-1:
		return fmt.Errorf("shard: restore: checkpoint has %d band cuts for %d shards", len(cp.BandCuts), cp.Shards)
	case cp.HashCuts != nil && len(cp.HashCuts) != cp.Shards-1:
		return fmt.Errorf("shard: restore: checkpoint has %d hash cuts for %d shards", len(cp.HashCuts), cp.Shards)
	}
	if cfg.RestoreFn == nil {
		return fmt.Errorf("shard: restore: Config.RestoreFn is required to rebuild replicas from a checkpoint")
	}
	return nil
}

// Encode serializes the sharded checkpoint: a composite header followed by
// the concatenated chain blobs of every replica.
func (cp *Checkpoint) Encode() ([]byte, error) {
	buf := binary.LittleEndian.AppendUint32(nil, plan.CheckpointMagic)
	buf = binary.LittleEndian.AppendUint16(buf, ShardedCheckpointVersion)
	buf = append(buf, plan.KindSharded)
	buf = binary.AppendUvarint(buf, uint64(cp.Shards))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.Fed))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.RepFed))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.SincePunct))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.LastTime))
	if cp.Band != nil {
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.Band.Width))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.Band.MinKey))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.Band.MaxKey))
	} else {
		buf = append(buf, 0)
	}
	// Version 2: the learned ownership cuts (a zero count means the fixed
	// Build-time split was in effect — nil round-trips as nil because both
	// cut vectors are non-empty whenever they are non-nil: len = Shards-1).
	buf = binary.AppendUvarint(buf, uint64(len(cp.BandCuts)))
	for _, c := range cp.BandCuts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	buf = binary.AppendUvarint(buf, uint64(len(cp.HashCuts)))
	for _, c := range cp.HashCuts {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	if len(cp.Replicas) != cp.Shards {
		return nil, fmt.Errorf("shard: checkpoint encode: %d replica snapshots for %d shards", len(cp.Replicas), cp.Shards)
	}
	for i, r := range cp.Replicas {
		if r == nil {
			return nil, fmt.Errorf("shard: checkpoint encode: replica %d snapshot is nil", i)
		}
		var err error
		if buf, err = r.AppendTo(buf); err != nil {
			return nil, fmt.Errorf("shard: checkpoint encode: replica %d: %w", i, err)
		}
	}
	return buf, nil
}

// DecodeCheckpoint decodes a sharded composite checkpoint blob.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < 7 {
		return nil, fmt.Errorf("shard: checkpoint decode: truncated header (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != plan.CheckpointMagic {
		return nil, fmt.Errorf("shard: checkpoint decode: bad magic %#x", m)
	}
	version := binary.LittleEndian.Uint16(data[4:])
	if version < 1 || version > ShardedCheckpointVersion {
		return nil, fmt.Errorf("shard: checkpoint decode: unsupported sharded blob version %d (this build reads versions 1-%d)", version, ShardedCheckpointVersion)
	}
	if k := data[6]; k != plan.KindSharded {
		return nil, fmt.Errorf("shard: checkpoint decode: expected a sharded blob, got kind %d", k)
	}
	rest := data[7:]
	shards, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("shard: checkpoint decode: truncated shard count")
	}
	rest = rest[n:]
	// Every replica blob takes at least one byte, which also keeps the count
	// within int range.
	if shards == 0 || shards > uint64(len(rest)) {
		return nil, fmt.Errorf("shard: checkpoint decode: shard count %d out of range for a %d-byte payload", shards, len(rest))
	}
	if len(rest) < 33 {
		return nil, fmt.Errorf("shard: checkpoint decode: truncated frontier")
	}
	cp := &Checkpoint{
		Shards:     int(shards),
		Fed:        int(binary.LittleEndian.Uint64(rest)),
		RepFed:     int(binary.LittleEndian.Uint64(rest[8:])),
		SincePunct: int(binary.LittleEndian.Uint64(rest[16:])),
		LastTime:   stream.Time(binary.LittleEndian.Uint64(rest[24:])),
	}
	hasBand := rest[32]
	rest = rest[33:]
	if hasBand == 1 {
		if len(rest) < 24 {
			return nil, fmt.Errorf("shard: checkpoint decode: truncated band shape")
		}
		cp.Band = &Band{
			Width:  int64(binary.LittleEndian.Uint64(rest)),
			MinKey: int64(binary.LittleEndian.Uint64(rest[8:])),
			MaxKey: int64(binary.LittleEndian.Uint64(rest[16:])),
		}
		rest = rest[24:]
	}
	if version >= 2 {
		// The learned ownership cuts (version-1 blobs predate rebalancing
		// and always ran the fixed split).
		readCuts := func(section string) ([]uint64, error) {
			n, w := binary.Uvarint(rest)
			if w <= 0 {
				return nil, fmt.Errorf("shard: checkpoint decode: truncated %s cut count", section)
			}
			rest = rest[w:]
			if n == 0 {
				return nil, nil
			}
			if n > uint64(len(rest))/8 {
				return nil, fmt.Errorf("shard: checkpoint decode: truncated %s cuts", section)
			}
			cuts := make([]uint64, n)
			for i := range cuts {
				cuts[i] = binary.LittleEndian.Uint64(rest[8*i:])
			}
			rest = rest[8*n:]
			return cuts, nil
		}
		bc, err := readCuts("band")
		if err != nil {
			return nil, err
		}
		for _, c := range bc {
			cp.BandCuts = append(cp.BandCuts, int64(c))
		}
		if cp.HashCuts, err = readCuts("hash"); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cp.Shards; i++ {
		r, rem, err := plan.DecodeChainCheckpoint(rest)
		if err != nil {
			return nil, fmt.Errorf("shard: checkpoint decode: replica %d: %w", i, err)
		}
		cp.Replicas = append(cp.Replicas, r)
		rest = rem
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("shard: checkpoint decode: %d trailing bytes after the last replica blob", len(rest))
	}
	return cp, nil
}

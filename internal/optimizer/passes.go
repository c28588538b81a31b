package optimizer

import (
	"fmt"
	"strconv"
	"strings"

	"stateslice/internal/chain"
	"stateslice/internal/cost"
	"stateslice/internal/stream"
	"stateslice/internal/workload"
)

// normalizePass checks the workload invariants every later pass assumes
// (ascending windows, one join, at most 64 queries) and records the query-set
// shape the decisions are about.
func normalizePass() Pass {
	return Pass{Name: "normalize", Run: func(l *Logical) error {
		if err := l.Workload.Validate(); err != nil {
			return err
		}
		filtered := 0
		for _, q := range l.Workload.Queries {
			if q.HasFilter() || q.HasFilterB() {
				filtered++
			}
		}
		l.note("normalize", "%d queries over one shared join [%s], %d distinct windows, %d with selections",
			len(l.Workload.Queries), l.Workload.Join, len(l.Workload.DistinctWindows()), filtered)
		return nil
	}}
}

// placementPass decides where each selection predicate runs relative to the
// shared join — the Section 6 rewrite. For chains the selections move below
// the join into the slice boundaries (the paper's push-down with lineage);
// the baselines place them where their sharing shape dictates.
func placementPass(mode Mode) Pass {
	return Pass{Name: "placement", Run: func(l *Logical) error {
		if !l.Workload.AnyFilter() {
			l.note("placement", "no selections to place (all queries unfiltered)")
			return nil
		}
		switch {
		case mode.Chain():
			if l.DisableLineage {
				l.note("placement", "selections pushed below the shared join, re-evaluated per slice (lineage disabled)")
			} else {
				l.note("placement", "selections pushed below the shared join, lineage-marked once at chain entry")
			}
			specs := workload.Specs(l.Workload)
			dw := cost.DistinctWindows(specs)
			starts := append([]float64{0}, dw[:len(dw)-1]...)
			parts := make([]string, len(starts))
			for i, s := range starts {
				parts[i] = fmt.Sprintf("σ'(%s)=%s", fmtSeconds(s), fmtFloat(cost.Survival(specs, s)))
			}
			l.note("placement", "pushed-down survival by slice start: %s", strings.Join(parts, ", "))
		case mode == ModePullUp:
			l.note("placement", "selections pulled above the shared join (evaluated on join results)")
		case mode == ModePushDown:
			l.note("placement", "shared selection applied below the join on the full input streams")
		default:
			l.note("placement", "each query keeps its private selections (no sharing)")
		}
		return nil
	}}
}

// sharingPass picks the slice layout of a chain mode by driving the cost
// model: Mem-Opt's distinct windows, CPU-Opt's Dijkstra merge, or — for
// ChainAuto — whichever of the two the model prices cheaper in comparisons.
// Caller-pinned boundaries short-circuit the choice; the chain builder, not
// this pass, validates them, so pinning keeps its original error text.
func sharingPass(mode Mode) Pass {
	return Pass{Name: "sharing", Run: func(l *Logical) error {
		specs := workload.Specs(l.Workload)
		if len(l.PinnedEnds) > 0 {
			l.Sharing = ChainMem
			l.Ends = l.PinnedEnds
			l.note("sharing", "slice boundaries pinned by the caller: %s", fmtTimes(l.PinnedEnds))
			if c, err := cost.ChainCost(specs, timesToSeconds(l.PinnedEnds), l.Params); err == nil {
				l.ChainCost = &c
				l.note("sharing", "modelled chain cost: %s", fmtCost(c))
			}
			return nil
		}
		memEnds := chain.MemOptEnds(specs)
		memCost, memErr := cost.ChainCost(specs, memEnds, l.Params)
		switch mode {
		case ChainMem:
			l.Sharing = ChainMem
			l.note("sharing", "mem-opt: one slice per distinct window (%d slices: %s)", len(memEnds), fmtFloats(memEnds))
			if memErr == nil {
				l.ChainCost = &memCost
				l.note("sharing", "modelled chain cost: %s", fmtCost(memCost))
			}
		case ChainCPU:
			res, err := chain.CPUOptEnds(specs, l.Params)
			if err != nil {
				return err
			}
			l.Sharing = ChainCPU
			l.Ends = workload.EndsToTimes(res.Ends)
			c := cost.Cost{CPU: res.CPU, MemoryKB: res.MemoryKB}
			l.ChainCost = &c
			l.note("sharing", "cpu-opt: Dijkstra merged %d distinct windows into %d slices (%s)", len(memEnds), len(res.Ends), fmtFloats(res.Ends))
			l.note("sharing", "modelled chain cost: %s", fmtCost(c))
		case ChainAuto:
			if memErr != nil {
				return memErr
			}
			res, err := chain.CPUOptEnds(specs, l.Params)
			if err != nil {
				return err
			}
			l.note("sharing", "auto: mem-opt CPU %s (%d slices) vs cpu-opt CPU %s (%d slices)",
				fmtFloat(memCost.CPU), len(memEnds), fmtFloat(res.CPU), len(res.Ends))
			if res.CPU < memCost.CPU {
				l.Sharing = ChainCPU
				l.Ends = workload.EndsToTimes(res.Ends)
				c := cost.Cost{CPU: res.CPU, MemoryKB: res.MemoryKB}
				l.ChainCost = &c
				l.note("sharing", "auto picked cpu-opt (cheaper modelled CPU); chain: %s", fmtFloats(res.Ends))
			} else {
				l.Sharing = ChainMem
				l.ChainCost = &memCost
				l.note("sharing", "auto picked mem-opt (modelled CPU no worse; ties favor the smaller state)")
			}
		default:
			return fmt.Errorf("mode %s is not a chain", mode)
		}
		return nil
	}}
}

// noSharingPass records the baseline sharing decision the mode names; there
// is nothing to optimize, but the trace keeps the same shape as a chain's so
// Explain output stays uniform across strategies.
func noSharingPass(mode Mode) Pass {
	return Pass{Name: "sharing", Run: func(l *Logical) error {
		l.Sharing = mode
		switch mode {
		case ModePullUp:
			l.note("sharing", "pull-up baseline: one shared join sized to the largest window")
		case ModePushDown:
			l.note("sharing", "push-down baseline: shared selection feeding per-partition joins")
		case ModeUnshared:
			l.note("sharing", "unshared: one independent plan per query, no state sharing")
		default:
			return fmt.Errorf("mode %s is a chain", mode)
		}
		return nil
	}}
}

// shardsPass resolves the shard count and key range: an explicit request
// wins, AutoShards infers a count from the host parallelism and the declared
// key domain, and the partitioning scheme follows from the join's
// capabilities (hash for key-partitionable joins, contiguous ranges with
// boundary replication for band joins). The pass records intent only — the
// sharded builder stays the validator, so rejected combinations keep their
// original error text.
func shardsPass() Pass {
	return Pass{Name: "shards", Run: func(l *Logical) error {
		p := l.RequestedShards
		if p == 0 && l.AutoShards {
			p = l.inferShards()
			l.note("shards", "auto-inferred shard count p=%d (host parallelism %d, ceiling 16, key-domain cap when declared)", p, l.MaxProcs)
		}
		if p == 0 {
			l.note("shards", "sequential: no shards requested")
			return nil
		}
		l.Shards = p
		band, isBand := stream.PartitionableByBand(l.Workload.Join)
		switch {
		case stream.PartitionableByKey(l.Workload.Join):
			l.note("shards", "p=%d replicas, hash-partitioned by key", p)
			if l.KeyRangeDeclared {
				l.note("shards", "declared key domain %d..%d informs the shard count only; hash partitioning ignores it at run time", l.KeyMin, l.KeyMax)
			}
		case isBand && l.KeyRangeDeclared:
			l.UseKeyRange = true
			l.note("shards", "p=%d replicas, contiguous ranges over keys %d..%d with band-%d boundary replication", p, l.KeyMin, l.KeyMax, band)
		case isBand:
			l.note("shards", "band join lacks a declared key domain (KEYS / WithKeyRange); the sharded build will reject it")
		default:
			l.note("shards", "join is not partitionable; the sharded build will reject it")
		}
		return nil
	}}
}

// inferShards resolves AutoShards: the host parallelism, capped at 16 (the
// assembly layer's fan-in sweet spot) and by the declared key domain — a
// band join needs about 4B keys per shard before boundary replication stops
// dominating, an equijoin just needs one key per shard.
func (l *Logical) inferShards() int {
	p := l.MaxProcs
	if p < 1 {
		p = 1
	}
	if p > 16 {
		p = 16
	}
	if !l.KeyRangeDeclared {
		return p
	}
	width := l.KeyMax - l.KeyMin + 1
	if width <= 0 {
		return p // domain spans nearly the whole int64 line; no effective cap
	}
	limit := width
	if b, ok := stream.PartitionableByBand(l.Workload.Join); ok && !stream.PartitionableByKey(l.Workload.Join) {
		denom := 4 * b
		if denom < 1 {
			denom = 1
		}
		limit = width / denom
		if limit < 1 {
			limit = 1
		}
	}
	if limit < int64(p) {
		p = int(limit)
	}
	return p
}

// lowerPass records the physical lowering target the decisions add up to:
// which executor runs the resolved sharing shape.
func lowerPass() Pass {
	return Pass{Name: "lower", Run: func(l *Logical) error {
		target := "sequential engine"
		if l.Shards > 0 {
			target = fmt.Sprintf("sharded executor (p=%d)", l.Shards)
		}
		l.note("lower", "physical plan: %s via the %s", l.Sharing, target)
		return nil
	}}
}

// RenderTrace formats a pass trace as indented lines for Explain output.
func RenderTrace(notes []Note) string {
	var b strings.Builder
	for _, n := range notes {
		fmt.Fprintf(&b, "    %-10s %s\n", n.Pass+":", n.Detail)
	}
	return b.String()
}

// fmtSeconds renders a boundary in seconds, compactly.
func fmtSeconds(s float64) string { return fmtFloat(s) + "s" }

// fmtFloat renders a float to six significant digits — traces are for
// reading, not round-tripping, and full precision turns 1-0.99 into
// 0.010000000000000009.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// fmtFloats renders a boundary list in seconds.
func fmtFloats(ends []float64) string {
	parts := make([]string, len(ends))
	for i, e := range ends {
		parts[i] = fmtSeconds(e)
	}
	return strings.Join(parts, ", ")
}

// fmtTimes renders a stream-time boundary list in seconds.
func fmtTimes(ends []stream.Time) string {
	return fmtFloats(timesToSeconds(ends))
}

// timesToSeconds converts stream times to cost-model seconds.
func timesToSeconds(ends []stream.Time) []float64 {
	out := make([]float64, len(ends))
	for i, e := range ends {
		out[i] = e.ToSeconds()
	}
	return out
}

// fmtCost renders a modelled cost.
func fmtCost(c cost.Cost) string {
	return fmt.Sprintf("%s comparisons/s, %s KB state", fmtFloat(c.CPU), fmtFloat(c.MemoryKB))
}

package bench

import (
	"fmt"
	"runtime"
	"time"

	"stateslice/internal/engine"
	"stateslice/internal/plan"
	"stateslice/internal/shard"
	"stateslice/internal/stream"
	"stateslice/internal/workload"
)

// This file implements the machine-readable performance report behind
// `slicebench -json`: the Section 7.3 chain workload (N unfiltered window
// joins, Mem-Opt chain) executed through the sequential engine at several
// micro-batch sizes, with wall-clock service rate, comparison counts,
// per-input allocation costs and state memory recorded per variant. A second
// suite runs the workload's equijoin twin — same windows, A.Key = B.Key
// join, key domain matched to the same selectivity — through the engine and
// the key-range sharded executor at a shard-count sweep; FractionMatch is not
// key-partitionable, so the sharded variants require the twin. A third
// suite runs the band-join twin (|A.Key - B.Key| <= B over a domain matched
// to the same selectivity) through the band-partitioned sharded executor —
// contiguous owner ranges with boundary replication — recording the
// replicated feed volume next to the shard sweep. Committed snapshots
// (BENCH_<pr>.json) track the repository's performance trajectory over
// time.

// PerfWorkload describes the workload a report was measured on.
type PerfWorkload struct {
	// Queries is the number of window-join queries (Section 7.3 sweeps
	// 12/24/36; the tracked baseline uses 12).
	Queries int `json:"queries"`
	// Dist names the window distribution (Table 4).
	Dist string `json:"dist"`
	// Join describes the join predicate.
	Join string `json:"join"`
	// JoinSelectivity is the (expected) S1 join selectivity.
	JoinSelectivity float64 `json:"join_selectivity"`
	// KeyDomain is the generator's uniform key domain; 0 when the
	// predicate ignores keys.
	KeyDomain int64 `json:"key_domain,omitempty"`
	// Rate is the per-stream arrival rate in tuples/sec.
	Rate float64 `json:"rate"`
	// DurationSec is the virtual run length in seconds.
	DurationSec float64 `json:"duration_sec"`
	// Seed seeds the shared generator.
	Seed int64 `json:"seed"`
}

// PerfRun is one measured execution variant.
type PerfRun struct {
	// Variant labels the execution path, e.g. "engine/k=1" or "shards/p=2".
	Variant string `json:"variant"`
	// BatchSize is the engine micro-batch size K (1 = the paper-faithful
	// tuple-at-a-time schedule; -1 = drain only at the end; 0 for sharded
	// variants).
	BatchSize int `json:"batch_size"`
	// Shards is the replica count of a sharded run; 0 for unsharded
	// variants. Comparable across hosts only together with the report's
	// GOMAXPROCS.
	Shards int `json:"shards,omitempty"`
	// Band is the band width B of a band-partitioned sharded run; absent
	// for hash-partitioned and unsharded variants (note B = 0 is only
	// reachable through the equijoin suite, so omitempty is unambiguous).
	Band int64 `json:"band,omitempty"`
	// ReplicaFeeds is the total number of per-replica tuple deliveries of
	// a sharded run: Inputs under hash partitioning, inflated by the
	// boundary replication factor (~1 + 2B/rangeWidth) under band
	// partitioning. ReplicaFeeds/Inputs is the measured replication
	// factor.
	ReplicaFeeds int `json:"replica_feeds,omitempty"`
	// Inputs is the number of source tuples fed.
	Inputs int `json:"inputs"`
	// Outputs is the total number of result tuples across all queries.
	Outputs uint64 `json:"outputs"`
	// WallSeconds is the wall-clock time of the best repetition.
	WallSeconds float64 `json:"wall_seconds"`
	// ServiceRate is (inputs+outputs)/wall in tuples/sec, the paper's
	// throughput measure on this host (best repetition).
	ServiceRate float64 `json:"service_rate"`
	// Comparisons is the modelled comparison count of the run.
	Comparisons uint64 `json:"comparisons"`
	// AllocsPerInput is heap allocations per source tuple.
	AllocsPerInput float64 `json:"allocs_per_input"`
	// BytesPerInput is heap bytes allocated per source tuple.
	BytesPerInput float64 `json:"bytes_per_input"`
	// AvgStateTuples is the mean total join-state size. Reported only for
	// the per-tuple engine schedule (K=1): with K>1 the monitor samples
	// between feeds, before the deferred drain, so join states lag the
	// arrivals and the figure would understate memory (queues, not
	// states, hold the backlog).
	AvgStateTuples float64 `json:"avg_state_tuples"`
	// MaxStateTuples is the peak total join-state size (K=1 only, as
	// above).
	MaxStateTuples int `json:"max_state_tuples"`
	// OrderViolations counts out-of-order deliveries (must be zero).
	OrderViolations int `json:"order_violations"`
}

// PerfSuite is one workload with its measured execution variants.
type PerfSuite struct {
	// Workload describes the measured workload.
	Workload PerfWorkload `json:"workload"`
	// Runs holds one entry per execution variant.
	Runs []PerfRun `json:"runs"`
}

// PerfReport is the full report written by `slicebench -json`.
type PerfReport struct {
	// GoVersion and GOARCH identify the toolchain and hardware flavour the
	// numbers were taken on; wall-clock figures are host-dependent.
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS and NumCPU pin the parallelism available to the run, the
	// context without which shard-sweep figures are not comparable across
	// hosts.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// Workload describes the tracked FractionMatch workload.
	Workload PerfWorkload `json:"workload"`
	// Runs holds one entry per execution variant on Workload.
	Runs []PerfRun `json:"runs"`
	// Sharded is the equijoin-twin suite with the shard-count sweep, nil
	// when the sweep was disabled.
	Sharded *PerfSuite `json:"sharded,omitempty"`
	// Band is the band-join-twin suite with the band-partitioned shard
	// sweep, nil when disabled.
	Band *PerfSuite `json:"band,omitempty"`
	// Admission is the live-admission suite: attach-barrier latency and
	// the steady-state cost of a chain that attached its queries
	// mid-stream against the same query set built in from the start. Nil
	// when the shard suites are disabled (the suite shares their equijoin
	// twin workload).
	Admission *AdmissionReport `json:"admission,omitempty"`
	// Lifecycle is the session-abort suite: the wall-clock cost of Close
	// on a live mid-stream sharded session. Nil when the shard suites are
	// disabled (the suite shares their equijoin twin workload).
	Lifecycle *LifecycleReport `json:"lifecycle,omitempty"`
	// Recovery is the self-healing suite: checkpoint latency and blob
	// size, supervised-restart cost, and the healed run's output
	// equivalence. Nil when the shard suites are disabled (the suite
	// shares their equijoin twin workload).
	Recovery *RecoveryReport `json:"recovery,omitempty"`
	// Rebalance is the adaptive-rebalancing suite: the probe imbalance of
	// a quadratic-skew band feed on the fixed split versus learned
	// equi-depth cuts, and the cost of the live move. Nil when the shard
	// or band suites are disabled (the suite shares the band twin
	// workload) or the sweep tracks fewer than two shards.
	Rebalance *RebalanceReport `json:"rebalance,omitempty"`
}

// PerfConfig parameterises RunPerf. The zero value selects the tracked
// baseline: 12 uniform queries, rate 80, 90 virtual seconds, seed 2006,
// 3 repetitions, shard sweep p ∈ {1, 2, 4, 8}.
type PerfConfig struct {
	Queries     int
	Dist        workload.Distribution
	S1          float64
	Rate        float64
	DurationSec float64
	Seed        int64
	Reps        int
	// Shards is the shard-count sweep of the equijoin suite; nil selects
	// DefaultShardCounts, an explicit empty slice disables the suite.
	Shards []int
	// KeyDomain is the equijoin suite's uniform key domain; 0 selects
	// workload.EquijoinKeyDomain (selectivity matching S1's default).
	KeyDomain int64
	// BandWidth is the band width B of the band-join suite, measured over
	// the workload.BandKeyDomain uniform domain; 0 selects
	// workload.BandWidth (selectivity matching S1's default), negative
	// disables the band suite. The suite's shard sweep reuses Shards, so
	// an empty Shards disables it as well.
	BandWidth int64
}

// DefaultShardCounts is the tracked shard sweep.
var DefaultShardCounts = []int{1, 2, 4, 8}

func (c *PerfConfig) defaults() {
	if c.Queries == 0 {
		c.Queries = 12
	}
	if c.Dist == "" {
		c.Dist = workload.Uniform
	}
	if c.S1 == 0 {
		c.S1 = 0.025
	}
	if c.Rate == 0 {
		c.Rate = 80
	}
	if c.DurationSec == 0 {
		c.DurationSec = workload.DurationSeconds
	}
	if c.Seed == 0 {
		c.Seed = 2006
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.Shards == nil {
		c.Shards = DefaultShardCounts
	}
	if c.KeyDomain == 0 {
		c.KeyDomain = workload.EquijoinKeyDomain
	}
	if c.BandWidth == 0 {
		c.BandWidth = workload.BandWidth
	}
}

// perfBatchSizes lists the engine micro-batch sizes the report measures:
// the paper-faithful K=1 schedule, two amortized settings and the unbounded
// drain-at-finish extreme.
var perfBatchSizes = []int{1, 7, 64, -1}

// RunPerf measures every execution variant over one shared generated input
// and returns the report.
func RunPerf(cfg PerfConfig) (*PerfReport, error) {
	cfg.defaults()
	w, err := workload.NQueries(cfg.Dist, cfg.Queries, cfg.S1)
	if err != nil {
		return nil, err
	}
	input, err := stream.Generate(stream.GeneratorConfig{
		RateA:    cfg.Rate,
		RateB:    cfg.Rate,
		Duration: stream.Seconds(cfg.DurationSec),
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	rep := &PerfReport{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workload: PerfWorkload{
			Queries:         cfg.Queries,
			Dist:            string(cfg.Dist),
			Join:            w.Join.String(),
			JoinSelectivity: cfg.S1,
			Rate:            cfg.Rate,
			DurationSec:     cfg.DurationSec,
			Seed:            cfg.Seed,
		},
	}

	for _, k := range perfBatchSizes {
		run, err := perfEngine(w, input, k, cfg.Reps)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, *run)
	}

	if len(cfg.Shards) > 0 {
		suite, err := runShardSuite(cfg)
		if err != nil {
			return nil, err
		}
		rep.Sharded = suite
		if cfg.BandWidth >= 0 {
			suite, err := runBandSuite(cfg)
			if err != nil {
				return nil, err
			}
			rep.Band = suite
		}
		adm, err := runAdmissionSuite(cfg)
		if err != nil {
			return nil, err
		}
		rep.Admission = adm
		lc, err := runLifecycleSuite(cfg)
		if err != nil {
			return nil, err
		}
		rep.Lifecycle = lc
		rc, err := runRecoverySuite(cfg)
		if err != nil {
			return nil, err
		}
		rep.Recovery = rc
		if cfg.BandWidth >= 0 {
			rb, err := runRebalanceSuite(cfg)
			if err != nil {
				return nil, err
			}
			rep.Rebalance = rb
		}
	}
	return rep, nil
}

// runShardSuite measures the equijoin twin of the workload — the same
// windows joined on A.Key = B.Key over a key domain matching the tracked
// selectivity — through the engine and the hash-partitioned sharded executor
// at every shard count.
func runShardSuite(cfg PerfConfig) (*PerfSuite, error) {
	w, err := workload.NQueriesEquijoin(cfg.Dist, cfg.Queries)
	if err != nil {
		return nil, err
	}
	return runTwinSuite(cfg, w, cfg.KeyDomain, 1/float64(cfg.KeyDomain), nil)
}

// runBandSuite measures the band-join twin of the workload — the same
// windows joined on |A.Key - B.Key| <= BandWidth over the
// workload.BandKeyDomain uniform domain, whose expected selectivity matches
// the tracked low S1 — through the engine and the band-partitioned sharded
// executor at every shard count. Band predicates are not key-partitionable,
// so this sweep exercises the contiguous range partitioner with boundary
// replication and owner-rule suppression; the replicated feed volume is
// recorded per run (PerfRun.ReplicaFeeds).
func runBandSuite(cfg PerfConfig) (*PerfSuite, error) {
	w, err := workload.NQueriesBand(cfg.Dist, cfg.Queries, cfg.BandWidth)
	if err != nil {
		return nil, err
	}
	sel := float64(2*cfg.BandWidth+1) / float64(workload.BandKeyDomain)
	band := &shard.Band{Width: cfg.BandWidth, MinKey: 0, MaxKey: workload.BandKeyDomain - 1}
	return runTwinSuite(cfg, w, workload.BandKeyDomain, sel, band)
}

// runTwinSuite is the shared sweep skeleton of the sharded twin suites: one
// keyed input, the in-suite engine baseline (the single-core reference the
// sweep is judged against; every variant must produce identical output
// counts), then the sharded executor at every shard count —
// hash-partitioned when band is nil, band-partitioned otherwise.
func runTwinSuite(cfg PerfConfig, w plan.Workload, keyDomain int64, selectivity float64, band *shard.Band) (*PerfSuite, error) {
	input, err := stream.Generate(stream.GeneratorConfig{
		RateA:     cfg.Rate,
		RateB:     cfg.Rate,
		Duration:  stream.Seconds(cfg.DurationSec),
		KeyDomain: keyDomain,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	suite := &PerfSuite{
		Workload: PerfWorkload{
			Queries:         cfg.Queries,
			Dist:            string(cfg.Dist),
			Join:            w.Join.String(),
			JoinSelectivity: selectivity,
			KeyDomain:       keyDomain,
			Rate:            cfg.Rate,
			DurationSec:     cfg.DurationSec,
			Seed:            cfg.Seed,
		},
	}
	run, err := perfEngine(w, input, 1, cfg.Reps)
	if err != nil {
		return nil, err
	}
	suite.Runs = append(suite.Runs, *run)
	for _, p := range cfg.Shards {
		run, err := perfSharded(w, input, p, cfg.Reps, band)
		if err != nil {
			return nil, err
		}
		suite.Runs = append(suite.Runs, *run)
	}
	return suite, nil
}

// perfSharded measures the sharded executor at shard count p on the
// slice-merge fast path the public WithShards build selects for this
// workload shape (unfiltered Mem-Opt). A non-nil
// band selects the range-partitioned executor with boundary replication;
// nil keeps the key hash.
func perfSharded(w plan.Workload, input []*stream.Tuple, p, reps int, band *shard.Band) (*PerfRun, error) {
	windows := make([]stream.Time, len(w.Queries))
	for i, q := range w.Queries {
		windows[i] = q.Window
	}
	run := &PerfRun{Shards: p}
	for r := 0; r < reps; r++ {
		e, err := shard.New(shard.Config{
			Shards:      p,
			SampleEvery: 1 << 30, // no memory sampling on the measured path
			Band:        band,
			SliceMerge:  true,
			Windows:     windows,
			Name:        "perf-sharded",
		}, func(int) (*plan.StateSlicePlan, error) {
			return plan.BuildStateSlice(w, plan.StateSliceConfig{Name: "perf", RawSliceResults: true})
		})
		if err != nil {
			return nil, err
		}
		if band != nil {
			run.Band = band.Width
			run.Variant = fmt.Sprintf("band/p=%d", p)
		} else {
			run.Variant = fmt.Sprintf("shards/p=%d", p)
		}
		allocs, bytes, wall, res, err := measured(func() (perfResult, error) {
			er, err := e.Run(stream.NewSliceSource(input))
			if err != nil {
				return perfResult{}, err
			}
			return perfResult{
				inputs:     er.Inputs,
				outputs:    er.TotalOutputs(),
				comps:      er.Meter.Comparisons(),
				violations: er.OrderViolations,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		run.ReplicaFeeds = e.ReplicatedFeeds()
		record(run, res, allocs, bytes, wall)
	}
	return run, nil
}

// perfEngine measures the sequential engine at micro-batch size k over the
// Mem-Opt chain.
func perfEngine(w plan.Workload, input []*stream.Tuple, k, reps int) (*PerfRun, error) {
	run := &PerfRun{Variant: fmt.Sprintf("engine/k=%s", batchLabel(k)), BatchSize: k}
	for r := 0; r < reps; r++ {
		sp, err := plan.BuildStateSlice(w, plan.StateSliceConfig{Name: "perf"})
		if err != nil {
			return nil, err
		}
		allocs, bytes, wall, res, err := measured(func() (perfResult, error) {
			er, err := engine.Run(sp.Plan, input, engineConfig(k))
			if err != nil {
				return perfResult{}, err
			}
			pr := perfResult{
				inputs:     er.Inputs,
				outputs:    er.TotalOutputs(),
				comps:      er.Meter.Comparisons(),
				violations: er.OrderViolations,
			}
			if k == 1 {
				// State sizes are meaningful only under the
				// per-tuple schedule; see PerfRun.AvgStateTuples.
				pr.avgState = er.Memory.Avg
				pr.maxState = er.Memory.Max
			}
			return pr, nil
		})
		if err != nil {
			return nil, err
		}
		record(run, res, allocs, bytes, wall)
	}
	return run, nil
}

// batchLabel renders a micro-batch size for variant names.
func batchLabel(k int) string {
	if k < 0 {
		return "inf"
	}
	return fmt.Sprintf("%d", k)
}

// perfResult is the variant-independent outcome of one measured execution.
type perfResult struct {
	inputs     int
	outputs    uint64
	comps      uint64
	violations int
	avgState   float64
	maxState   int
}

// measured runs fn under heap-allocation accounting.
func measured(fn func() (perfResult, error)) (allocs, bytes uint64, wall time.Duration, res perfResult, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err = fn()
	wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, wall, res, err
}

// record folds one repetition into the run, keeping the fastest wall clock
// and the smallest allocation footprint (GC noise only ever inflates both).
func record(run *PerfRun, res perfResult, allocs, bytes uint64, wall time.Duration) {
	if res.inputs == 0 {
		return
	}
	rate := float64(res.inputs+int(res.outputs)) / wall.Seconds()
	if run.WallSeconds == 0 || wall.Seconds() < run.WallSeconds {
		run.WallSeconds = wall.Seconds()
		run.ServiceRate = rate
	}
	apo := float64(allocs) / float64(res.inputs)
	bpo := float64(bytes) / float64(res.inputs)
	if run.AllocsPerInput == 0 || apo < run.AllocsPerInput {
		run.AllocsPerInput = apo
		run.BytesPerInput = bpo
	}
	run.Inputs = res.inputs
	run.Outputs = res.outputs
	run.Comparisons = res.comps
	run.OrderViolations += res.violations
	run.AvgStateTuples = res.avgState
	run.MaxStateTuples = res.maxState
}

// engineConfig maps a micro-batch size onto the engine configuration.
func engineConfig(k int) engine.Config {
	return engine.Config{SampleEvery: 16, BatchSize: k}
}

// Package optimizer compiles a logical workload into the physical recipe a
// Build call executes, through an explicit pipeline of named passes over one
// logical-plan IR — the spine both the Go API (hand-built Workload values)
// and the SliceQL front-end (parsed query sets) share:
//
//	normalize          check the chain-order invariants, summarize the set
//	placement          decide where each selection runs (pushdown between
//	                   slices with lineage, pulled above the join, shared
//	                   below it, or private per query)
//	sharing            pick the slice layout cost-wise: Mem-Opt distinct
//	                   windows, CPU-Opt Dijkstra merge, or the cheaper of
//	                   the two (ChainAuto) — driving internal/cost and
//	                   internal/chain directly
//	shards             resolve the shard count and key range from the
//	                   explicit request or the declared key domain
//	lower              record the physical lowering target
//
// Every pass appends Notes to the Logical's Trace; Plan.Explain renders the
// trace, so what each pass decided — pushdown placements, the sharing choice
// with its cost estimate, the inferred shard count and key range — is
// inspectable on every compiled plan. A Strategy in the public API is
// nothing but a preset pass list (Preset); parsed and hand-built workloads
// therefore compile through identical code and produce identical traces.
package optimizer

import (
	"fmt"

	"stateslice/internal/cost"
	"stateslice/internal/plan"
	"stateslice/internal/stream"
)

// Mode selects the preset pass list — the optimizer-side image of the public
// Strategy enum, plus ChainAuto, the cost-chosen chain the enum cannot
// express.
type Mode int

const (
	// ChainMem pins the memory-optimal chain: one slice per distinct
	// window.
	ChainMem Mode = iota
	// ChainCPU pins the CPU-optimal chain: slices merged by Dijkstra's
	// algorithm over the slice-merge graph.
	ChainCPU
	// ChainAuto lets the sharing pass pick whichever chain the cost model
	// prices cheaper in comparisons (ties go to Mem-Opt, the smaller
	// state).
	ChainAuto
	// ModePullUp is the naive shared baseline with selection pull-up.
	ModePullUp
	// ModePushDown is the stream-partition baseline with selection
	// push-down.
	ModePushDown
	// ModeUnshared is one independent plan per query.
	ModeUnshared
)

// String names the mode as the trace renders it.
func (m Mode) String() string {
	switch m {
	case ChainMem:
		return "mem-opt"
	case ChainCPU:
		return "cpu-opt"
	case ChainAuto:
		return "auto"
	case ModePullUp:
		return "pull-up"
	case ModePushDown:
		return "push-down"
	case ModeUnshared:
		return "unshared"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Chain reports whether the mode compiles to a state-slice chain.
func (m Mode) Chain() bool { return m == ChainMem || m == ChainCPU || m == ChainAuto }

// Logical is the IR the passes rewrite: the normalized workload, the
// front-end declarations and build requests that parameterize the decisions,
// and the decision fields the passes fill in. One Logical value flows
// through one Compile call.
type Logical struct {
	// Workload is the query set, already in chain order (ascending
	// windows) — normalize rejects anything else.
	Workload plan.Workload
	// Params is the analytic cost model driving the sharing pass.
	Params cost.ChainParams

	// PinnedEnds pins explicit slice boundaries (WithEnds); valid only
	// with ChainMem, where it overrides the distinct-window layout.
	PinnedEnds []stream.Time
	// RequestedShards is the explicit shard request (WithShards); 0 means
	// none requested.
	RequestedShards int
	// AutoShards asks the shards pass to infer the count from the
	// declared key domain and the host's parallelism.
	AutoShards bool
	// KeyMin and KeyMax declare the inclusive key domain (KEYS or
	// WithKeyRange); meaningful when KeyRangeDeclared.
	KeyMin, KeyMax int64
	// KeyRangeDeclared reports whether a key domain was declared.
	KeyRangeDeclared bool
	// MaxProcs is the host parallelism AutoShards resolves against
	// (usually runtime.GOMAXPROCS(0)); it is a field so tests pin it.
	MaxProcs int
	// DisableLineage selects the re-evaluation ablation instead of
	// lineage marks for pushed-down selections (WithoutLineage).
	DisableLineage bool

	// Sharing is the resolved sharing decision: ChainMem or ChainCPU for
	// chain modes (never ChainAuto after the sharing pass), the baseline
	// mode otherwise.
	Sharing Mode
	// Ends are the chosen slice boundaries of a chain plan (nil for
	// baselines, and nil for ChainMem without pinned ends, whose
	// distinct-window layout the chain builder derives itself).
	Ends []stream.Time
	// ChainCost is the modelled cost of the chosen chain layout, when the
	// sharing pass could price it.
	ChainCost *cost.Cost
	// Shards is the resolved shard count; 0 means sequential.
	Shards int
	// UseKeyRange reports whether lowering passes the declared key range
	// to the band partitioner.
	UseKeyRange bool

	// Trace accumulates one or more notes per executed pass.
	Trace []Note
}

// Note is one trace line: which pass, what it decided.
type Note struct {
	// Pass is the pass name.
	Pass string
	// Detail is the single-line decision record.
	Detail string
}

// note appends a trace note.
func (l *Logical) note(pass, format string, args ...any) {
	l.Trace = append(l.Trace, Note{Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// Pass is one named rewrite over the logical IR.
type Pass struct {
	// Name labels the pass in traces and errors.
	Name string
	// Run rewrites the IR, appending trace notes.
	Run func(*Logical) error
}

// Preset returns the pass list of a mode — the compilation pipeline the
// public Strategy enum is a name for.
func Preset(m Mode) []Pass {
	passes := []Pass{normalizePass(), placementPass(m)}
	if m.Chain() {
		passes = append(passes, sharingPass(m))
	} else {
		passes = append(passes, noSharingPass(m))
	}
	passes = append(passes, shardsPass(), lowerPass())
	return passes
}

// Compile runs the pass list over the IR in order, stopping at the first
// failing pass.
func Compile(l *Logical, passes []Pass) error {
	for _, p := range passes {
		if err := p.Run(l); err != nil {
			return fmt.Errorf("optimizer: %s pass: %w", p.Name, err)
		}
	}
	return nil
}

package operator

import "fmt"

// CostMeter tallies the comparison operations performed by the operators of
// a plan, one counter per operator category. The paper estimates CPU cost as
// "the count of comparisons per time unit" covering value comparisons and
// timestamp comparisons, which it assumes equally expensive (Section 3); the
// meter reproduces that metric so measured costs can be checked against the
// analytical formulas Eq. (1)-(3).
type CostMeter struct {
	// Probe counts join probe comparisons (one per state tuple examined
	// by nested-loop probing, or per bucket tuple with hash probing).
	Probe uint64
	// Purge counts cross-purge timestamp comparisons (one per state tuple
	// examined while purging, including the comparison that stops).
	Purge uint64
	// Route counts router boundary comparisons (|Ta-Tb| against window
	// sizes, one per boundary examined per joined result).
	Route uint64
	// Union counts order-preserving merge comparisons (one per emitted
	// tuple).
	Union uint64
	// Filter counts selection predicate evaluations, including lineage
	// mark evaluations and lineage level checks.
	Filter uint64
	// Split counts stream partitioning predicate evaluations.
	Split uint64
	// Hash counts hash computations of indexed (hash-join) probing.
	Hash uint64
	// Invocations counts operator Step item consumptions, the proxy for
	// the per-operator system overhead C_sys of Section 5.2.
	Invocations uint64
}

// The category helpers are nil-safe so operators can run without a meter in
// tests.

func (m *CostMeter) probe(n int) {
	if m != nil {
		m.Probe += uint64(n)
	}
}

func (m *CostMeter) purge(n int) {
	if m != nil {
		m.Purge += uint64(n)
	}
}

func (m *CostMeter) route(n int) {
	if m != nil {
		m.Route += uint64(n)
	}
}

func (m *CostMeter) union(n int) {
	if m != nil {
		m.Union += uint64(n)
	}
}

func (m *CostMeter) filter(n int) {
	if m != nil {
		m.Filter += uint64(n)
	}
}

func (m *CostMeter) split(n int) {
	if m != nil {
		m.Split += uint64(n)
	}
}

func (m *CostMeter) hash(n int) {
	if m != nil {
		m.Hash += uint64(n)
	}
}

func (m *CostMeter) invoke(n int) {
	if m != nil {
		m.Invocations += uint64(n)
	}
}

// Comparisons returns the total comparison count across all categories
// except Invocations (which models scheduling overhead, not comparisons).
func (m *CostMeter) Comparisons() uint64 {
	if m == nil {
		return 0
	}
	return m.Probe + m.Purge + m.Route + m.Union + m.Filter + m.Split + m.Hash
}

// Total returns comparisons plus invocation overhead weighted by csys
// (comparisons per operator invocation), the paper's C_sys system overhead
// factor.
func (m *CostMeter) Total(csys float64) float64 {
	if m == nil {
		return 0
	}
	return float64(m.Comparisons()) + csys*float64(m.Invocations)
}

// Add folds another meter's counts into m, category by category. The
// sharded executor gives every goroutine its own meter and fold them into
// the run total once all goroutines have stopped.
func (m *CostMeter) Add(o CostMeter) {
	if m == nil {
		return
	}
	m.Probe += o.Probe
	m.Purge += o.Purge
	m.Route += o.Route
	m.Union += o.Union
	m.Filter += o.Filter
	m.Split += o.Split
	m.Hash += o.Hash
	m.Invocations += o.Invocations
}

// Sub returns the per-category difference m - base. It lets the harness
// compute the cost of a time slice of an execution.
func (m *CostMeter) Sub(base CostMeter) CostMeter {
	if m == nil {
		return CostMeter{}
	}
	return CostMeter{
		Probe:       m.Probe - base.Probe,
		Purge:       m.Purge - base.Purge,
		Route:       m.Route - base.Route,
		Union:       m.Union - base.Union,
		Filter:      m.Filter - base.Filter,
		Split:       m.Split - base.Split,
		Hash:        m.Hash - base.Hash,
		Invocations: m.Invocations - base.Invocations,
	}
}

// String summarises the meter.
func (m *CostMeter) String() string {
	return fmt.Sprintf("probe=%d purge=%d route=%d union=%d filter=%d split=%d hash=%d invocations=%d",
		m.Probe, m.Purge, m.Route, m.Union, m.Filter, m.Split, m.Hash, m.Invocations)
}

package engine

import "stateslice/internal/operator"

// MemoryStats aggregates the sampled total state memory of a run, measured
// in tuples as in Section 7.1 of the paper ("the number of tuples staying in
// the states of the joins").
type MemoryStats struct {
	// Samples is the number of observations taken.
	Samples int
	// Avg is the mean total state size over the sampled observations.
	Avg float64
	// Max is the peak total state size.
	Max int
	// Last is the state size at the end of the run.
	Last int
	// Series holds the per-sample sizes when Config.Series was set.
	Series []Sample
}

// Sample is one monitor observation.
type Sample struct {
	// Arrival is the index of the input tuple after which the sample was
	// taken.
	Arrival int
	// Tuples is the total state size observed.
	Tuples int
}

// monitor samples state sizes during a run, mirroring the statistics thread
// of the CAPE query processor.
type monitor struct {
	stateful []operator.StateSizer
	cfg      Config

	samples int
	sum     float64
	max     int
	last    int
	series  []Sample
}

func newMonitor(stateful []operator.StateSizer, cfg Config) *monitor {
	return &monitor{stateful: stateful, cfg: cfg}
}

// observe is called after arrival i of n has been fully processed.
func (m *monitor) observe(i, n int) {
	if len(m.stateful) == 0 {
		return
	}
	if (i+1)%m.cfg.SampleEvery != 0 {
		return
	}
	total := 0
	for _, s := range m.stateful {
		total += s.StateSize()
	}
	m.last = total
	if float64(i) < m.cfg.WarmupFraction*float64(n) {
		return
	}
	m.samples++
	m.sum += float64(total)
	if total > m.max {
		m.max = total
	}
	if m.cfg.Series {
		m.series = append(m.series, Sample{Arrival: i, Tuples: total})
	}
}

func (m *monitor) stats() MemoryStats {
	st := MemoryStats{Samples: m.samples, Max: m.max, Last: m.last, Series: m.series}
	if m.samples > 0 {
		st.Avg = m.sum / float64(m.samples)
	}
	return st
}

// compile-time interface checks for the operators the monitor samples.
var (
	_ operator.StateSizer = (*operator.WindowJoin)(nil)
	_ operator.StateSizer = (*operator.SlicedBinaryJoin)(nil)
	_ operator.StateSizer = (*operator.SlicedOneWayJoin)(nil)
)

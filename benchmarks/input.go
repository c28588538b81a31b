package main

import (
	"fmt"

	"stateslice"
	"stateslice/benchmarks/oracle"
)

// input is one run's pre-materialized input: the Poisson stream of
// stateslice.GeneratorSource, kept as a flat pointer-free array. The driver
// materializes a *Tuple from it as it feeds, the way an ingest path
// allocates tuples as they arrive; keeping half a million pointerful tuples
// alive instead would make every GC cycle of the run scan the benchmark's
// input rather than the system's state.
type input struct {
	events []oracle.Event
	warm   int // the untimed prefix: events up to the first one past the largest window
}

// generate draws the warm-up prefix plus n measured inputs from the seed.
func generate(wl *workload, maxWindow stateslice.Time, seed int64, n int) (*input, error) {
	src, err := stateslice.GeneratorSource(stateslice.GeneratorConfig{
		RateA: wl.rate, RateB: wl.rate, KeyDomain: wl.keys, Seed: seed,
		Duration: 1 << 50, // never the limit; the count is
	})
	if err != nil {
		return nil, err
	}
	in := &input{warm: -1}
	for in.warm < 0 || len(in.events) < in.warm+n {
		t, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("generator: %w", err)
		}
		if in.warm < 0 && t.Time > maxWindow {
			in.warm = len(in.events)
		}
		in.events = append(in.events, oracle.Event{Time: int64(t.Time), Key: t.Key, Value: t.Value, Stream: uint8(t.Stream)})
	}
	return in, nil
}

// tuple materializes input i. Its sequence number is its position plus one,
// which is what lets a sink map a result back to the input that caused it.
func (in *input) tuple(i int) *stateslice.Tuple {
	e := &in.events[i]
	t := &stateslice.Tuple{Time: stateslice.Time(e.Time), Seq: uint64(i + 1), Key: e.Key, Value: e.Value}
	if e.Stream == 1 {
		t.Stream = stateslice.StreamB
	}
	return t
}

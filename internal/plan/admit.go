package plan

import (
	"fmt"

	"stateslice/internal/engine"
	"stateslice/internal/operator"
	"stateslice/internal/stream"
)

// Live query admission: attaching and detaching queries on a running chain.
//
// The paper freezes the query set when the chain is built; this file makes
// the subscriber set dynamic, the way Shared Arrangements serve new queries
// against a live shared index. Both operations run at a feed barrier
// (engine.Session.Barrier): every tuple fed so far is fully processed, the
// chain is restructured while nothing is in flight, and the graph is
// drained again so a detached query's union forwards its final punctuation
// — the stream itself never stops, no state is rebuilt and no input is
// replayed. The union inputs a restructure closes are empty at that point
// and are reclaimed inside the same barrier (rebuildOps).
//
// Attach subscribes a query with window W to the existing slice prefix
// covering W, splitting at most one slice when W falls strictly inside one
// (the live variant of the Section 5.3 split; the states already hold every
// tuple the new query's window needs, which is why results on the
// post-admission suffix are byte-identical to a chain built with the query
// from the start). Detach clears the slot's live mark, closes its union
// inputs — the union then forwards a MaxTime punctuation that flushes any
// buffered results in order — and garbage-collects trailing slices left
// with no subscribers. The dead slot's union and sink leave the operator
// list at the next restructure, once that punctuation has gone out; the
// slot index, its sink and the results it delivered stay.
//
// Admission is restricted to fully unfiltered workloads: pushed-down
// selections specialize the inter-slice gates and lineage masks to the
// build-time query set, so changing the set under them would require
// re-marking tuples already in the window states. Unfiltered chains carry
// no gates, making the slice prefix query-agnostic — the property admission
// relies on.

// Attach admits query q into the live chain driven by s and returns its
// slot index. The chain must be migratable (admission reuses the migration
// wiring: a union per query, splittable slices) and fully unfiltered, and
// q must be unfiltered with a window in (0, max boundary]. Slot indices are
// never reused, so the index identifies the query for Detach and in
// per-slot results for the plan's lifetime.
func (sp *StateSlicePlan) Attach(s *engine.Session, q Query) (int, error) {
	if err := sp.migratable(s); err != nil {
		return 0, fmt.Errorf("plan: Attach: %w", err)
	}
	if err := sp.admissible(q); err != nil {
		return 0, fmt.Errorf("plan: Attach: %w", err)
	}
	ends := sp.Ends()
	if last := ends[len(ends)-1]; q.Window > last {
		return 0, fmt.Errorf("plan: Attach: window %s exceeds the chain's largest boundary %s; the slice states cover no history beyond it, so an attached query there could not produce the same results as one built in from the start", q.Window, last)
	}
	if err := sp.beginRestructure("Attach"); err != nil {
		return 0, err
	}
	defer sp.endRestructure()

	qi := len(sp.w.Queries)
	err := s.Barrier(func() error {
		// Make q.Window a slice boundary, splitting the one slice it
		// falls strictly inside (if any). The left part keeps the window
		// states; its next cross-purges migrate out-of-range tuples
		// right, exactly as in a migration split.
		if si := sp.boundaryIndex(q.Window); si < 0 {
			if err := sp.splitSlice(s, sp.sliceOf(q.Window), q.Window); err != nil {
				return err
			}
		}
		// Append the slot — union, sink, live mark — and resubscribe
		// every slice the new query reads from. Rewiring closes the
		// slices' current union inputs, already drained by the barrier,
		// and re-adds fresh ones for the full served set; rebuildOps
		// reclaims the closed ones.
		sp.w.Queries = append(sp.w.Queries, q)
		sp.live = append(sp.live, true)
		sink := sp.newQuerySink(qi)
		u := operator.NewUnion(sp.w.QueryName(qi) + ".union")
		u.Out().AttachFunc(sink.Accept)
		sp.unions = append(sp.unions, u)
		sp.sinks = append(sp.sinks, sink)
		for si := range sp.slices {
			if start, _ := sp.slices[si].join.Range(); start < q.Window {
				if err := sp.rewireSlice(si); err != nil {
					return err
				}
			}
		}
		sp.rebuildOps()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return qi, nil
}

// Detach unsubscribes query slot qi from the live chain driven by s. The
// slot's union inputs are closed — flushing buffered results in order,
// followed by a final MaxTime punctuation — and trailing slices left with
// no subscribing query are garbage-collected, shrinking the chain (and its
// window states) to the largest remaining live window. The slot index stays
// valid and its sink keeps the counts and results delivered before the
// detach, but the slot is no longer scheduled: the next restructure drops
// its union inputs and takes its union and sink out of the operator list.
// At least one live query must remain.
func (sp *StateSlicePlan) Detach(s *engine.Session, qi int) error {
	if err := sp.migratable(s); err != nil {
		return fmt.Errorf("plan: Detach: %w", err)
	}
	if sp.w.AnyFilter() {
		return fmt.Errorf("plan: Detach: admission requires a fully unfiltered workload (pushed-down selections specialize the chain to the build-time query set)")
	}
	if qi < 0 || qi >= len(sp.live) {
		return fmt.Errorf("plan: Detach(%d): chain has %d query slots", qi, len(sp.live))
	}
	if !sp.live[qi] {
		return fmt.Errorf("plan: Detach(%d): query %s is already detached", qi, sp.w.QueryName(qi))
	}
	maxLive := stream.Time(0)
	for k, q := range sp.w.Queries {
		if k != qi && sp.live[k] && q.Window > maxLive {
			maxLive = q.Window
		}
	}
	if maxLive == 0 {
		return fmt.Errorf("plan: Detach(%d): detaching %s would leave the chain with no live query; finish the session instead", qi, sp.w.QueryName(qi))
	}
	if err := sp.beginRestructure("Detach"); err != nil {
		return err
	}
	defer sp.endRestructure()

	win := sp.w.Queries[qi].Window
	return s.Barrier(func() error {
		sp.live[qi] = false
		// Garbage-collect trailing slices no live query subscribes to:
		// disconnect them from the kept prefix (the last kept slice's
		// propagate port then discards, like any chain tail) and close
		// their union edges so the affected unions can flush.
		keep := len(sp.slices)
		for keep > 1 {
			if start, _ := sp.slices[keep-1].join.Range(); start >= maxLive {
				keep--
			} else {
				break
			}
		}
		if keep < len(sp.slices) {
			sp.slices[keep-1].join.Next().DetachAll()
			for _, n := range sp.slices[keep:] {
				sp.closeEdges(n)
				n.join.Result().DetachAll()
				n.join.Next().DetachAll()
			}
			sp.slices = sp.slices[:keep]
		}
		// Resubscribe the kept slices that served the detached query;
		// rewiring drops its union inputs (and any router branch or
		// result edge only it used). With every input closed, the
		// union's frontier reaches MaxTime and the barrier's final
		// drain flushes it through the sink.
		for si := range sp.slices {
			if start, _ := sp.slices[si].join.Range(); start < win {
				if err := sp.rewireSlice(si); err != nil {
					return err
				}
			}
		}
		sp.rebuildOps()
		return nil
	})
}

// admissible validates that query q may be attached to this chain.
func (sp *StateSlicePlan) admissible(q Query) error {
	if sp.w.AnyFilter() {
		return fmt.Errorf("admission requires a fully unfiltered workload (pushed-down selections specialize the chain to the build-time query set)")
	}
	if q.HasFilter() || q.HasFilterB() {
		return fmt.Errorf("attached queries must be unfiltered (the slice states were not lineage-marked for a new predicate)")
	}
	if q.Window <= 0 {
		return fmt.Errorf("attached query has non-positive window %s", q.Window)
	}
	return nil
}

// boundaryIndex returns the index of the slice ending exactly at w, or -1
// when w is not a slice boundary.
func (sp *StateSlicePlan) boundaryIndex(w stream.Time) int {
	for i, n := range sp.slices {
		if _, end := n.join.Range(); end == w {
			return i
		}
	}
	return -1
}

// rewireSlice rebuilds slice si's result path for the current served set:
// existing union inputs are closed (their residue drains in order), the
// result port is stripped, and wireSliceResults reattaches routers, filters
// and union edges for the live subscribers.
func (sp *StateSlicePlan) rewireSlice(si int) error {
	node := sp.slices[si]
	sp.closeEdges(node)
	node.join.Result().DetachAll()
	return sp.wireSliceResults(si)
}

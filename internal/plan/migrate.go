package plan

import (
	"fmt"

	"stateslice/internal/engine"
	"stateslice/internal/fault"
	"stateslice/internal/stream"
)

// Online migration of the state-slicing chain (Section 5.3 of the paper).
// The chain is maintained with two primitive operations — merging two
// adjacent sliced joins and splitting one sliced join — applied between
// scheduler steps of a live session. Both reuse the existing window states:
// merging concatenates them, splitting lets the shrunk left slice purge its
// now-out-of-range tuples into the new right slice ahead of any probing
// male, so no result is lost or duplicated during the transition.
//
// The overhead is constant plan surgery plus, for merges, draining the
// queue between the two slices, matching the paper's analysis ("the system
// suspending time during join splitting is neglectable, while during join
// merging it is bounded by the execution time needed to empty the queue
// in-between").

// MergeSlices merges slice i and slice i+1 (0-based chain positions) of a
// live migratable plan driven by the session. The merged slice serves the
// union of both slices' queries, acquiring a router when their windows
// differ (Figure 13(b)).
func (sp *StateSlicePlan) MergeSlices(s *engine.Session, i int) error {
	if err := sp.migratable(s); err != nil {
		return err
	}
	if err := sp.beginRestructure("MergeSlices"); err != nil {
		return err
	}
	defer sp.endRestructure()
	return sp.mergeSlices(s, i)
}

// mergeSlices is the MergeSlices body, shared with MigrateTo, which holds
// the restructuring guard across its whole merge/split sequence.
func (sp *StateSlicePlan) mergeSlices(s *engine.Session, i int) error {
	if i < 0 || i+1 >= len(sp.slices) {
		return fmt.Errorf("plan: MergeSlices(%d): chain has %d slices", i, len(sp.slices))
	}
	// Empty the inter-slice queue (and everything else) first; a drain
	// failure (contained operator panic, non-quiescing graph) aborts the
	// surgery before any wiring is touched.
	s.Drain()
	if err := s.Err(); err != nil {
		return fmt.Errorf("plan: MergeSlices(%d): %w", i, err)
	}
	left, right := sp.slices[i], sp.slices[i+1]
	if err := left.join.MergeFrom(right.join); err != nil {
		return fmt.Errorf("plan: MergeSlices(%d): %w", i, err)
	}
	left.join.Rename(sliceName(left.join.Range()))
	sp.closeEdges(left)
	sp.closeEdges(right)
	left.join.Result().DetachAll()
	sp.slices = append(sp.slices[:i+1], sp.slices[i+2:]...)
	if err := sp.wireSliceResults(i); err != nil {
		return err
	}
	sp.rebuildOps()
	return nil
}

// SplitSlice splits slice i of a live migratable plan at window boundary
// mid, inserting a new slice [mid, end) to its right with initially empty
// states; the left slice's next cross-purges migrate the out-of-range
// tuples into it.
func (sp *StateSlicePlan) SplitSlice(s *engine.Session, i int, mid stream.Time) error {
	if err := sp.migratable(s); err != nil {
		return err
	}
	if err := sp.beginRestructure("SplitSlice"); err != nil {
		return err
	}
	defer sp.endRestructure()
	return sp.splitSlice(s, i, mid)
}

// splitSlice is the SplitSlice body, shared with MigrateTo and with
// admission (Attach splits at most one slice), which hold the restructuring
// guard across their whole sequence.
func (sp *StateSlicePlan) splitSlice(s *engine.Session, i int, mid stream.Time) error {
	if i < 0 || i >= len(sp.slices) {
		return fmt.Errorf("plan: SplitSlice(%d): chain has %d slices", i, len(sp.slices))
	}
	s.Drain()
	if err := s.Err(); err != nil {
		return fmt.Errorf("plan: SplitSlice(%d): %w", i, err)
	}
	left := sp.slices[i]
	_, end := left.join.Range()
	rightJoin, err := left.join.SplitAt(sliceName(mid, end), mid)
	if err != nil {
		return fmt.Errorf("plan: SplitSlice(%d): %w", i, err)
	}
	left.join.Rename(sliceName(left.join.Range()))
	rightNode := &sliceNode{join: rightJoin}
	// Interpose the selection gate between the two new slices when the
	// remaining queries warrant one. SplitAt wired left.next directly to
	// the right join's input queue; reroute that path through the gate.
	if sp.needsGate(mid) {
		left.join.Next().DetachAll()
		rightNode.gate = sp.newGate(mid, left.join.Next().NewQueue(), rightJoin.In())
	}
	sp.closeEdges(left)
	left.join.Result().DetachAll()
	sp.slices = append(sp.slices[:i+1], append([]*sliceNode{rightNode}, sp.slices[i+1:]...)...)
	if err := sp.wireSliceResults(i); err != nil {
		return err
	}
	if err := sp.wireSliceResults(i + 1); err != nil {
		return err
	}
	sp.rebuildOps()
	return nil
}

// MigrateTo re-slices the live chain to the given slice end boundaries
// (ascending; the last must equal the chain's current largest boundary) by
// diffing the target against the current layout and applying the merges
// (right to left, so the chain never grows beyond max(len(cur), len(to))
// slices mid-migration) and splits that transform one into the other —
// exactly the Section 5.3 maintenance primitives. It is the whole-layout
// form of MergeSlices/SplitSlice used by Plan.Migrate; the sharded executor
// fans it out to every chain replica.
func (sp *StateSlicePlan) MigrateTo(s *engine.Session, to []stream.Time) error {
	if err := sp.migratable(s); err != nil {
		return err
	}
	if err := sp.beginRestructure("MigrateTo"); err != nil {
		return err
	}
	defer sp.endRestructure()
	if len(to) == 0 {
		return fmt.Errorf("plan: migration target needs at least one slice boundary")
	}
	prev := stream.Time(0)
	for i, b := range to {
		if b <= prev {
			return fmt.Errorf("plan: migration boundaries must be positive and strictly ascending (index %d: %s after %s)", i, b, prev)
		}
		prev = b
	}
	cur := sp.Ends()
	if last, want := to[len(to)-1], cur[len(cur)-1]; last != want {
		return fmt.Errorf("plan: final migration boundary %s must equal the chain's largest boundary %s", last, want)
	}
	target := make(map[stream.Time]bool, len(to))
	for _, b := range to {
		target[b] = true
	}
	// Merges first, right to left.
	for {
		cur = sp.Ends()
		idx := -1
		for i := len(cur) - 2; i >= 0; i-- {
			if !target[cur[i]] {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		if err := sp.mergeSlices(s, idx); err != nil {
			return err
		}
	}
	// Then splits, introducing the boundaries the chain lacks.
	for _, b := range to[:len(to)-1] {
		cur = sp.Ends()
		have := false
		idx := -1
		start := stream.Time(0)
		for i, e := range cur {
			if e == b {
				have = true
				break
			}
			if start < b && b < e {
				idx = i
				break
			}
			start = e
		}
		if have {
			continue
		}
		if idx < 0 {
			return fmt.Errorf("plan: no slice contains migration boundary %s (chain ends %v)", b, cur)
		}
		if err := sp.splitSlice(s, idx, b); err != nil {
			return err
		}
	}
	return nil
}

// beginRestructure takes the chain's restructuring guard, rejecting
// reentrant surgery: a sink callback fired from inside a live migration or
// admission barrier observes the chain mid-restructure and must not start a
// second one.
func (sp *StateSlicePlan) beginRestructure(op string) error {
	if sp.restructuring {
		return fmt.Errorf("plan: %s: chain %s: %w (a migration or admission is in progress; calling back into the chain from a result sink during a barrier is not allowed)", op, sp.Plan.Name, fault.ErrRestructuring)
	}
	sp.restructuring = true
	return nil
}

// endRestructure releases the restructuring guard.
func (sp *StateSlicePlan) endRestructure() { sp.restructuring = false }

// migratable validates migration preconditions.
func (sp *StateSlicePlan) migratable(s *engine.Session) error {
	if !sp.cfg.Migratable {
		return fmt.Errorf("plan: %s: %w (build with Migratable set)", sp.Plan.Name, fault.ErrNotMigratable)
	}
	if s == nil || s.Plan() != sp.Plan {
		return fmt.Errorf("plan: %s: %w", sp.Plan.Name, fault.ErrNoSession)
	}
	return nil
}

// closeEdges closes every union input fed by the node, so stale queues stop
// blocking merge progress while their residual tuples still drain in order;
// rebuildOps unregisters them once drained.
func (sp *StateSlicePlan) closeEdges(n *sliceNode) {
	for _, e := range n.edges {
		e.union.CloseInput(e.queue)
	}
	n.edges = nil
}

package operator

import (
	"fmt"

	"stateslice/internal/stream"
)

// Router dispatches joined result tuples to query outputs by comparing the
// timestamp distance |Ta - Tb| of each result against the registered window
// sizes (Figure 3 of the paper). A result with distance d is delivered to
// every branch whose window w satisfies d <= w.
//
// Branches must be registered in ascending window order. Because the
// branches are nested (d <= w_k implies d <= w_{k+1}), the router scans
// boundaries from the smallest window and stops at the first success; the
// final boundary is never tested because every tuple reaching the router
// already satisfies the largest window. This makes the measured routing cost
// one comparison per result for two queries, exactly the routing term of
// Eq. (1), and fanout-1 routers cost nothing.
//
// Branches may additionally carry an unconditional extra set of outputs
// (AttachAll) that receive every result without any comparison — the
// downstream queries whose windows exceed the slice's end window in a merged
// chain (Figure 13(b)).
type Router struct {
	name    string
	in      *stream.Queue
	windows []stream.Time
	outs    []*Port
	all     Port
	// testLast disables the implied-last-boundary optimization: it is
	// required when results may carry distances beyond the largest branch
	// window (a slice whose end window exceeds every query window inside
	// it, as can arise from an online split at a non-window boundary).
	testLast bool
}

// NewRouter builds a router over the input queue.
func NewRouter(name string, in *stream.Queue) *Router {
	return &Router{name: name, in: in}
}

// AddBranch registers an output branch for the given window size and returns
// its port. Branches must be added in strictly ascending window order.
func (r *Router) AddBranch(w stream.Time) (*Port, error) {
	if n := len(r.windows); n > 0 && w <= r.windows[n-1] {
		return nil, fmt.Errorf("operator %s: branch windows must be strictly ascending (got %s after %s)",
			r.name, w, r.windows[n-1])
	}
	r.windows = append(r.windows, w)
	p := &Port{}
	r.outs = append(r.outs, p)
	return p, nil
}

// RequireLastCheck makes the router test the largest branch window too,
// instead of treating it as implied. Callers must enable it when routed
// results can carry a timestamp distance beyond the largest branch.
func (r *Router) RequireLastCheck() { r.testLast = true }

// All exposes the unconditional output port receiving every result.
func (r *Router) All() *Port { return &r.all }

// Branches returns the registered branch windows.
func (r *Router) Branches() []stream.Time {
	out := make([]stream.Time, len(r.windows))
	copy(out, r.windows)
	return out
}

// Name implements Operator.
func (r *Router) Name() string { return r.name }

// Pending implements Operator.
func (r *Router) Pending() bool { return !r.in.Empty() }

// Step implements Operator.
func (r *Router) Step(m *CostMeter, max int) int {
	n := 0
	for n < budget(max) && !r.in.Empty() {
		it := r.in.Pop()
		n++
		m.invoke(1)
		if it.IsPunct() {
			for _, p := range r.outs {
				p.Push(it)
			}
			r.all.Push(it)
			continue
		}
		first := routeFirst(m, r.windows, r.testLast, it.Tuple.WindowDiff())
		if first >= 0 {
			for k := first; k < len(r.outs); k++ {
				r.outs[k].Push(it)
			}
		}
		r.all.Push(it)
	}
	return n
}

// routeFirst returns the index of the first branch window accepting the
// timestamp distance d, or -1 when none does, charging one route comparison
// per boundary examined. Unless testLast is set, the scan never tests the
// last boundary: results reaching a router satisfy it by construction (the
// join's own window equals the largest branch window). The Router and a
// union's per-output router test both call it.
func routeFirst(m *CostMeter, windows []stream.Time, testLast bool, d stream.Time) int {
	limit := len(windows)
	if !testLast {
		limit--
	}
	for k := 0; k < limit; k++ {
		m.route(1)
		if d <= windows[k] {
			return k
		}
	}
	if testLast {
		return -1
	}
	return len(windows) - 1 // implied last boundary
}

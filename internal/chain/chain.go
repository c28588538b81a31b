// Package chain implements the chain build-up algorithms of Sections 5 and 6
// of the State-Slice paper: the Mem-Opt chain (one slice per distinct query
// window, Theorem 3/4: minimal state memory) and the CPU-Opt chain (merge
// adjacent slices to trade routing cost against purge and scheduling
// overhead, found as a shortest path over the slice-merge DAG with
// Dijkstra's algorithm, Section 5.2).
//
// Dijkstra (the paper's choice) computes the CPU-Opt chain; the tests check
// it against a topological-order dynamic program and exhaustive enumeration,
// mirroring the paper's optimality proof.
package chain

import (
	"container/heap"
	"fmt"
	"math"

	"stateslice/internal/cost"
)

// MemOptEnds returns the slice boundaries of the Mem-Opt chain: every
// distinct query window, in ascending order (Section 5.1).
func MemOptEnds(queries []cost.QuerySpec) []float64 {
	return cost.DistinctWindows(queries)
}

// Result describes an optimized chain.
type Result struct {
	// Ends are the slice end boundaries in ascending order.
	Ends []float64
	// CPU is the modelled CPU cost (comparisons/second) of the chain.
	CPU float64
	// MemoryKB is the modelled state memory of the chain.
	MemoryKB float64
}

// CPUOptEnds finds the slice boundaries minimising the modelled CPU cost
// using Dijkstra's algorithm over the directed acyclic slice-merge graph of
// Figure 14: node i represents window boundary w_i (w_0 = 0), edge (i, j)
// a merged slice covering (w_i, w_j], weighted by cost.EdgeCost. The run is
// O(N^2) in the number of distinct windows, as the paper states.
func CPUOptEnds(queries []cost.QuerySpec, p cost.ChainParams) (*Result, error) {
	if err := cost.ValidateQueries(queries); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bounds := append([]float64{0}, cost.DistinctWindows(queries)...)
	n := len(bounds)

	dist := make([]float64, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[0] = 0
	pq := &nodeHeap{{node: 0, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(nodeItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == n-1 {
			break
		}
		for v := u + 1; v < n; v++ {
			w := cost.EdgeCost(queries, bounds[u], bounds[v], p)
			if d := dist[u] + w; d < dist[v] {
				dist[v] = d
				prev[v] = u
				heap.Push(pq, nodeItem{node: v, dist: d})
			}
		}
	}
	if math.IsInf(dist[n-1], 1) {
		return nil, fmt.Errorf("chain: no path through the slice graph (internal error)")
	}
	var ends []float64
	for v := n - 1; v > 0; v = prev[v] {
		ends = append(ends, bounds[v])
	}
	reverse(ends)
	res := &Result{Ends: ends, CPU: dist[n-1]}
	mem, err := memoryOf(queries, ends, p)
	if err != nil {
		return nil, err
	}
	res.MemoryKB = mem
	return res, nil
}

// memoryOf evaluates the chain memory model for a boundary list.
func memoryOf(queries []cost.QuerySpec, ends []float64, p cost.ChainParams) (float64, error) {
	c, err := cost.ChainCost(queries, ends, p)
	if err != nil {
		return 0, err
	}
	return c.MemoryKB, nil
}

func reverse(xs []float64) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// nodeItem and nodeHeap implement the Dijkstra priority queue.
type nodeItem struct {
	node int
	dist float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

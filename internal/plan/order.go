// Package plan implements GEMS's dynamic query planning (paper §III-B):
// choosing the order and direction in which a path query traverses the
// bidirectional edge indexes, using the catalog's size and degree
// statistics; and the part of the multi-statement dependence analysis
// (§III-B1) that script execution uses: which earlier statement of a
// script produced a result a statement reads.
package plan

import (
	"math"

	"graql/internal/sema"
)

// Estimator supplies the dynamic statistics the planner consumes. The
// execution engine implements it over the catalog and the current variant
// typing.
type Estimator interface {
	// NodeCount estimates the candidate cardinality of a pattern node
	// after its step condition.
	NodeCount(node int) float64
	// EdgeFanout estimates the expansion factor of traversing pattern
	// edge e: per bound source vertex when forward (src→dst), per bound
	// target vertex when backward.
	EdgeFanout(edge int, forward bool) float64
	// CanTraverse reports whether the edge can be traversed in the given
	// direction with an index (a missing reverse index disables backward
	// traversal, §III-B).
	CanTraverse(edge int, forward bool) bool
}

// Visit is one step of a join/traversal order: bind Node by traversing
// pattern edge Via from its already-bound endpoint (Forward = from the
// edge's source to its target). Via -1 starts a new component by scanning
// Node's candidates.
type Visit struct {
	Node    int
	Via     int
	Forward bool
}

// Order computes a greedy cost-based visit order for a pattern: start at
// the node with the smallest estimated candidate set, then repeatedly bind
// the cheapest reachable unbound node, preferring index directions that
// exist and minimising the estimated intermediate cardinality — the
// paper's "series of decisions on which order to traverse the edge
// indexes" (§III-B).
func Order(pat *sema.Pattern, est Estimator) []Visit {
	n := len(pat.Nodes)
	bound := make([]bool, n)
	order := make([]Visit, 0, n)

	for len(order) < n {
		// Start (or restart, for safety on disconnected inputs) at the
		// cheapest unbound node.
		if len(order) == 0 || !anyReachable(pat, bound) {
			best, bestCard := -1, math.Inf(1)
			for i := 0; i < n; i++ {
				if bound[i] {
					continue
				}
				if c := est.NodeCount(i); c < bestCard {
					best, bestCard = i, c
				}
			}
			order = append(order, Visit{Node: best, Via: -1})
			bound[best] = true
			continue
		}
		// Cheapest expansion from the bound frontier.
		bestVisit := Visit{Node: -1}
		bestCost := math.Inf(1)
		for _, e := range pat.Edges {
			var node int
			var fwd bool
			switch {
			case bound[e.Src] && !bound[e.Dst]:
				node, fwd = e.Dst, true
			case bound[e.Dst] && !bound[e.Src]:
				node, fwd = e.Src, false
			default:
				continue
			}
			cost := est.EdgeFanout(e.ID, fwd) * nodeSelectivity(est, node)
			if !est.CanTraverse(e.ID, fwd) {
				// Traversal without an index degrades to an edge scan;
				// strongly discourage but keep feasible.
				cost *= 1e6
			}
			if cost < bestCost {
				bestCost = cost
				bestVisit = Visit{Node: node, Via: e.ID, Forward: fwd}
			}
		}
		order = append(order, bestVisit)
		bound[bestVisit.Node] = true
	}
	return order
}

// nodeSelectivity scales fan-out by how selective the target node's own
// condition is, approximated by comparing its filtered estimate with a
// plain scan of the type.
func nodeSelectivity(est Estimator, node int) float64 {
	c := est.NodeCount(node)
	if c <= 0 {
		return 1e-9
	}
	return c / (c + 1) // monotone damping; detailed stats live in NodeCount
}

func anyReachable(pat *sema.Pattern, bound []bool) bool {
	for _, e := range pat.Edges {
		if bound[e.Src] != bound[e.Dst] {
			return true
		}
	}
	return false
}

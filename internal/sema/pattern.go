// Package sema implements GraQL static query analysis (paper §III-A):
// name resolution against the catalog, strong type checking of conditions
// (e.g. rejecting a comparison of a date with a float), well-formedness of
// path queries, label scoping, and the restrictions on variant steps. Its
// output is an analysed, resolved form of each statement that the
// execution engine consumes directly.
package sema

import (
	"graql/internal/expr"
	"graql/internal/graph"
)

// Pattern is the analysed form of one and-composition of simple path
// queries (paper §II-B3): a connected pattern graph whose nodes are vertex
// steps and whose edges are edge steps or path-regular-expression
// fragments. Element-wise ("foreach") label references unify into a single
// node; set ("def") label references become independent nodes with the
// same type and condition (the paper's Eq. 7 equivalence).
type Pattern struct {
	Nodes []*Node
	Edges []*PEdge
	// StepOrder lists the steps in source order across the composed
	// paths (with unified nodes appearing at first occurrence only).
	// "select *" and subgraph capture use this ordering.
	StepOrder []StepRef
}

// StepRef addresses a pattern node or edge in source order.
type StepRef struct {
	IsEdge bool
	Index  int
}

// Node is one pattern vertex (a vertex step after resolution).
type Node struct {
	ID int
	// Type is the concrete vertex type, or nil for a "[ ]" variant step.
	Type *graph.VertexType
	// SameTypeAs constrains a variant node to take the same concrete
	// type as another node (a set-labelled type-matching step, paper
	// Eq. 12); -1 when unconstrained.
	SameTypeAs int
	// Cond is the resolved step condition (nil = no filter). References
	// use pattern source numbering: nodes are sources [0, len(Nodes));
	// edges are sources [len(Nodes), len(Nodes)+len(Edges)).
	Cond expr.Expr
	// Seed names a prior subgraph result restricting this step's start
	// set (Fig. 12), or "".
	Seed string
	// Labels are the label names bound to this node.
	Labels []string
	// Foreach reports whether the node carries an element-wise label.
	Foreach bool
	// Poisoned marks a node whose step failed to resolve (unknown type,
	// bad label, ...). The analyzer keeps building the pattern around it
	// to find further independent problems, but suppresses cascading
	// diagnostics about the node itself. Poisoned patterns never execute.
	Poisoned bool
}

// PEdge is one pattern edge (an edge step or regex fragment). Direction is
// normalised: Src/Dst are pattern node ids such that the underlying edge
// type's source vertex is at Src.
type PEdge struct {
	ID  int
	Src int
	Dst int
	// Type is the concrete edge type, or nil for a variant or regex
	// step.
	Type *graph.EdgeType
	// Cond is the resolved edge condition (concrete-typed steps only).
	Cond expr.Expr
	// Regex is non-nil for a path-regular-expression fragment; Type is
	// then nil and the fragment's own step specs live in the program.
	Regex *Regex
	// Labels are the label names bound to this edge.
	Labels []string
	// Poisoned marks an edge whose step failed to resolve; see
	// Node.Poisoned.
	Poisoned bool
}

// Regex is an analysed path regular expression (Fig. 10): a fragment of
// (edge, vertex) step specs repeated between Min and Max times (Max < 0 =
// unbounded). Conditions and labels are not permitted inside regex
// fragments (variant steps admit no conditions, §II-B4).
type Regex struct {
	Steps []RegexStep
	Min   int
	Max   int
}

// RegexStep is one (edge, landing-vertex) pair inside a regex fragment.
// Nil types are variant ("[ ]") specs matching any type.
type RegexStep struct {
	Edge *graph.EdgeType
	Out  bool // traversal direction relative to the fragment's travel
	Vtx  *graph.VertexType
}

// NodeByLabel returns the node carrying the given label, or nil.
func (p *Pattern) NodeByLabel(name string) *Node {
	for _, n := range p.Nodes {
		for _, l := range n.Labels {
			if l == name {
				return n
			}
		}
	}
	return nil
}

// EdgeByLabel returns the edge carrying the given label, or nil.
func (p *Pattern) EdgeByLabel(name string) *PEdge {
	for _, e := range p.Edges {
		for _, l := range e.Labels {
			if l == name {
				return e
			}
		}
	}
	return nil
}

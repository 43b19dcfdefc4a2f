package plan

import (
	"strings"

	"graql/internal/ast"
)

// This file implements multi-statement GraQL scheduling (paper §III-B1):
// given a script Ω = q1 … qn and the explicit inputs/outputs expressed by
// "into table" / "into subgraph" clauses, build a dependence DAG and derive
// stages of statements that may execute in parallel.

// rwSet is the read/write footprint of one statement, over lower-cased
// object names plus the pseudo-object "#graph" (the view layer) and
// "#catalog" (DDL structure).
type rwSet struct {
	reads  map[string]bool
	writes map[string]bool
}

func newRW() rwSet {
	return rwSet{reads: map[string]bool{}, writes: map[string]bool{}}
}

func (s rwSet) read(name string)  { s.reads[strings.ToLower(name)] = true }
func (s rwSet) write(name string) { s.writes[strings.ToLower(name)] = true }

func footprint(st ast.Stmt) rwSet {
	s := newRW()
	switch q := st.(type) {
	case *ast.CreateTable:
		s.write("#catalog")
		s.write(q.Name)
	case *ast.CreateVertex:
		s.write("#catalog")
		s.write("#graph")
		s.read(q.From)
	case *ast.CreateEdge:
		s.write("#catalog")
		s.write("#graph")
		for _, t := range q.FromTables {
			s.read(t)
		}
	case *ast.Ingest:
		s.write(q.Table)
		s.write("#graph") // ingest regenerates derived views (§II-A2)
		s.read("#catalog")
	case *ast.Output:
		s.read(q.Table)
		s.read("#catalog")
	case *ast.Insert:
		s.write(q.Table)
		s.write("#graph") // mutations maintain derived views incrementally
		s.read("#catalog")
	case *ast.Update:
		s.write(q.Table)
		s.write("#graph")
		s.read("#catalog")
	case *ast.Delete:
		s.write(q.Table)
		s.write("#graph")
		s.read("#catalog")
	case *ast.Select:
		if q.Graph != nil {
			s.read("#graph")
			forEachSeed(q, s.read)
		} else {
			s.read(q.FromTable)
		}
		s.read("#catalog")
		if q.Into.Kind != ast.IntoNone {
			s.write(q.Into.Name)
		}
	}
	return s
}

// forEachSeed calls fn with the subgraph of every seeded step (resQ1.Vn,
// Fig. 12) of a graph select.
func forEachSeed(q *ast.Select, fn func(subgraph string)) {
	if q.Graph == nil {
		return
	}
	for _, term := range q.Graph.Terms {
		for _, p := range term.Paths {
			for _, el := range p.Elems {
				if v, ok := el.(*ast.VertexStep); ok && v.SeedGraph != "" {
					fn(v.SeedGraph)
				}
			}
		}
	}
}

func conflicts(a, b rwSet) bool {
	for w := range a.writes {
		if b.reads[w] || b.writes[w] {
			return true
		}
	}
	for w := range b.writes {
		if a.reads[w] {
			return true
		}
	}
	return false
}

// Dependencies returns, for each statement, the indexes of earlier
// statements it must wait for (write→read, read→write and write→write
// conflicts on tables, subgraphs, the view layer and the catalog).
func Dependencies(script *ast.Script) [][]int {
	fps := make([]rwSet, len(script.Stmts))
	for i, st := range script.Stmts {
		fps[i] = footprint(st)
	}
	deps := make([][]int, len(script.Stmts))
	for i := range script.Stmts {
		for j := 0; j < i; j++ {
			if conflicts(fps[j], fps[i]) {
				deps[i] = append(deps[i], j)
			}
		}
	}
	return deps
}

// Stages groups statement indexes into topological levels: every
// statement in stage k depends only on statements in stages < k, so the
// members of one stage can execute concurrently (§III-B1). Statement
// order within a stage follows script order.
func Stages(script *ast.Script) [][]int {
	deps := Dependencies(script)
	level := make([]int, len(deps))
	maxLevel := 0
	for i := range deps {
		l := 0
		for _, d := range deps[i] {
			if level[d]+1 > l {
				l = level[d] + 1
			}
		}
		level[i] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	stages := make([][]int, maxLevel+1)
	for i, l := range level {
		stages[l] = append(stages[l], i)
	}
	return stages
}

// Local is a result that a statement reads and an earlier statement of
// the same script produced.
type Local struct {
	Name     string // as the reader spells it
	Subgraph bool   // a named subgraph, else a table
	At       int    // index of the producing statement
}

// Locals returns, for each statement, the results it reads that an
// earlier statement of its script produced: for a table select's source,
// an output's table and each seeded step's subgraph, the nearest earlier
// select into that name (an explain produces nothing), unless another
// statement wrote the name in between. A subgraph result stays in reach
// across writes: whether a write left it valid is decided where it is
// resolved (sema.ResolveSubgraph), so a stale one is unknown there. A
// producer conflicts with its reader, so Stages puts it in an earlier
// stage. A script with no select into a result yields nil, and allocates
// nothing.
func Locals(stmts []ast.Stmt) [][]Local {
	type key struct {
		name string
		sub  bool
	}
	var last map[key]int // the producer of each live result
	var out [][]Local
	for i, st := range stmts {
		read := func(name string, sub bool) {
			if last == nil {
				return // nothing produced yet
			}
			if at, ok := last[key{strings.ToLower(name), sub}]; ok {
				out[i] = append(out[i], Local{Name: name, Subgraph: sub, At: at})
			}
		}
		switch q := st.(type) {
		case *ast.Select:
			if q.Graph == nil {
				read(q.FromTable, false)
			}
			forEachSeed(q, func(name string) { read(name, true) })
			if q.Explain || q.Into.Kind == ast.IntoNone {
				continue
			}
			if last == nil {
				last, out = map[key]int{}, make([][]Local, len(stmts))
			}
			last[key{strings.ToLower(q.Into.Name), q.Into.Kind == ast.IntoSubgraph}] = i
		case *ast.Output:
			read(q.Table, false)
		default:
			if last == nil {
				continue
			}
			for w := range footprint(st).writes {
				delete(last, key{w, false}) // a table the statement replaces
			}
		}
	}
	return out
}

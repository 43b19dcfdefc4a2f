package plan

import (
	"strings"

	"graql/internal/ast"
)

// This file implements the dependence analysis of a GraQL script that
// its execution reads (paper §III-B1): for each statement, the results of
// "into table" / "into subgraph" clauses of earlier statements it reads.

// replaces returns the table a statement replaces — create table, ingest,
// insert, update and delete — or "" for any other statement.
func replaces(st ast.Stmt) string {
	switch q := st.(type) {
	case *ast.CreateTable:
		return q.Name
	case *ast.Ingest:
		return q.Table
	case *ast.Insert:
		return q.Table
	case *ast.Update:
		return q.Table
	case *ast.Delete:
		return q.Table
	}
	return ""
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
// script with no select into a result yields nil, and allocates nothing.
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
			if last != nil {
				delete(last, key{strings.ToLower(replaces(st)), false})
			}
		}
	}
	return out
}

package exec

import (
	"math/rand"

	"graql/internal/table"
)

// SelGen exposes the table-select statement generator of
// tablesel_prop_test.go to the external exec_test package, whose tests
// may import internal/server (which imports this package).
type SelGen struct{ g stmtGen }

// NewSelGen draws a random table and a generator of statements over it.
func NewSelGen(r *rand.Rand, name string, rows int) (*table.Table, SelGen) {
	tb := selTable(r, name, rows)
	return tb, SelGen{stmtGen{r: r, tb: tb}}
}

// Select draws a table select; Pred a well-typed where condition.
func (s SelGen) Select() string { return s.g.selectStmt() }
func (s SelGen) Pred() string   { return s.g.pred(2) }

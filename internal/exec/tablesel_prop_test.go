package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"graql/internal/ast"
	"graql/internal/catalog"
	"graql/internal/expr"
	"graql/internal/parser"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

// The late-materialising table select (DESIGN.md §16) must return what the
// composition it replaced returned: filter row by row through evalBool,
// materialise, then group / project / distinct / order / top, each on a
// materialised table. earlySelect below is that composition, kept as the
// oracle; statements are generated as text so the predicate reaches the
// kernels the way a user's does — through parser, sema and parameter
// binding.

var selKinds = []value.Type{value.Bool, value.Int, value.Float, value.Varchar(8), value.Date}

// selTable builds a random table with NULLs in every column.
func selTable(r *rand.Rand, name string, rows int) *table.Table {
	var schema table.Schema
	for c, n := 0, 2+r.Intn(5); c < n; c++ {
		schema = append(schema, table.ColumnDef{Name: fmt.Sprintf("c%d", c), Type: selKinds[r.Intn(len(selKinds))]})
	}
	tb := table.MustNew(name, schema)
	row := make([]value.Value, len(schema))
	for i := 0; i < rows; i++ {
		for c, cd := range schema {
			row[c], _ = value.Parse(selLiteral(r, cd.Type.Kind, true), cd.Type)
			if r.Intn(6) == 0 {
				row[c] = value.NewNull(cd.Type.Kind)
			}
		}
		if err := tb.AppendRow(row); err != nil {
			panic(err)
		}
	}
	return tb
}

// selLiteral draws a value of the kind from a small domain, as CSV text
// (raw) or as a GraQL literal.
func selLiteral(r *rand.Rand, k value.Kind, raw bool) string {
	switch k {
	case value.KindBool:
		return []string{"true", "false"}[r.Intn(2)]
	case value.KindInt:
		return fmt.Sprint(r.Intn(7) - 2)
	case value.KindFloat:
		return []string{"0.0", "-1.5", "0.5", "2.0", "2.5"}[r.Intn(5)]
	case value.KindString:
		s := []string{"", "a", "ab", "b", "graql"}[r.Intn(5)]
		if raw {
			return s
		}
		return "'" + s + "'"
	}
	d := fmt.Sprintf("1970-0%d-11", 1+r.Intn(5))
	if raw {
		return d
	}
	return "date '" + d + "'"
}

type stmtGen struct {
	r  *rand.Rand
	tb *table.Table
}

func (g stmtGen) colsOf(pred func(value.Kind) bool) []string {
	var out []string
	for _, cd := range g.tb.Schema() {
		if pred(cd.Type.Kind) {
			out = append(out, cd.Name)
		}
	}
	return out
}

func (g stmtGen) pick(s []string) string { return s[g.r.Intn(len(s))] }

// cmp is a well-typed comparison over a random column: against a literal,
// the parameter, NULL, a column of its kind, or — for numbers — arithmetic
// that only the generic kernel evaluates.
func (g stmtGen) cmp() string {
	cd := g.tb.Schema()[g.r.Intn(g.tb.NumCols())]
	k := cd.Type.Kind
	op := g.pick([]string{"=", "<>", "<", "<=", ">", ">="})
	same := g.colsOf(func(o value.Kind) bool { return o == k })
	nums := g.colsOf(value.Kind.Numeric)
	switch roll := g.r.Intn(10); {
	case roll < 5:
		return fmt.Sprintf("%s %s %s", cd.Name, op, selLiteral(g.r, k, false))
	case roll < 6 && k == value.KindInt:
		return fmt.Sprintf("%s %s %%P%%", cd.Name, op)
	case roll < 7:
		return fmt.Sprintf("%s %s null", cd.Name, op)
	case roll < 8:
		return fmt.Sprintf("%s %s %s", cd.Name, op, g.pick(same))
	case k.Numeric():
		return fmt.Sprintf("%s + %s %s 6 / %s", cd.Name, g.pick(nums), op, g.pick(nums)) // may divide by zero
	}
	return fmt.Sprintf("%s %s %s", selLiteral(g.r, k, false), op, cd.Name)
}

func (g stmtGen) pred(depth int) string {
	if depth <= 0 {
		return g.cmp()
	}
	switch roll := g.r.Intn(10); {
	case roll < 4:
		return g.cmp()
	case roll < 6:
		return fmt.Sprintf("(%s and %s)", g.pred(depth-1), g.pred(depth-1))
	case roll < 8:
		return fmt.Sprintf("(%s or %s)", g.pred(depth-1), g.pred(depth-1))
	case roll < 9:
		return fmt.Sprintf("not (%s)", g.pred(depth-1))
	}
	if bools := g.colsOf(func(k value.Kind) bool { return k == value.KindBool }); len(bools) > 0 {
		return g.pick(bools)
	}
	return g.cmp()
}

// selectStmt draws a table select: plain, computed or grouped projection,
// with random where / distinct / order by / top clauses.
func (g stmtGen) selectStmt() string {
	names := g.tb.Schema().Names()
	var items, outs, group []string
	switch g.r.Intn(4) {
	case 0: // grouped
		perm := g.r.Perm(len(names))
		for _, c := range perm[:g.r.Intn(min(len(names), 2)+1)] {
			group = append(group, names[c])
		}
		items, outs = append(items, group...), append(outs, group...)
		nums := g.colsOf(value.Kind.Numeric)
		for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
			alias := fmt.Sprintf("a%d", i)
			switch f := g.pick([]string{"count", "sum", "avg", "min", "max"}); {
			case f == "count" && g.r.Intn(2) == 0:
				items = append(items, "count(*) as "+alias)
			case (f == "sum" || f == "avg") && len(nums) == 0:
				items = append(items, fmt.Sprintf("min(%s) as %s", g.pick(names), alias))
			case f == "sum" || f == "avg":
				items = append(items, fmt.Sprintf("%s(%s) as %s", f, g.pick(nums), alias))
			default:
				items = append(items, fmt.Sprintf("%s(%s) as %s", f, g.pick(names), alias))
			}
			outs = append(outs, alias)
		}
		if g.r.Intn(2) == 0 { // the select list need not follow group-by order
			g.r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i]; outs[i], outs[j] = outs[j], outs[i] })
		}
	case 1: // star
		items, outs = []string{"*"}, names
	default: // a choice of columns, one in three with a computed item
		for _, c := range g.r.Perm(len(names))[:1+g.r.Intn(len(names))] {
			items, outs = append(items, names[c]), append(outs, names[c])
		}
		if nums := g.colsOf(value.Kind.Numeric); len(nums) > 0 && g.r.Intn(3) == 0 {
			items, outs = append(items, g.pick(nums)+" * 2 + 1 as e"), append(outs, "e")
		}
	}
	var b strings.Builder
	b.WriteString("select ")
	order := g.r.Intn(2) == 0
	if order && g.r.Intn(2) == 0 {
		fmt.Fprintf(&b, "top %d ", 1+g.r.Intn(12))
	}
	if g.r.Intn(4) == 0 {
		b.WriteString("distinct ")
	}
	fmt.Fprintf(&b, "%s from table %s", strings.Join(items, ", "), g.tb.Name)
	if g.r.Intn(4) != 0 {
		b.WriteString(" where " + g.pred(2))
	}
	if len(group) > 0 {
		b.WriteString(" group by " + strings.Join(group, ", "))
	}
	if order {
		var keys []string
		for _, c := range g.r.Perm(len(outs))[:1+g.r.Intn(min(len(outs), 3))] {
			keys = append(keys, outs[c]+g.pick([]string{"", " asc", " desc"}))
		}
		b.WriteString(" order by " + strings.Join(keys, ", "))
	}
	return b.String()
}

// analyzeSelect runs the front end on one statement.
func analyzeSelect(t *testing.T, e *Engine, src string) (*sema.Select, bool) {
	t.Helper()
	script, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("generated statement does not parse: %v\n%s", err, src)
	}
	analyzed, err := (&sema.Analyzer{Cat: e.Cat}).Analyze(script.Stmts[0])
	if err != nil {
		return nil, false // statically rejected (e.g. duplicate output names)
	}
	return analyzed.(*sema.Select), true
}

// earlySelect is the materialise-at-every-step table select this PR
// replaced, with the row-at-a-time filter.
func earlySelect(s *sema.Select, params map[string]value.Value) (*table.Table, error) {
	t := s.Table
	where, err := expr.BindParams(s.Where, params)
	if err != nil {
		return nil, err
	}
	idx, err := table.FilterIdx(t, func(r uint32) (bool, error) {
		if where == nil {
			return true, nil
		}
		return evalBool(where, singleTableEnv{t: t, row: r})
	})
	if err != nil {
		return nil, err
	}
	rows := t.Gather(t.Name, idx)
	var out *table.Table
	if s.Grouped {
		var aggs []table.AggSpec
		for _, it := range s.Items {
			if it.Agg != ast.AggNone {
				aggs = append(aggs, table.AggSpec{Func: astAggToTable(it.Agg), Col: it.Col, Name: it.Name})
			}
		}
		grouped, err := table.GroupBy(rows, "result", s.GroupBy, aggs)
		if err != nil {
			return nil, err
		}
		var colIdx []int
		var names []string
		aggPos := len(s.GroupBy)
		for _, it := range s.Items {
			if it.Agg == ast.AggNone {
				for ki, kc := range s.GroupBy {
					if kc == it.Col {
						colIdx = append(colIdx, ki)
						break
					}
				}
			} else {
				colIdx = append(colIdx, aggPos)
				aggPos++
			}
			names = append(names, it.Name)
		}
		out = grouped.ProjectCols("result", colIdx, names)
	} else {
		out = table.MustNew("result", s.OutSchema)
		row := make([]value.Value, len(s.Items))
		for r := uint32(0); r < uint32(rows.NumRows()); r++ {
			for i, it := range s.Items {
				if it.Col >= 0 {
					row[i] = rows.Value(r, it.Col)
					continue
				}
				be, err := expr.BindParams(it.Expr, params)
				if err != nil {
					return nil, err
				}
				if row[i], err = be.Eval(singleTableEnv{t: rows, row: r}); err != nil {
					return nil, err
				}
			}
			if err := out.AppendRow(row); err != nil {
				return nil, err
			}
		}
	}
	if s.Distinct {
		out = table.Distinct(out, nil)
	}
	if len(s.OrderBy) > 0 {
		keys := make([]table.SortKey, len(s.OrderBy))
		for i, k := range s.OrderBy {
			keys[i] = table.SortKey{Col: k.Col, Desc: k.Desc}
		}
		if out, err = table.OrderBy(out, keys); err != nil {
			return nil, err
		}
	}
	if s.Top > 0 {
		out = table.TopN(out, s.Top)
	}
	return out, nil
}

// renderTable prints schema and cells; two results are equal when this is.
func renderTable(tb *table.Table) string {
	var b strings.Builder
	for _, cd := range tb.Schema() {
		fmt.Fprintf(&b, "%s:%s|", cd.Name, cd.Type)
	}
	for r := uint32(0); r < uint32(tb.NumRows()); r++ {
		b.WriteByte('\n')
		for c := 0; c < tb.NumCols(); c++ {
			b.WriteString(tb.Value(r, c).String() + "|")
		}
	}
	return b.String()
}

func selEngine(workers int, tb *table.Table) *Engine {
	opts := DefaultOptions()
	opts.Workers = workers
	opts.ParallelThreshold = 1
	e := New(opts)
	e.Cat.Publish(catalog.Change{Table: tb})
	return e
}

func TestTableSelectMatchesEarlyMaterialisation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ran, failed := 0, 0
	for trial := 0; trial < 60; trial++ {
		tb := selTable(r, "P", r.Intn(80))
		serial, parallel := selEngine(1, tb), selEngine(4, tb)
		g := stmtGen{r: r, tb: tb}
		params := map[string]value.Value{"P": value.NewInt(int64(r.Intn(5)))}
		for i := 0; i < 25; i++ {
			src := g.selectStmt()
			s, ok := analyzeSelect(t, serial, src)
			if !ok {
				continue
			}
			want, wantErr := earlySelect(s, params)
			for _, e := range []*Engine{serial, parallel} {
				res, err := e.ExecScript(src, params)
				if (err == nil) != (wantErr == nil) || (err != nil && !strings.HasSuffix(err.Error(), wantErr.Error())) {
					t.Fatalf("%s (workers %d): error %v, reference %v", src, e.Opts.Workers, err, wantErr)
				}
				if err == nil && renderTable(res[0].Table) != renderTable(want) {
					t.Fatalf("%s (workers %d):\n%s\nreference:\n%s", src, e.Opts.Workers, renderTable(res[0].Table), renderTable(want))
				}
			}
			ran++
			if wantErr != nil {
				failed++
			}
		}
	}
	if ran < 800 || failed == 0 {
		t.Fatalf("corpus too thin: %d statements ran, %d of them failing at run time", ran, failed)
	}
}

// TestDMLWhereMatchesRowAtATime: update and delete find their rows through
// the compiled filter; the rows they touch are the ones evalBool accepts.
func TestDMLWhereMatchesRowAtATime(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 150; trial++ {
		tb := selTable(r, "P", r.Intn(60))
		e := selEngine(1, tb)
		g := stmtGen{r: r, tb: tb}
		params := map[string]value.Value{"P": value.NewInt(int64(r.Intn(5)))}
		pred := g.pred(2)
		s, ok := analyzeSelect(t, e, "select * from table P where "+pred)
		if !ok {
			continue
		}
		where, err := expr.BindParams(s.Where, params)
		if err != nil {
			t.Fatal(err)
		}
		var hit, keep []uint32
		var wantErr error
		for row := uint32(0); row < uint32(tb.NumRows()) && wantErr == nil; row++ {
			ok := true
			if where != nil { // sema drops a where clause that is always true
				ok, wantErr = evalBool(where, singleTableEnv{t: tb, row: row})
			}
			if ok {
				hit = append(hit, row)
			} else {
				keep = append(keep, row)
			}
		}

		stmt, msg, want := "delete from P where "+pred, fmt.Sprintf("deleted %d row(s) from P", len(hit)), tb.Gather("P", keep)
		if ints := g.colsOf(func(k value.Kind) bool { return k == value.KindInt }); len(ints) > 0 && trial%2 == 0 {
			col := tb.Schema().Index(ints[0])
			stmt, msg = fmt.Sprintf("update P set %s = 99 where %s", ints[0], pred), fmt.Sprintf("updated %d row(s) in P", len(hit))
			want = table.MustNew("P", tb.Schema())
			for row := uint32(0); row < uint32(tb.NumRows()); row++ {
				vals := tb.Row(row)
				if len(hit) > 0 && hit[0] == row {
					vals[col], hit = value.NewInt(99), hit[1:]
				}
				if err := want.AppendRow(vals); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := e.ExecScript(stmt, params)
		if wantErr != nil {
			if err == nil || !strings.HasSuffix(err.Error(), strings.TrimPrefix(wantErr.Error(), "graql: ")) {
				t.Fatalf("%s: error %v, reference %v", stmt, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if res[0].Message != msg || renderTable(e.Cat.Table("P")) != renderTable(want) {
			t.Fatalf("%s: %q, want %q\n%s\nreference:\n%s", stmt, res[0].Message, msg, renderTable(e.Cat.Table("P")), renderTable(want))
		}
	}
}

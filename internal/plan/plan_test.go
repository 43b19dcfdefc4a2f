package plan

import (
	"fmt"
	"testing"

	"graql/internal/ast"
	"graql/internal/parser"
	"graql/internal/sema"
)

// fakeEst is a hand-tuned estimator for order tests.
type fakeEst struct {
	counts  []float64
	fanout  map[[2]interface{}]float64
	noRev   map[int]bool
	fanDflt float64
}

func (f *fakeEst) NodeCount(n int) float64 { return f.counts[n] }
func (f *fakeEst) EdgeFanout(e int, fwd bool) float64 {
	if v, ok := f.fanout[[2]interface{}{e, fwd}]; ok {
		return v
	}
	if f.fanDflt > 0 {
		return f.fanDflt
	}
	return 1
}
func (f *fakeEst) CanTraverse(e int, fwd bool) bool { return fwd || !f.noRev[e] }

// chain builds the pattern for V0 -e0-> V1 -e1-> V2 ... (all edges
// forward).
func chainPattern(n int) *sema.Pattern {
	p := &sema.Pattern{}
	for i := 0; i < n; i++ {
		p.Nodes = append(p.Nodes, &sema.Node{ID: i, SameTypeAs: -1})
	}
	for i := 0; i+1 < n; i++ {
		p.Edges = append(p.Edges, &sema.PEdge{ID: i, Src: i, Dst: i + 1})
	}
	return p
}

func TestOrderVisitsEveryNodeOnce(t *testing.T) {
	pat := chainPattern(5)
	est := &fakeEst{counts: []float64{100, 100, 1, 100, 100}, fanDflt: 3}
	order := Order(pat, est)
	if len(order) != 5 {
		t.Fatalf("order length = %d", len(order))
	}
	seen := map[int]bool{}
	for i, v := range order {
		if seen[v.Node] {
			t.Fatalf("node %d visited twice", v.Node)
		}
		seen[v.Node] = true
		if i == 0 {
			if v.Via != -1 {
				t.Error("first visit must scan")
			}
			if v.Node != 2 {
				t.Errorf("should start at the most selective node 2, got %d", v.Node)
			}
			continue
		}
		if v.Via < 0 {
			t.Errorf("visit %d disconnected", i)
		}
		// Via edge must connect to an already-bound node.
		e := pat.Edges[v.Via]
		from := e.Src
		if v.Forward {
			if e.Dst != v.Node {
				t.Errorf("forward via edge %d does not reach node %d", v.Via, v.Node)
			}
		} else {
			from = e.Dst
			if e.Src != v.Node {
				t.Errorf("backward via edge %d does not reach node %d", v.Via, v.Node)
			}
		}
		if !seen[from] {
			// seen already includes v.Node; from must have been bound
			// before this visit.
			t.Errorf("visit %d traverses from unbound node %d", i, from)
		}
	}
}

// TestOrderPrefersSelectiveEnd: with a highly selective filter at the far
// end, the planner must start there and traverse backwards over reverse
// indexes — the motivation for GEMS's bidirectional indexes (§III-B).
func TestOrderPrefersSelectiveEnd(t *testing.T) {
	pat := chainPattern(3)
	est := &fakeEst{counts: []float64{10000, 5000, 1}, fanDflt: 10}
	order := Order(pat, est)
	if order[0].Node != 2 {
		t.Fatalf("should start at node 2, got %d", order[0].Node)
	}
	if order[1].Forward {
		t.Error("second visit should traverse a reverse index (backward)")
	}
}

// Without reverse indexes, backward traversal is heavily penalised, so
// the plan works forward from the selective start even when the end is
// smaller.
func TestOrderAvoidsMissingReverseIndex(t *testing.T) {
	pat := chainPattern(2)
	est := &fakeEst{
		counts: []float64{50, 10},
		noRev:  map[int]bool{0: true},
		fanout: map[[2]interface{}]float64{
			{0, true}:  2,
			{0, false}: 2,
		},
	}
	order := Order(pat, est)
	if order[0].Node != 1 {
		t.Fatalf("start = %d, want 1 (smaller)", order[0].Node)
	}
	// Reaching node 0 from node 1 means traversing edge 0 backwards —
	// allowed (edge scan) but penalised; with both directions equally
	// cheap otherwise, the planner still has no alternative here, so it
	// must produce a complete order.
	if len(order) != 2 || order[1].Node != 0 {
		t.Fatal("incomplete order")
	}
}

// TestLocals: each read names its nearest producer, per kind of result;
// an explain produces nothing, a write of the name ends a table result's
// reach, and a subgraph result stays in reach across writes.
func TestLocals(t *testing.T) {
	script, err := parser.Parse(`
select x from table A into table T
select * from graph V ( ) into subgraph T
select x from table T
select * from graph T.V ( ) into subgraph S
explain select x from table A into table T
output table t out.csv
create vertex W(x) from table A
select * from graph T.V ( ) into subgraph S
insert into T values (1)
select x from table T
select * from graph T.V ( ) into subgraph S
select x from table A into table T
update A set x = 2
select x from table T
`)
	if err != nil {
		t.Fatal(err)
	}
	got := Locals(script.Stmts)
	want := map[int][]Local{
		2:  {{Name: "T", At: 0}},
		3:  {{Name: "T", Subgraph: true, At: 1}},
		5:  {{Name: "t", At: 0}},
		7:  {{Name: "T", Subgraph: true, At: 1}},
		10: {{Name: "T", Subgraph: true, At: 1}},
		13: {{Name: "T", At: 11}},
	}
	for i := range script.Stmts {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Errorf("statement %d reads %v, want %v", i+1, got[i], want[i])
		}
	}
	// Reads and an explain into a result, but no producer.
	if Locals([]ast.Stmt{script.Stmts[2], script.Stmts[4], script.Stmts[5]}) != nil {
		t.Error("a script with no select into a result has locals")
	}
}

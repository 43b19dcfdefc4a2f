package catalog

import (
	"testing"

	"graql/internal/graph"
	"graql/internal/table"
	"graql/internal/value"
)

func newTable(t *testing.T, name string, rows int) *table.Table {
	t.Helper()
	tb := table.MustNew(name, table.Schema{{Name: "id", Type: value.Int}})
	for i := 0; i < rows; i++ {
		if err := tb.AppendRow([]value.Value{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestTableRegistry(t *testing.T) {
	c := New()
	a := newTable(t, "A", 3)
	if err := c.RegisterTable(a, false); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTable(newTable(t, "a", 0), false); err == nil {
		t.Error("case-insensitive duplicate must fail without replace")
	}
	if err := c.RegisterTable(newTable(t, "A", 5), true); err != nil {
		t.Errorf("replace must succeed: %v", err)
	}
	if got := c.Table("a").NumRows(); got != 5 {
		t.Errorf("replaced table rows = %d", got)
	}
	if c.Table("missing") != nil {
		t.Error("missing table must be nil")
	}
	if len(c.Tables()) != 1 {
		t.Errorf("tables = %d", len(c.Tables()))
	}
}

func TestPublishReplacesTable(t *testing.T) {
	c := New()
	c.Publish(Change{Table: newTable(t, "A", 1)})
	c.Publish(Change{Table: newTable(t, "a", 9)})
	if c.Table("A").NumRows() != 9 || len(c.Tables()) != 1 {
		t.Errorf("replace did not take effect: %d rows, %d tables", c.Table("A").NumRows(), len(c.Tables()))
	}
	if c.Epoch() != 2 {
		t.Errorf("epoch = %d after two changes, want 2", c.Epoch())
	}
}

func TestSubgraphRegistry(t *testing.T) {
	c := New()
	c.Publish(Change{Subgraph: graph.NewSubgraph("S1")})
	if c.Subgraph("s1") == nil {
		t.Error("subgraph lookup must be case-insensitive")
	}
	c.Publish(Change{Graph: graph.NewGraph()})
	if c.Subgraph("S1") == nil {
		t.Error("a new type (graph only) must keep named subgraphs")
	}
	c.Publish(Change{Table: newTable(t, "A", 1)})
	if c.Subgraph("S1") == nil {
		t.Error("a result table (table only) must keep named subgraphs")
	}
	c.Publish(Change{Table: newTable(t, "A", 2), Graph: graph.NewGraph()})
	if c.Subgraph("S1") != nil {
		t.Error("new rows under the views must drop named subgraphs")
	}
}

func TestStatsSnapshot(t *testing.T) {
	c := New()
	base := newTable(t, "Base", 4)
	_ = c.RegisterTable(base, false)
	vt, err := graph.BuildVertexType(0, "V", base, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Graph().AddVertexType(vt)
	et := graph.NewEdgeType(0, "E", vt, vt, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}, nil, true)
	_ = c.Graph().AddEdgeType(et)

	stats := c.Stats()
	byName := map[string]ObjectStats{}
	for _, s := range stats {
		byName[s.Kind+"/"+s.Name] = s
	}
	if byName["table/Base"].Count != 4 {
		t.Errorf("table stats = %+v", byName["table/Base"])
	}
	if byName["vertex/V"].Count != 4 {
		t.Errorf("vertex stats = %+v", byName["vertex/V"])
	}
	e := byName["edge/E"]
	if e.Count != 2 || e.AvgOutDegree != 0.5 || e.SrcType != "V" {
		t.Errorf("edge stats = %+v", e)
	}
}

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
	c.Publish(Change{Table: newTable(t, "A", 3)})
	c.Publish(Change{Table: newTable(t, "a", 5)})
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

// TestSubgraphRegistry: a named subgraph stays while every type it holds
// is still in the graph, and goes with the first change that replaces
// one, whatever else the change carries. A subgraph that arrives holding
// a type the graph no longer holds is never registered.
func TestSubgraphRegistry(t *testing.T) {
	c := New()
	base := newTable(t, "A", 3)
	vt, err := graph.BuildVertexType(0, "V", base, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.NewGraph()
	_ = g.AddVertexType(vt)
	c.Publish(Change{Table: base, Graph: g})
	sg := graph.NewSubgraph("S1")
	sg.VertexSet(vt).Set(1)
	c.Publish(Change{Subgraph: sg})
	if c.Subgraph("s1") == nil {
		t.Error("subgraph lookup must be case-insensitive")
	}
	w, err := graph.BuildVertexType(1, "W", base, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	next := c.Graph().Clone()
	_ = next.AddVertexType(w)
	c.Publish(Change{Graph: next})
	if c.Subgraph("S1") == nil {
		t.Error("a new type (graph only) must keep named subgraphs")
	}
	c.Publish(Change{Table: newTable(t, "B", 1)})
	if c.Subgraph("S1") == nil {
		t.Error("a result table (table only) must keep named subgraphs")
	}
	next = c.Graph().Clone()
	next.PutVertexType(graph.ReanchorVertexType(w, base))
	c.Publish(Change{Table: newTable(t, "B", 2), Graph: next})
	if c.Subgraph("S1") == nil {
		t.Error("new rows under views S1 does not hold must keep it")
	}
	next = c.Graph().Clone()
	next.PutVertexType(graph.ReanchorVertexType(vt, base))
	c.Publish(Change{Table: newTable(t, "A", 4), Graph: next})
	if c.Subgraph("S1") != nil {
		t.Error("new rows under a view S1 holds must drop it")
	}
	current := graph.NewSubgraph("S2")
	current.VertexSet(c.Graph().VertexType("V")).Set(1)
	c.Publish(Change{Subgraph: current})
	if c.Subgraph("S2") == nil {
		t.Fatal("a subgraph of current types must be registered")
	}
	stale := graph.NewSubgraph("s2")
	stale.VertexSet(vt).Set(1)
	c.Publish(Change{Subgraph: stale})
	if c.Subgraph("S2") != nil {
		t.Error("a subgraph captured against a replaced type must not be registered, nor leave the older one of its name")
	}
}

func TestStatsSnapshot(t *testing.T) {
	c := New()
	base := newTable(t, "Base", 4)
	c.Publish(Change{Table: base})
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

package cluster_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"graql/internal/cluster"
	"graql/internal/obs"
)

// TestSuperstepSpansAndLogs attaches a trace span and a debug logger to a
// traversal and checks the superstep/node span hierarchy plus the
// structured log lines.
func TestSuperstepSpansAndLogs(t *testing.T) {
	g := fixture(t, 7, 1)
	const parts = 3
	c, err := cluster.NewWithStrategy(g, parts, cluster.Hash)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace(obs.TraceID{})
	root := tr.Span("cluster", "test traversal")
	c.SetTraceSpan(root)
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	c.SetLogger(logger)

	steps := []cluster.Step{
		{Edge: g.EdgeType("e"), Forward: true},
		{Edge: g.EdgeType("f"), Forward: true},
	}
	_, stats, err := c.Traverse(g.VertexType("A"), nil, steps)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	tree := tr.Tree()
	if len(tree.Roots) != 1 {
		t.Fatalf("roots = %d", len(tree.Roots))
	}
	supersteps := tree.Roots[0].Children
	// Forward pass per step plus backward culling per step.
	if len(supersteps) != 2*len(steps) {
		t.Fatalf("superstep spans = %d, want %d", len(supersteps), 2*len(steps))
	}
	if stats.Rounds != 2*len(steps) {
		t.Fatalf("stats.Rounds = %d, want %d", stats.Rounds, 2*len(steps))
	}
	totalSent := 0
	for _, ss := range supersteps {
		if ss.Action != "superstep" {
			t.Fatalf("child action %q", ss.Action)
		}
		if ss.Attrs["messages"] == "" || ss.Attrs["vertices_sent"] == "" {
			t.Fatalf("superstep attrs: %v", ss.Attrs)
		}
		if len(ss.Children) != parts {
			t.Fatalf("node spans = %d, want %d", len(ss.Children), parts)
		}
		for _, n := range ss.Children {
			if n.Action != "node" || !strings.HasPrefix(n.Detail, "p") {
				t.Fatalf("node span: %+v", n)
			}
			totalSent += int(n.Rows)
		}
	}
	// Per-node sent counts must reconcile with the traversal total.
	if totalSent != stats.VerticesSent {
		t.Fatalf("node spans sent %d vertices, stats say %d", totalSent, stats.VerticesSent)
	}

	// One debug line per superstep, each valid JSON with the schema keys.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2*len(steps) {
		t.Fatalf("log lines = %d, want %d", len(lines), 2*len(steps))
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %v (%q)", err, line)
		}
		if rec["msg"] != "cluster superstep" || rec["edge"] == "" || rec["pass"] == "" {
			t.Fatalf("log line: %v", rec)
		}
	}

	// Untraced, unlogged traversal still works with nil span and logger.
	c2, _ := cluster.NewWithStrategy(g, parts, cluster.Hash)
	if _, _, err := c2.Traverse(g.VertexType("A"), nil, steps); err != nil {
		t.Fatal(err)
	}
}

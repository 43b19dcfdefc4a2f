package cluster_test

import (
	"context"
	"errors"
	"testing"

	"graql/internal/cluster"
	"graql/internal/graph"
)

func cancelSteps(g *graph.Graph) []cluster.Step {
	return []cluster.Step{
		{Edge: g.EdgeType("e"), Forward: true},
		{Edge: g.EdgeType("f"), Forward: true},
	}
}

// TestTraverseCanceledContext checks a dead context aborts the BSP
// traversal before its supersteps run and the error carries the
// context cause for errors.Is.
func TestTraverseCanceledContext(t *testing.T) {
	g := fixture(t, 7, 3)
	c, err := cluster.NewWithStrategy(g, 2, cluster.Hash)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.SetContext(ctx)

	_, _, err = c.Traverse(g.VertexType("A"), nil, cancelSteps(g))
	if err == nil {
		t.Fatal("want cancellation error, got nil")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false; err = %v", err)
	}
}

// TestTraverseExpiredDeadline checks deadline expiry surfaces as
// context.DeadlineExceeded, and that clearing the context restores the
// cluster to working order.
func TestTraverseExpiredDeadline(t *testing.T) {
	g := fixture(t, 7, 3)
	c, err := cluster.NewWithStrategy(g, 2, cluster.Hash)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	c.SetContext(ctx)

	_, _, err = c.Traverse(g.VertexType("A"), nil, cancelSteps(g))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false; err = %v", err)
	}

	c.SetContext(context.Background())
	sets, _, err := c.Traverse(g.VertexType("A"), nil, cancelSteps(g))
	if err != nil {
		t.Fatalf("traverse after clearing context: %v", err)
	}
	if len(sets) == 0 {
		t.Fatal("want non-empty result sets after clearing context")
	}
}

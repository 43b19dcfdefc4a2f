package cluster_test

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"graql/internal/bitmap"
	"graql/internal/cluster"
	"graql/internal/exec"
	"graql/internal/graph"
)

// fixture loads a random A--e-->B / B--f-->A graph through the engine and
// returns its view graph.
func fixture(t testing.TB, seed int64, scale int) *graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nA, nB := 5+scale*10, 5+scale*8
	var ta, tb, te, tf strings.Builder
	for i := 0; i < nA; i++ {
		fmt.Fprintf(&ta, "a%d,%d\n", i, r.Intn(10))
	}
	for i := 0; i < nB; i++ {
		fmt.Fprintf(&tb, "b%d,%d\n", i, r.Intn(10))
	}
	for i := 0; i < nA*4; i++ {
		fmt.Fprintf(&te, "a%d,b%d,%d\n", r.Intn(nA), r.Intn(nB), r.Intn(10))
	}
	for i := 0; i < nB*4; i++ {
		fmt.Fprintf(&tf, "b%d,a%d\n", r.Intn(nB), r.Intn(nA))
	}
	files := map[string]string{
		"ta.csv": ta.String(), "tb.csv": tb.String(),
		"te.csv": te.String(), "tf.csv": tf.String(),
	}
	opts := exec.DefaultOptions()
	opts.Workers = 2
	opts.FileOpener = func(path string) (io.ReadCloser, error) {
		body, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no file %s", path)
		}
		return io.NopCloser(strings.NewReader(body)), nil
	}
	e := exec.New(opts)
	if _, err := e.ExecScript(`
create table TA(id varchar(8), n integer)
create table TB(id varchar(8), n integer)
create table TE(src varchar(8), dst varchar(8), w integer)
create table TF(src varchar(8), dst varchar(8))
create vertex A(id) from table TA
create vertex B(id) from table TB
create edge e with vertices (A, B) from table TE
where TE.src = A.id and TE.dst = B.id
create edge f with vertices (B, A) from table TF
where TF.src = B.id and TF.dst = A.id
ingest table TA ta.csv
ingest table TB tb.csv
ingest table TE te.csv
ingest table TF tf.csv
`, nil); err != nil {
		t.Fatal(err)
	}
	return e.Cat.Graph()
}

// singleNodeReference computes the same traversal with the sequential
// bitmap passes (partition count 1 is trusted as the reference after
// TestSinglePartitionAgainstDirect validates it).
func traverse(t testing.TB, g *graph.Graph, parts int) ([]*bitmap.Bitmap, cluster.Stats) {
	t.Helper()
	c, err := cluster.NewWithStrategy(g, parts, cluster.Hash)
	if err != nil {
		t.Fatal(err)
	}
	a := g.VertexType("A")
	steps := []cluster.Step{
		{Edge: g.EdgeType("e"), Forward: true},
		{Edge: g.EdgeType("f"), Forward: true},
		{Edge: g.EdgeType("e"), Forward: true},
	}
	filter := func(v uint32) bool { return v%3 != 0 }
	sets, stats, err := c.Traverse(a, filter, steps)
	if err != nil {
		t.Fatal(err)
	}
	return sets, stats
}

// TestSinglePartitionAgainstDirect verifies the BSP engine on one
// partition against a hand-rolled sequential BFS + culling.
func TestSinglePartitionAgainstDirect(t *testing.T) {
	g := fixture(t, 23, 1)
	sets, stats, err := func() ([]*bitmap.Bitmap, cluster.Stats, error) {
		c, err := cluster.NewWithStrategy(g, 1, cluster.Hash)
		if err != nil {
			return nil, cluster.Stats{}, err
		}
		return c.Traverse(g.VertexType("A"), nil, []cluster.Step{
			{Edge: g.EdgeType("e"), Forward: true},
			{Edge: g.EdgeType("f"), Forward: true},
		})
	}()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 0 || stats.VerticesSent != 0 {
		t.Errorf("single partition must exchange nothing: %+v", stats)
	}

	// Direct recomputation.
	e := g.EdgeType("e")
	f := g.EdgeType("f")
	s0 := bitmap.NewFull(g.VertexType("A").Count())
	s1 := bitmap.New(e.Dst.Count())
	s0.ForEach(func(v uint32) {
		nbr, _ := e.Forward().Neighbors(v)
		for _, x := range nbr {
			s1.Set(x)
		}
	})
	s2 := bitmap.New(f.Dst.Count())
	s1.ForEach(func(v uint32) {
		nbr, _ := f.Forward().Neighbors(v)
		for _, x := range nbr {
			s2.Set(x)
		}
	})
	// Backward culling.
	b1 := bitmap.New(s1.Len())
	s2.ForEach(func(v uint32) {
		rev, _ := f.Reverse()
		nbr, _ := rev.Neighbors(v)
		for _, x := range nbr {
			b1.Set(x)
		}
	})
	b1.And(s1)
	b0 := bitmap.New(s0.Len())
	b1.ForEach(func(v uint32) {
		rev, _ := e.Reverse()
		nbr, _ := rev.Neighbors(v)
		for _, x := range nbr {
			b0.Set(x)
		}
	})
	b0.And(s0)

	if !sets[2].Equal(s2) || !sets[1].Equal(b1) || !sets[0].Equal(b0) {
		t.Error("BSP single-partition traversal disagrees with direct computation")
	}
}

// TestPartitionCountInvariance: the distributed result is identical for
// every partition count; only communication changes.
func TestPartitionCountInvariance(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := fixture(t, seed, 2)
		ref, refStats := traverse(t, g, 1)
		for _, parts := range []int{2, 3, 4, 7} {
			got, stats := traverse(t, g, parts)
			for i := range ref {
				if !got[i].Equal(ref[i]) {
					t.Fatalf("seed %d parts %d: step %d differs", seed, parts, i)
				}
			}
			if stats.Rounds != refStats.Rounds {
				t.Errorf("rounds differ: %d vs %d", stats.Rounds, refStats.Rounds)
			}
			if parts > 1 && stats.Messages == 0 && stats.VerticesLocal == 0 {
				t.Errorf("parts=%d: no traffic at all recorded", parts)
			}
		}
	}
}

// TestMessageAccounting: with p partitions and hash placement, each BSP
// round produces at most p*(p-1) messages, and messages grow with p.
func TestMessageAccounting(t *testing.T) {
	g := fixture(t, 5, 3)
	_, s2 := traverse(t, g, 2)
	_, s8 := traverse(t, g, 8)
	if s2.Messages == 0 || s8.Messages == 0 {
		t.Fatal("expected cross-partition messages")
	}
	if s8.Messages <= s2.Messages {
		t.Errorf("more partitions should exchange more messages: p2=%d p8=%d", s2.Messages, s8.Messages)
	}
	maxPerRound := 8 * 7
	if s8.Messages > s2.Rounds*maxPerRound {
		t.Errorf("message count %d exceeds p(p-1) per round bound", s8.Messages)
	}
}

// TestStrategyInvariance: block and hash placement compute identical
// results; only the traffic profile differs.
func TestStrategyInvariance(t *testing.T) {
	g := fixture(t, 31, 2)
	ref, _ := traverse(t, g, 4)
	c, err := cluster.NewWithStrategy(g, 4, cluster.Block)
	if err != nil {
		t.Fatal(err)
	}
	sets, stats, err := c.Traverse(g.VertexType("A"), func(v uint32) bool { return v%3 != 0 }, []cluster.Step{
		{Edge: g.EdgeType("e"), Forward: true},
		{Edge: g.EdgeType("f"), Forward: true},
		{Edge: g.EdgeType("e"), Forward: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !sets[i].Equal(ref[i]) {
			t.Fatalf("block placement changed step %d", i)
		}
	}
	if stats.Messages == 0 {
		t.Error("block placement should still exchange messages on random graphs")
	}
	if c.Strategy().String() != "block" {
		t.Errorf("strategy name = %s", c.Strategy())
	}
}

func TestValidateRejectsBadPath(t *testing.T) {
	g := fixture(t, 9, 1)
	c, _ := cluster.NewWithStrategy(g, 2, cluster.Hash)
	_, _, err := c.Traverse(g.VertexType("A"), nil, []cluster.Step{
		{Edge: g.EdgeType("f"), Forward: true}, // f starts at B, not A
	})
	if err == nil {
		t.Error("type-mismatched step must fail")
	}
	if _, err := cluster.NewWithStrategy(g, 0, cluster.Hash); err == nil {
		t.Error("zero partitions must fail")
	}
}

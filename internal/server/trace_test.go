package server_test

import (
	"net"
	"sync"
	"testing"

	"graql/internal/client"
	"graql/internal/obs"
)

// countSpans walks a span forest counting nodes and verifying parent
// links: every child's ParentID must equal its parent's SpanID.
func countSpans(t *testing.T, nodes []*obs.SpanNode, parentID string) int {
	t.Helper()
	n := 0
	for _, node := range nodes {
		if parentID != "" && node.ParentID != parentID {
			t.Errorf("span %s (%s) has parent %s, want %s", node.SpanID, node.Action, node.ParentID, parentID)
		}
		n += 1 + countSpans(t, node.Children, node.SpanID)
	}
	return n
}

// TestClientServerSpanTree checks the full propagation path: the client
// originates a traceparent, the server builds one connected span tree
// under it, and the tree reaches the client through the "trace" op.
func TestClientServerSpanTree(t *testing.T) {
	addr := serveTCP(t, newFixture(t, fixtureConfig{tracing: true}))

	cl, err := client.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.EnableTracing(true)

	resp, err := cl.Exec(`
select * from graph
def a: City ( ) --road--> def b: City ( ) --road--> def c: City ( )
into subgraph SG`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Fatal("Response.TraceID empty on a traced session")
	}

	trees, err := cl.Traces()
	if err != nil {
		t.Fatal(err)
	}
	var tree *obs.TraceTree
	for i := range trees {
		if trees[i].TraceID == resp.TraceID {
			tree = &trees[i]
		}
	}
	if tree == nil {
		t.Fatalf("trace %s not in the server ring (%d retained)", resp.TraceID, len(trees))
	}

	// One connected tree rooted at the server op: the root's parent is the
	// client's remote span, so it renders as the sole root.
	if len(tree.Roots) != 1 {
		t.Fatalf("trace has %d roots, want 1", len(tree.Roots))
	}
	root := tree.Roots[0]
	if root.Action != "server" || root.Detail != "exec" {
		t.Fatalf("root span = %s/%s, want server/exec", root.Action, root.Detail)
	}
	if root.ParentID == "" {
		t.Fatal("server root should carry the client's remote parent span id")
	}
	if got := countSpans(t, tree.Roots, ""); got != tree.SpanCount {
		t.Fatalf("connected spans = %d, SpanCount = %d", got, tree.SpanCount)
	}
	if len(root.Children) != 1 || root.Children[0].Action != "statement" {
		t.Fatalf("server root children: %+v", root.Children)
	}
	stmt := root.Children[0]
	if len(stmt.Children) == 0 {
		t.Fatal("statement span has no operator descendants")
	}

	// An untraced op must not disturb the ring.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTraceIDUniqueness hammers a traced server from several
// sessions; every response must carry a distinct trace id (and -race
// checks the trace machinery under concurrency).
func TestConcurrentTraceIDUniqueness(t *testing.T) {
	addr := serveTCP(t, newFixture(t, fixtureConfig{tracing: true}))

	const clients, perClient = 6, 10
	var mu sync.Mutex
	ids := make(map[string]bool)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := client.Dial(addr, "")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			cl.EnableTracing(true)
			for j := 0; j < perClient; j++ {
				resp, err := cl.Exec(`select B.id from graph City (id = 'p') --road--> def B: City ( )`, nil)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if ids[resp.TraceID] {
					mu.Unlock()
					errs <- &net.AddrError{Err: "duplicate trace id " + resp.TraceID, Addr: addr}
					return
				}
				ids[resp.TraceID] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(ids) != clients*perClient {
		t.Fatalf("distinct trace ids = %d, want %d", len(ids), clients*perClient)
	}
}

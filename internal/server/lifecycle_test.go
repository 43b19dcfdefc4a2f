package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"graql/internal/client"
	"graql/internal/exec"
	"graql/internal/server"
)

// startServerWith is startServer with the Server configured before it
// serves, and handed back for the lifecycle tests.
func startServerWith(t *testing.T, configure func(*server.Server)) (addr string, eng *exec.Engine, srv *server.Server, done chan struct{}) {
	t.Helper()
	eng = exec.New(exec.DefaultOptions())
	srv = server.New(eng, "")
	configure(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done = make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		ln.Close()
		<-done
	})
	return ln.Addr().String(), eng, srv, done
}

// loadDense populates the engine with the dense synthetic graph whose
// unanchored 3-hop enumeration takes a few hundred ms — long enough for
// deadlines and admission pressure to land mid-query.
func loadDense(t *testing.T, eng *exec.Engine) {
	t.Helper()
	if _, err := eng.ExecScript(`
create table Nodes(id varchar(8))
create table Links(src varchar(8), dst varchar(8))
create vertex N(id) from table Nodes
create edge link with vertices (N as A, N as B)
from table Links
where Links.src = A.id and Links.dst = B.id
`, nil); err != nil {
		t.Fatal(err)
	}
	const n, fanout = 150, 15
	var nodes, links strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&nodes, "v%d\n", i)
		for j := 0; j < fanout; j++ {
			fmt.Fprintf(&links, "v%d,v%d\n", i, (i*7+j*13+1)%n)
		}
	}
	if err := eng.IngestReader("Nodes", strings.NewReader(nodes.String())); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestReader("Links", strings.NewReader(links.String())); err != nil {
		t.Fatal(err)
	}
}

const denseSlowQuery = `
select a.id as src, d.id as dst from graph
def a: N ( ) --link--> N ( ) --link--> N ( ) --link--> def d: N ( )
into table SlowT`

// TestGate exercises the admission gate directly: in-flight cap, queue
// overflow, context-bounded waits and release.
func TestGate(t *testing.T) {
	g := server.NewGate(1, 1, nil)
	ctx := context.Background()

	if err := g.Acquire(ctx); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if got := g.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}

	// Second caller fits the queue but times out waiting for a slot.
	qctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := g.Acquire(qctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire error = %v, want deadline", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Errorf("queued acquire blocked %v, want ~20ms", time.Since(start))
	}

	// With holder + a (concurrent) queued waiter the third caller is
	// rejected outright.
	waiterIn := make(chan error, 1)
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	go func() { waiterIn <- g.Acquire(wctx) }()
	deadline := time.Now().Add(2 * time.Second)
	for g.Pending() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := g.Acquire(ctx); !errors.Is(err, server.ErrOverloaded) {
		t.Fatalf("overflow acquire error = %v, want ErrOverloaded", err)
	}

	// Releasing the holder admits the queued waiter.
	g.Release()
	if err := <-waiterIn; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	g.Release()
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after releases = %d, want 0", got)
	}

	// A nil gate admits everything.
	var nilGate *server.Gate
	if err := nilGate.Acquire(ctx); err != nil {
		t.Fatalf("nil gate acquire: %v", err)
	}
	nilGate.Release()
	if nilGate.Pending() != 0 || nilGate.InFlight() != 0 {
		t.Error("nil gate reports load")
	}
}

// TestShutdownDrains checks Shutdown lets an in-flight query finish
// inside the drain window, then refuses new connections. The window is
// sized from one solo round trip of the query, result encoding included,
// so a loaded host (or -race) stretches it instead of failing the drain.
func TestShutdownDrains(t *testing.T) {
	addr, eng, srv, done := startServerWith(t, func(*server.Server) {})
	loadDense(t, eng)

	cl, err := client.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	if _, err := cl.Exec(denseSlowQuery, nil); err != nil {
		t.Fatal(err)
	}
	window := max(5*time.Second, 4*time.Since(start))

	queryDone := make(chan error, 1)
	go func() {
		_, err := cl.Exec(denseSlowQuery, nil)
		queryDone <- err
	}()
	// Let the query reach the engine before shutting down.
	time.Sleep(30 * time.Millisecond)

	if drained := srv.Shutdown(window); !drained {
		t.Error("Shutdown() = false, want graceful drain")
	}
	if err := <-queryDone; err != nil {
		t.Errorf("in-flight query during drain: %v", err)
	}

	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Error("listener still accepting after Shutdown")
	}
}

// TestFraming pins the TCP wire format: newline-delimited JSON, one
// response line per request line in order (so requests may be
// pipelined), a frame that does not decode drops the session, and so
// does sitting idle past IdleTimeout.
func TestFraming(t *testing.T) {
	addr, _, _, _ := startServerWith(t, func(s *server.Server) { s.IdleTimeout = 100 * time.Millisecond })
	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn, bufio.NewReader(conn)
	}

	conn, r := dial()
	if _, err := conn.Write([]byte(`{"op":"ping"}` + "\n" + `{"op":"frobnicate"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`{"ok":true,`, `{"ok":false,"error":"unknown op \"frobnicate\"","code":"bad_request",`} {
		line, err := r.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, want) {
			t.Fatalf("response line = %q (%v), want prefix %s", line, err, want)
		}
	}
	if _, err := conn.Write([]byte("{not json\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("after a broken frame: %q, %v; want the session dropped", line, err)
	}

	_, r = dial()
	start := time.Now()
	if line, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("idle session: %q, %v; want the server to close it", line, err)
	}
	if idle := time.Since(start); idle < 50*time.Millisecond || idle > 3*time.Second {
		t.Errorf("idle session closed after %v, want about 100ms", idle)
	}
}

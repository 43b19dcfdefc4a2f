package cluster_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"graql/internal/cluster"
	"graql/internal/graph"
	"graql/internal/obs"
)

// startWorkers boots n real Worker servers on loopback listeners over g
// and returns their addresses (index = partition). Workers and
// listeners are torn down with the test.
func startWorkers(t testing.TB, g *graph.Graph, n int, strategy cluster.Strategy) ([]string, []*cluster.Worker, []net.Listener) {
	t.Helper()
	addrs := make([]string, n)
	workers := make([]*cluster.Worker, n)
	listeners := make([]net.Listener, n)
	for p := 0; p < n; p++ {
		wk, err := cluster.NewWorker(g, p, n, strategy)
		if err != nil {
			t.Fatal(err)
		}
		wk.SetLogger(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})))
		wk.SetObs(obs.New())
		if wk.Part() != p {
			t.Fatalf("worker reports partition %d, want %d", wk.Part(), p)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[p] = ln.Addr().String()
		workers[p] = wk
		listeners[p] = ln
		go wk.Serve(ln) //nolint:errcheck // torn down by Close below
		t.Cleanup(func() { wk.Close(); ln.Close() })
	}
	return addrs, workers, listeners
}

// dialWorkers builds a TCPTransport to the given workers with fast
// test-friendly deadlines.
func dialWorkers(t testing.TB, g *graph.Graph, addrs []string, strategy cluster.Strategy) *cluster.TCPTransport {
	t.Helper()
	tp, err := cluster.DialTCP(addrs, cluster.DialOptions{
		Strategy:    strategy,
		Fingerprint: cluster.GraphFingerprint(g),
		Timeout:     2 * time.Second,
		Retries:     1,
		DialWindow:  5 * time.Second,
		Obs:         obs.New(),
		Log:         slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.Close)
	if tp.Parts() != len(addrs) {
		t.Fatalf("transport reports %d partitions, want %d", tp.Parts(), len(addrs))
	}
	if got := tp.Addrs(); len(got) != len(addrs) || got[0] != addrs[0] {
		t.Fatalf("transport addrs %v, want %v", got, addrs)
	}
	return tp
}

// TestTransportEquivalence is the property test for the Transport seam:
// on randomized graphs, the channel transport (in-process simulation)
// and the TCP transport (real worker servers over sockets) produce
// identical frontier sets AND identical exchange statistics — message
// counts, sent/local vertex counts, modelled bytes, rounds, and the
// per-partition sent profile. Run under -race this also exercises the
// concurrent scatter/gather paths.
func TestTransportEquivalence(t *testing.T) {
	for _, seed := range []int64{7, 11, 42} {
		for _, strategy := range []cluster.Strategy{cluster.Hash, cluster.Block} {
			for _, parts := range []int{2, 3, 4} {
				t.Run(fmt.Sprintf("seed=%d/%s/parts=%d", seed, strategy, parts), func(t *testing.T) {
					g := fixture(t, seed, 2)
					addrs, _, _ := startWorkers(t, g, parts, strategy)
					tp := dialWorkers(t, g, addrs, strategy)

					// Forward and backward step directions both cross the
					// transport (e: A→B walked forward then in reverse;
					// f: B→A walked in reverse to land back on B).
					steps := func() []cluster.Step {
						return []cluster.Step{
							{Edge: g.EdgeType("e"), Forward: true},
							{Edge: g.EdgeType("e"), Forward: false},
							{Edge: g.EdgeType("f"), Forward: false},
						}
					}
					filter := func(v uint32) bool { return v%3 != 0 }

					sim, err := cluster.NewWithStrategy(g, parts, strategy)
					if err != nil {
						t.Fatal(err)
					}
					sim.SetObs(obs.New())
					wantSets, wantStats, err := sim.Traverse(g.VertexType("A"), filter, steps())
					if err != nil {
						t.Fatal(err)
					}

					net1, err := cluster.NewWithTransport(g, tp)
					if err != nil {
						t.Fatal(err)
					}
					net1.SetObs(obs.New())
					net1.SetTraceID("0123456789abcdef0123456789abcdef")
					gotSets, gotStats, err := net1.Traverse(g.VertexType("A"), filter, steps())
					if err != nil {
						t.Fatal(err)
					}

					for i := range wantSets {
						if !gotSets[i].Equal(wantSets[i]) {
							t.Fatalf("step %d: networked frontier set differs from simulation", i)
						}
					}
					if gotStats.Rounds != wantStats.Rounds ||
						gotStats.Messages != wantStats.Messages ||
						gotStats.VerticesSent != wantStats.VerticesSent ||
						gotStats.VerticesLocal != wantStats.VerticesLocal ||
						gotStats.BytesSent != wantStats.BytesSent {
						t.Fatalf("stats diverge:\n  sim %+v\n  tcp %+v", wantStats, gotStats)
					}
					for p := range wantStats.PerPartSent {
						if gotStats.PerPartSent[p] != wantStats.PerPartSent[p] {
							t.Fatalf("per-partition sent profile diverges at p%d: sim %d, tcp %d",
								p, wantStats.PerPartSent[p], gotStats.PerPartSent[p])
						}
					}
				})
			}
		}
	}
}

// TestWorkerFailurePartial: killing a worker mid-cluster makes the next
// traversal fail with a structured *PartialError naming the dead
// partition — no hang, no panic — and the transport's health view
// reflects the degraded worker.
func TestWorkerFailurePartial(t *testing.T) {
	g := fixture(t, 3, 2)
	addrs, workers, listeners := startWorkers(t, g, 3, cluster.Hash)
	tp, err := cluster.DialTCP(addrs, cluster.DialOptions{
		Strategy:    cluster.Hash,
		Fingerprint: cluster.GraphFingerprint(g),
		Timeout:     500 * time.Millisecond,
		Retries:     1,
		DialWindow:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	c, err := cluster.NewWithTransport(g, tp)
	if err != nil {
		t.Fatal(err)
	}
	if c.Parts() != 3 {
		t.Fatalf("cluster over a 3-worker transport reports %d parts", c.Parts())
	}
	steps := []cluster.Step{{Edge: g.EdgeType("e"), Forward: true}}
	if _, _, err := c.Traverse(g.VertexType("A"), nil, steps); err != nil {
		t.Fatalf("healthy cluster must traverse: %v", err)
	}

	// Kill partition 1 (server down, connection dropped, no redial target).
	workers[1].Close()
	listeners[1].Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := c.Traverse(g.VertexType("A"), nil, steps)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("traversal hung after worker death")
	}
	var perr *cluster.PartialError
	if !errors.As(err, &perr) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if len(perr.Failures) != 1 || perr.Failures[0].Part != 1 {
		t.Fatalf("failure must name partition 1: %+v", perr.Failures)
	}

	health := tp.Health()
	if health[1].Healthy {
		t.Error("partition 1 must be cached unhealthy after the failed superstep")
	}
	probed := tp.Probe(time.Second)
	if probed[1].Healthy {
		t.Error("probe must report partition 1 down")
	}
	if !probed[0].Healthy || !probed[2].Healthy {
		t.Errorf("surviving workers must stay healthy: %+v", probed)
	}
}

// TestHandshakeMismatch: a coordinator whose partition layout or graph
// disagrees with a worker must fail the dial — fast, not after the
// dial window.
func TestHandshakeMismatch(t *testing.T) {
	g := fixture(t, 13, 1)
	addrs, _, _ := startWorkers(t, g, 2, cluster.Hash)

	// Wrong partition count: worker 0 is configured for a 2-way cluster.
	if _, err := cluster.DialTCP(addrs[:1], cluster.DialOptions{
		Strategy:    cluster.Hash,
		Fingerprint: cluster.GraphFingerprint(g),
		DialWindow:  2 * time.Second,
	}); err == nil {
		t.Fatal("partition-count mismatch must fail the dial")
	}

	// Wrong placement strategy.
	if _, err := cluster.DialTCP(addrs, cluster.DialOptions{
		Strategy:    cluster.Block,
		Fingerprint: cluster.GraphFingerprint(g),
		DialWindow:  2 * time.Second,
	}); err == nil {
		t.Fatal("placement mismatch must fail the dial")
	}

	// Wrong dataset: a different random graph has a different fingerprint.
	other := fixture(t, 14, 2)
	if _, err := cluster.DialTCP(addrs, cluster.DialOptions{
		Strategy:    cluster.Hash,
		Fingerprint: cluster.GraphFingerprint(other),
		DialWindow:  2 * time.Second,
	}); err == nil {
		t.Fatal("graph-fingerprint mismatch must fail the dial")
	}
}

// TestWorkerRestartRecovers: a worker that dies and comes back on the
// same address is picked up by the retry/redial path without rebuilding
// the transport.
func TestWorkerRestartRecovers(t *testing.T) {
	g := fixture(t, 21, 2)
	addrs, workers, listeners := startWorkers(t, g, 2, cluster.Hash)
	tp := dialWorkers(t, g, addrs, cluster.Hash)
	c, err := cluster.NewWithTransport(g, tp)
	if err != nil {
		t.Fatal(err)
	}
	steps := []cluster.Step{{Edge: g.EdgeType("e"), Forward: true}}

	// Kill worker 0, then restart it on the same address.
	workers[0].Close()
	listeners[0].Close()
	wk, err := cluster.NewWorker(g, 0, 2, cluster.Hash)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addrs[0], err)
	}
	go wk.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { wk.Close(); ln.Close() })

	// The old connection is dead; the RPC fails once, redials, succeeds.
	if _, _, err := c.Traverse(g.VertexType("A"), nil, steps); err != nil {
		t.Fatalf("traversal must recover through redial: %v", err)
	}
	if h := tp.Probe(time.Second); !h[0].Healthy {
		t.Error("restarted worker must probe healthy")
	}
}

// TestWorkerRefusesJSONFrames: a coordinator of an earlier build spoke
// JSON bodies inside the same length prefix, and a step of its could
// carry a filter set it expected applied. A worker must never answer
// such a frame with success.
func TestWorkerRefusesJSONFrames(t *testing.T) {
	g := fixture(t, 5, 1)
	addrs, _, _ := startWorkers(t, g, 1, cluster.Hash)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fp := fmt.Sprintf("%016x", cluster.GraphFingerprint(g))
	for _, body := range []string{
		`{"op":"hello","parts":1,"strategy":"hash","fingerprint":"` + fp + `"}`,
		`{"op":"step","edge":"e","forward":true,"in_size":1,"out_size":1,"frontier":"AQAAAAAAAAA=","filter":"AQAAAAAAAAA="}`,
		`{"op":"ping"}`,
	} {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		if _, err := conn.Write(append(frame, body...)); err != nil {
			t.Fatal(err)
		}
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		answer := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(conn, answer); err != nil {
			t.Fatal(err)
		}
		if len(answer) == 0 || answer[0] != 0 || !strings.Contains(string(answer), "unknown op") {
			t.Errorf("JSON frame %s answered %q, want a refusal", body, answer)
		}
	}
}

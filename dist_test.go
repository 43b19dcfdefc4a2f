// Distributed-cluster acceptance tests: the networked scatter/gather
// path (real Worker servers over TCP) must be byte-for-byte identical
// to the in-process simulation on the Berlin suite, and a dead worker
// must surface as the structured "partial" error code, not a hang.
package graql_test

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"graql/internal/bsbm"
	"graql/internal/cluster"
	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/server"
)

// distEngine builds a fresh single-threaded engine with the Berlin
// dataset loaded (Workers=1 keeps row order deterministic for the
// byte-for-byte comparison).
func distEngine(t *testing.T, sf int) *exec.Engine {
	t.Helper()
	opts := exec.DefaultOptions()
	opts.Workers = 1
	opts.FileOpener = opener(dataset(sf))
	e := exec.New(opts)
	if _, err := e.ExecScript(bsbm.FullDDL, nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// bootWorkers starts n worker shards over the engine's graph on
// loopback listeners and returns a connected transport.
func bootWorkers(t *testing.T, e *exec.Engine, n int, opts cluster.DialOptions) (*cluster.TCPTransport, []*cluster.Worker, []net.Listener) {
	t.Helper()
	g := e.Cat.Graph()
	addrs := make([]string, n)
	workers := make([]*cluster.Worker, n)
	listeners := make([]net.Listener, n)
	for p := 0; p < n; p++ {
		wk, err := cluster.NewWorker(g, p, n, cluster.Hash)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[p] = ln.Addr().String()
		workers[p] = wk
		listeners[p] = ln
		go wk.Serve(ln) //nolint:errcheck
		t.Cleanup(func() { wk.Close(); ln.Close() })
	}
	opts.Fingerprint = cluster.GraphFingerprint(g)
	tp, err := cluster.DialTCP(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.Close)
	return tp, workers, listeners
}

// renderAll converts engine results to their canonical wire form so two
// runs can be compared byte-for-byte.
func renderAll(t *testing.T, rs []exec.Result) []byte {
	t.Helper()
	out := make([]server.StmtResult, len(rs))
	for i, r := range rs {
		out[i] = server.EncodeResult(r)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDistributedBerlinEquivalence is the acceptance criterion: the full
// Berlin query suite run through three networked worker shards, through
// the in-process cluster simulation and on an engine with no cluster
// renders byte-for-byte identically, and the distributed metrics prove
// the networked path actually ran.
func TestDistributedBerlinEquivalence(t *testing.T) {
	local := distEngine(t, 1)
	sim := distEngine(t, 1)
	sim.Opts.Dist = cluster.Simulated(3, cluster.Hash)

	netted := distEngine(t, 1)
	reg := obs.New()
	tp, _, _ := bootWorkers(t, netted, 3, cluster.DialOptions{
		Strategy: cluster.Hash,
		Timeout:  5 * time.Second,
		Obs:      reg,
	})
	netted.Opts.Dist = tp

	params := suiteParams(t)
	for _, q := range bsbm.Suite {
		var want []byte
		for _, route := range []struct {
			name string
			e    *exec.Engine
		}{{"local", local}, {"simulated", sim}, {"networked", netted}} {
			res, err := route.e.ExecScript(q.Script, params)
			if err != nil {
				t.Fatalf("%s %s: %v", q.ID, route.name, err)
			}
			got := renderAll(t, res)
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Errorf("%s: %s result differs from the local one\n  local: %s\n  %s: %s",
					q.ID, route.name, clipStr(string(want), 400), route.name, clipStr(string(got), 400))
			}
		}
	}

	metrics := reg.PrometheusText()
	if !strings.Contains(metrics, "graql_dist_supersteps_total") {
		t.Fatal("networked path never ran: no graql_dist_supersteps_total in metrics")
	}
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "graql_dist_supersteps_total") && strings.HasSuffix(line, " 0") {
			t.Fatal("networked path never ran: graql_dist_supersteps_total is 0")
		}
	}
}

// TestDistributedPartialErrorCode: a worker killed under a live engine
// turns the next chain query into exec.ErrPartial, which the server
// layer maps to the structured "partial" code.
func TestDistributedPartialErrorCode(t *testing.T) {
	e := distEngine(t, 1)
	tp, workers, listeners := bootWorkers(t, e, 3, cluster.DialOptions{
		Strategy: cluster.Hash,
		Timeout:  500 * time.Millisecond,
		Retries:  1,
	})
	e.Opts.Dist = tp

	// BQ7 is the suite query that routes through the cluster path (see
	// TestDistributedBerlinEquivalence's superstep-metric assertion).
	var chain bsbm.Query
	for _, q := range bsbm.Suite {
		if q.ID == "BQ7" {
			chain = q
		}
	}
	if chain.Script == "" {
		t.Fatal("BQ7 missing from suite")
	}
	params := suiteParams(t)
	if _, err := e.ExecScript(chain.Script, params); err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}

	workers[1].Close()
	listeners[1].Close()

	_, err := e.ExecScript(chain.Script, params)
	if err == nil {
		t.Fatal("chain query over a dead worker must fail")
	}
	if !errors.Is(err, exec.ErrPartial) {
		t.Fatalf("want exec.ErrPartial, got %v", err)
	}
	var perr *cluster.PartialError
	if !errors.As(err, &perr) {
		t.Fatalf("want *cluster.PartialError in chain, got %v", err)
	}
	if code := server.ErrorCode(err); code != server.CodePartial {
		t.Fatalf("server code: want %q, got %q", server.CodePartial, code)
	}
}

func clipStr(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

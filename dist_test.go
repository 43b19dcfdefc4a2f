// Distributed-cluster acceptance tests: the networked scatter/gather
// path (real Worker servers over TCP) must be byte-for-byte identical
// to the in-process simulation on the Berlin suite, and a dead worker
// must surface as the structured "partial" error code, not a hang.
package graql_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
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

// TestDistributedFunctionalEdge: expansions across a foreign-key edge with
// holes (NULL and dangling keys), forward and backward, with reverse
// indexes on and off, answer alike through three networked workers,
// through the simulated cluster and on an engine with no cluster. Without
// a reverse index a backward superstep is each worker's pass over the edge
// id space, which is the source id space of a functional edge.
func TestDistributedFunctionalEdge(t *testing.T) {
	var script strings.Builder
	script.WriteString(`create table TA(id integer, n integer, fk integer)
create table TB(id integer, n integer)
create vertex A(id) from table TA
create vertex B(id) from table TB
create edge fk with vertices (A, B) where A.fk = B.id
`)
	for i := 0; i < 90; i++ {
		fk := fmt.Sprint((i * 7) % 40) // ids 30..39 dangle
		if i%9 == 4 {
			fk = "NULL"
		}
		fmt.Fprintf(&script, "insert into TA values (%d, %d, %s)\n", i, i%6, fk)
	}
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&script, "insert into TB values (%d, %d)\n", i, i%5)
	}
	queries := []string{
		`select * from graph A (n < 2) --fk--> B ( ) into subgraph Fwd`,
		`select * from graph B (n < 2) <--fk-- A ( ) into subgraph Bwd`,
		`select * from graph A (n = 0) --fk--> B ( ) <--fk-- A ( ) into subgraph Two`,
		`select x.id from graph A (n = 1) --fk--> def x: B ( ) <--fk-- A (n = 3) into table T`,
		`select y.id from graph def y: A ( ) --fk--> B (n = 3) <--fk-- A (n < 3) into table U`,
	}
	for _, reverse := range []bool{true, false} {
		engine := func() *exec.Engine {
			opts := exec.DefaultOptions()
			opts.Workers, opts.ReverseIndexes = 1, reverse
			e := exec.New(opts)
			if _, err := e.ExecScript(script.String(), nil); err != nil {
				t.Fatal(err)
			}
			if et := e.Cat.Graph().EdgeType("fk"); !et.Functional() || et.Count() == et.NumIDs() {
				t.Fatalf("fk: functional %v with %d of %d ids present, want a column with holes", et.Functional(), et.Count(), et.NumIDs())
			}
			return e
		}
		local, sim, netted := engine(), engine(), engine()
		sim.Opts.Dist = cluster.Simulated(3, cluster.Hash)
		reg := obs.New()
		tp, _, _ := bootWorkers(t, netted, 3, cluster.DialOptions{Strategy: cluster.Hash, Timeout: 5 * time.Second, Obs: reg})
		netted.Opts.Dist = tp
		steps := reg.Counter("graql_dist_supersteps_total", "")
		for _, q := range queries {
			var want []byte
			var wantSub string
			before := steps.Value()
			for _, route := range []struct {
				name string
				e    *exec.Engine
			}{{"local", local}, {"simulated", sim}, {"networked", netted}} {
				res, err := route.e.ExecScript(q, nil)
				if err != nil {
					t.Fatalf("reverse=%v %s: %s: %v", reverse, route.name, q, err)
				}
				got, gotSub := renderAll(t, res), subgraphSets(res)
				if want == nil {
					want, wantSub = got, gotSub
				} else if string(got) != string(want) || gotSub != wantSub {
					t.Errorf("reverse=%v %s: %s differs from local\n  local: %s %s\n  %s: %s %s",
						reverse, q, route.name, clipStr(string(want), 300), wantSub, route.name, clipStr(string(got), 300), gotSub)
				}
			}
			if steps.Value() == before {
				t.Errorf("reverse=%v: %s scattered no superstep to the workers", reverse, q)
			}
		}
	}
}

// subgraphSets renders the vertex and edge sets of a subgraph result by
// type name.
func subgraphSets(rs []exec.Result) string {
	var parts []string
	for _, r := range rs {
		if r.Subgraph == nil {
			continue
		}
		for vt, b := range r.Subgraph.Vertices {
			parts = append(parts, fmt.Sprintf("v:%s%v", vt.Name, b.Slice()))
		}
		for et, b := range r.Subgraph.Edges {
			parts = append(parts, fmt.Sprintf("e:%s%v", et.Name, b.Slice()))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

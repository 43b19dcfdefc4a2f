package server_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graql/internal/ast"
	"graql/internal/client"
	"graql/internal/cluster"
	"graql/internal/exec"
	"graql/internal/ir"
	"graql/internal/obs"
	"graql/internal/server"
	"graql/internal/web"
)

// The service conformance suite: one table of op × outcome rows, each
// executed through three drivers — Service.Do directly, loopback TCP via
// internal/client, and HTTP via httptest — on identically built
// fixtures. A row's expectations are asserted on every driver, and the
// TCP and HTTP response bodies must equal the direct one modulo
// elapsedUs and traceId. Anything about a request that is not framing,
// status codes or headers belongs here, not in a per-wire test file.

// fixtureConfig selects what a row's engine and service look like.
type fixtureConfig struct {
	token    string
	limits   server.Limits
	inFlight int    // > 0: an admission gate with this many slots...
	queue    int    // ...and this much queue
	tracing  bool   // retain traces
	dense    bool   // load the complete digraph whose 4-hop enumeration runs for minutes
	dist     bool   // expand path queries on a 2-worker loopback cluster
	sim      bool   // expand path queries on 2 simulated partitions
	irVerify string // exec.Options.IRVerify
}

type fixture struct {
	eng     *exec.Engine
	svc     *server.Service
	log     *syncBuffer // the service's request log
	workers []*cluster.Worker
	lns     []net.Listener
	queryID uint64 // the in-flight query a during-hook found and canceled
}

// syncBuffer is a log sink the server's goroutines may write while the
// test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Len()
}

// from returns what was logged after the first n bytes.
func (s *syncBuffer) from(n int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()[n:]
}

// doFunc sends one request through a driver; nil means the wire has no
// way to express the op.
type doFunc func(req server.Request) *server.Response

// step is one request of a row and what it must answer.
type step struct {
	req server.Request
	// prep patches fields only known at run time (a handle id, IR bytes,
	// a query id) from the fixture and the previous step's response.
	prep func(fx *fixture, prev *server.Response, req *server.Request)
	code string // expected Response.Code; "" means OK
	err  string // substring of Response.Error
	// check asserts what code and err cannot.
	check func(t *testing.T, fx *fixture, resp *server.Response)
	// hold takes the gate's slot for the duration of the step.
	hold bool
	// during runs on its own session while the step's request is in flight.
	during func(t *testing.T, fx *fixture, do doFunc)
	// before runs before the request is sent.
	before func(t *testing.T, fx *fixture)
	// loose compares only ok and code across drivers: the body carries
	// timings, addresses or ids that differ between fixtures.
	loose bool
}

type confRow struct {
	name  string
	cfg   fixtureConfig
	steps []step
}

const roadFrom = `select B.id from graph City (id = %Start%) --road--> def B: City ( )`

// runaway never finishes on the dense fixture: n^4 paths under a
// contradictory final condition, zero rows.
const runaway = `select A.id from graph def A: NV ( ) --e--> def B: NV ( ) --e--> def C: NV ( ) --e--> def D: NV (id < A.id and id > A.id)`

func varchar(v string) map[string]server.Param {
	return map[string]server.Param{"Start": {Type: "varchar", Value: v}}
}

func newFixture(t *testing.T, cfg fixtureConfig) *fixture {
	t.Helper()
	opts := exec.DefaultOptions()
	opts.Obs = obs.New()
	opts.IRVerify = cfg.irVerify
	if cfg.tracing {
		opts.Obs.EnableTracing(8)
	}
	if cfg.sim {
		opts.Dist = cluster.Simulated(2, cluster.Hash)
	}
	eng := exec.New(opts)
	mustLoad := func(script string, tables map[string]string) {
		if _, err := eng.ExecScript(script, nil); err != nil {
			t.Fatal(err)
		}
		for name, csv := range tables {
			if err := eng.IngestReader(name, strings.NewReader(csv)); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustLoad(setupScript, map[string]string{"Cities": "p,US\nq,US\nr,CA\n", "Roads": "p,q\nq,r\n"})
	if cfg.dense {
		const n = 60
		var nodes, edges strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&nodes, "n%03d\n", i)
			for j := 0; j < n; j++ {
				fmt.Fprintf(&edges, "n%03d,n%03d\n", i, j)
			}
		}
		mustLoad(`
create table Node(id varchar(8))
create table Dense(src varchar(8), dst varchar(8))
create vertex NV(id) from table Node
create edge e with vertices (NV as A, NV as B)
from table Dense
where Dense.src = A.id and Dense.dst = B.id
`, map[string]string{"Node": nodes.String(), "Dense": edges.String()})
	}
	fx := &fixture{eng: eng, svc: server.NewService(eng, cfg.token), log: &syncBuffer{}}
	fx.svc.Limits = cfg.limits
	var err error
	if fx.svc.Log, err = obs.NewLogger(fx.log, "debug", "json"); err != nil {
		t.Fatal(err)
	}
	if cfg.inFlight > 0 {
		fx.svc.Gate = server.NewGate(cfg.inFlight, cfg.queue, opts.Obs)
	}
	if cfg.dist {
		g := eng.Cat.Graph()
		addrs := make([]string, 2)
		for p := range addrs {
			wk, err := cluster.NewWorker(g, p, len(addrs), cluster.Hash)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go wk.Serve(ln) //nolint:errcheck // torn down by Close below
			t.Cleanup(func() { wk.Close(); ln.Close() })
			addrs[p] = ln.Addr().String()
			fx.workers, fx.lns = append(fx.workers, wk), append(fx.lns, ln)
		}
		tp, err := cluster.DialTCP(addrs, cluster.DialOptions{
			Strategy:    cluster.Hash,
			Fingerprint: cluster.GraphFingerprint(g),
			Timeout:     time.Second,
			DialWindow:  5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tp.Close)
		eng.Opts.Dist = tp
	}
	return fx
}

// killWorker takes one shard of the fixture's cluster down.
func killWorker(p int) func(*testing.T, *fixture) {
	return func(_ *testing.T, fx *fixture) {
		fx.workers[p].Close()
		fx.lns[p].Close()
	}
}

// A driver opens sessions on a fixture; every session may be used from
// one goroutine at a time.
type driver struct {
	name string
	open func(t *testing.T, fx *fixture, token string) func() doFunc
}

var drivers = []driver{
	{"direct", func(_ *testing.T, fx *fixture, _ string) func() doFunc {
		do := func(req server.Request) *server.Response { return fx.svc.Do(context.Background(), &req) }
		return func() doFunc { return do }
	}},
	{"tcp", func(t *testing.T, fx *fixture, token string) func() doFunc {
		addr := serveTCP(t, fx)
		return func() doFunc {
			cl, err := client.Dial(addr, token)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return func(req server.Request) *server.Response {
				if req.Auth != token {
					// The client stamps its own token on every frame; a
					// request with other credentials goes out as a raw frame.
					return rawFrame(t, addr, req)
				}
				resp, err := cl.RoundTrip(&req)
				if resp == nil {
					t.Fatalf("tcp %s: %v", req.Op, err)
				}
				return resp
			}
		}
	}},
	{"http", func(t *testing.T, fx *fixture, _ string) func() doFunc {
		h := web.New(fx.eng)
		h.Service = fx.svc
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		do := func(req server.Request) *server.Response { return httpDo(t, ts.URL, req) }
		return func() doFunc { return do }
	}},
}

// serveTCP serves the fixture's service on a loopback listener until the
// test ends and returns its address.
func serveTCP(t *testing.T, fx *fixture) string {
	t.Helper()
	srv := server.New(fx.eng, "")
	srv.Service = fx.svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

func rawFrame(t *testing.T, addr string, req server.Request) *server.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var resp server.Response
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// httpRoutes maps each op the HTTP wire exposes to its route. POST
// routes answer with a Response; GET routes wrap one Response field in
// an envelope (a bare array for /catalog).
var httpRoutes = map[string]struct{ method, path string }{
	"exec":       {"POST", "/query"},
	"check":      {"POST", "/query"},
	"prepare":    {"POST", "/prepare"},
	"execute":    {"POST", "/execute"},
	"cancelq":    {"DELETE", "/debug/queries/"},
	"stats":      {"GET", "/catalog"},
	"workers":    {"GET", "/workers"},
	"trace":      {"GET", "/debug/traces"},
	"statements": {"GET", "/debug/statements"},
	"ps":         {"GET", "/debug/queries"},
}

func httpDo(t *testing.T, base string, req server.Request) *server.Response {
	t.Helper()
	route, ok := httpRoutes[req.Op]
	if !ok || (req.Op == "cancelq" && req.QueryID == 0) { // the id is part of the route
		return nil
	}
	var body []byte
	switch {
	case route.method == "POST":
		fields := map[string]any{"script": req.Script, "ir": req.IR, "params": req.Params,
			"stmt": req.Stmt, "timeoutMs": req.TimeoutMs, "check": req.Op == "check"}
		body, _ = json.Marshal(fields)
	case req.Op == "cancelq":
		route.path += fmt.Sprint(req.QueryID)
	}
	hreq, err := http.NewRequest(route.method, base+route.path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if req.Auth != "" {
		hreq.Header.Set("Authorization", "Bearer "+req.Auth)
	}
	if req.Trace != "" {
		hreq.Header.Set("traceparent", req.Trace)
	}
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var resp server.Response
	dst := any(&resp)
	if route.method == "GET" && hresp.StatusCode == http.StatusOK {
		resp.OK = true
		if req.Op == "stats" {
			dst = &resp.Catalog
		}
	}
	if err := json.NewDecoder(hresp.Body).Decode(dst); err != nil {
		t.Fatalf("%s %s: status %d: %v", route.method, route.path, hresp.StatusCode, err)
	}
	return &resp
}

// canonical renders a response for cross-driver comparison.
func canonical(resp *server.Response, loose bool) string {
	c := *resp
	c.ElapsedUs, c.TraceID = 0, ""
	if loose {
		c = server.Response{OK: resp.OK, Code: resp.Code}
	}
	b, _ := json.Marshal(c)
	return string(b)
}

func lastRows(resp *server.Response) [][]string {
	if len(resp.Results) == 0 {
		return nil
	}
	return resp.Results[len(resp.Results)-1].Rows
}

func wantRows(want ...string) func(*testing.T, *fixture, *server.Response) {
	return func(t *testing.T, _ *fixture, resp *server.Response) {
		t.Helper()
		var got []string
		for _, r := range lastRows(resp) {
			got = append(got, strings.Join(r, ","))
		}
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Errorf("rows = %v, want %v", got, want)
		}
	}
}

func wantMessage(want string) func(*testing.T, *fixture, *server.Response) {
	return func(t *testing.T, _ *fixture, resp *server.Response) {
		t.Helper()
		if len(resp.Results) == 0 || resp.Results[0].Message != want {
			t.Errorf("results = %+v, want message %q", resp.Results, want)
		}
	}
}

func prevStmt(_ *fixture, prev *server.Response, req *server.Request) { req.Stmt = prev.Stmt }
func prevIR(_ *fixture, prev *server.Response, req *server.Request)   { req.IR = prev.IR }

// cancelWhen polls ps on its own session until a query in the wanted
// state shows up, then cancels it by id.
func cancelWhen(ready func(obs.QueryInfo) bool) func(*testing.T, *fixture, doFunc) {
	return func(t *testing.T, fx *fixture, do doFunc) {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			ps := do(server.Request{Op: "ps"})
			if ps == nil { // the wire has no ps: read the table directly
				ps = &server.Response{Queries: fx.eng.Opts.Obs.LiveQueries()}
			}
			for _, q := range ps.Queries {
				if ready(q) {
					fx.queryID = q.ID
					if resp := do(server.Request{Op: "cancelq", QueryID: q.ID}); !resp.OK {
						t.Errorf("cancelq %d: %+v", q.ID, resp)
					}
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Error("no query reached the wanted state in ps")
	}
}

const traceParent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

var slowLimits = server.Limits{DefaultTimeout: 50 * time.Millisecond, MaxTimeout: 100 * time.Millisecond}

var conformance = []confRow{
	{name: "ping", steps: []step{{req: server.Request{Op: "ping"}}}},
	{name: "unknown op", steps: []step{
		{req: server.Request{Op: "frobnicate"}, code: server.CodeBadRequest, err: "unknown op"}}},

	{name: "exec/ok binds params", steps: []step{
		{req: server.Request{Op: "exec", Script: roadFrom, Params: varchar("p")}, check: wantRows("q")}}},
	{name: "exec/ok subgraph", steps: []step{
		{req: server.Request{Op: "exec", Script: `select * from graph City (country = 'US') --road--> City ( ) into subgraph us`},
			check: func(t *testing.T, _ *fixture, resp *server.Response) {
				if r := resp.Results[0]; r.SubgraphName != "us" || r.SubgraphVertices != 3 || r.SubgraphEdges != 2 {
					t.Errorf("subgraph result = %+v", r)
				}
			}}}},
	{name: "exec/ok dml maintains views", steps: []step{
		{req: server.Request{Op: "exec", Script: "insert into Cities values ('s', 'MX'), ('t', 'MX')\ninsert into Roads values ('s', 't')"},
			check: wantMessage("inserted 2 row(s) into Cities")},
		{req: server.Request{Op: "exec", Script: `update Cities set country = %Start% where id = 's'`, Params: varchar("XX")},
			check: wantMessage("updated 1 row(s) in Cities")},
		{req: server.Request{Op: "exec", Script: "delete from Roads where dst = 'r'\ndelete from Roads where dst = 'q'"}},
		{req: server.Request{Op: "exec", Script: `select B.id from graph City ( ) --road--> def B: City ( )`}, check: wantRows("t")}}},
	{name: "exec/bad params", steps: []step{
		{req: server.Request{Op: "exec", Script: roadFrom, Params: map[string]server.Param{"Start": {Type: "nope", Value: "p"}}},
			code: server.CodeBadRequest, err: "parameter Start"},
		{req: server.Request{Op: "exec", Script: roadFrom, Params: map[string]server.Param{"Start": {Type: "integer", Value: "p"}}},
			code: server.CodeBadRequest, err: "parameter Start"}}},
	{name: "exec/parse error", steps: []step{
		{req: server.Request{Op: "exec", Script: "select from from"}, code: server.CodeParse}}},
	{name: "exec/sema error leaves the session usable", steps: []step{
		{req: server.Request{Op: "exec", Script: "select x from table Missing"}, code: server.CodeExec, err: "unknown table"},
		{req: server.Request{Op: "stats"}}}},
	{name: "exec/partial results precede the failing statement", steps: []step{
		{req: server.Request{Op: "exec", Script: "select id from table Cities where id = 'p'\nselect x from table Missing"},
			code: server.CodeExec, err: "statement 2:", check: wantRows("p")}}},

	{name: "compile+execir/ok", steps: []step{
		{req: server.Request{Op: "compile", Script: `select B.id from graph City (id = 'p') --road--> def B: City ( )`},
			check: func(t *testing.T, _ *fixture, resp *server.Response) {
				if resp.IR == "" {
					t.Error("compile returned no IR")
				}
			}},
		{req: server.Request{Op: "execir"}, prep: prevIR, check: wantRows("q")}}},
	{name: "compile/parse error", steps: []step{
		{req: server.Request{Op: "compile", Script: "select from from"}, code: server.CodeParse}}},
	{name: "execir/bad params", steps: []step{
		{req: server.Request{Op: "execir", IR: "!!!notbase64"}, code: server.CodeBadRequest, err: "bad IR base64"},
		{req: server.Request{Op: "execir", IR: "aXI="}, code: server.CodeBadRequest}}},

	{name: "prepare+execute/ok rebinds, deallocate drops the handle", steps: []step{
		{req: server.Request{Op: "prepare", Script: roadFrom}, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			if resp.Stmt != "s1" {
				t.Errorf("stmt = %q, want s1", resp.Stmt)
			}
			wantMessage("prepared 1 statement(s) as s1")(t, nil, resp)
		}},
		{req: server.Request{Op: "execute", Stmt: "s1", Params: varchar("p")}, check: wantRows("q")},
		{req: server.Request{Op: "execute", Stmt: "s1", Params: varchar("q"), TimeoutMs: 5000}, check: wantRows("r")},
		{req: server.Request{Op: "execute", Stmt: "s1", Params: map[string]server.Param{"Start": {Type: "date", Value: "p"}}},
			code: server.CodeBadRequest, err: "parameter Start"},
		{req: server.Request{Op: "deallocate", Stmt: "s1"}, check: wantMessage("deallocated s1")},
		{req: server.Request{Op: "execute", Stmt: "s1"}, code: server.CodeBadRequest, err: `unknown prepared statement "s1"`},
		{req: server.Request{Op: "deallocate", Stmt: "s1"}, code: server.CodeBadRequest, err: "unknown prepared statement"}}},
	{name: "prepare from IR", steps: []step{
		{req: server.Request{Op: "compile", Script: `select id from table Cities where country = 'CA'`}},
		{req: server.Request{Op: "prepare"}, prep: prevIR},
		{req: server.Request{Op: "execute"}, prep: prevStmt, check: wantRows("r")}}},
	{name: "prepare/bad params", steps: []step{
		{req: server.Request{Op: "prepare"}, code: server.CodeBadRequest, err: "prepare requires script or ir"},
		{req: server.Request{Op: "prepare", IR: "!!not-base64!!"}, code: server.CodeBadRequest, err: "bad IR base64"}}},
	{name: "prepare/parse and sema errors", steps: []step{
		{req: server.Request{Op: "prepare", Script: "select from where"}, code: server.CodeParse},
		{req: server.Request{Op: "prepare", Script: "select x from table Missing"}, code: server.CodeParse, err: "unknown table"}}},
	{name: "execute+deallocate/unknown handle", steps: []step{
		{req: server.Request{Op: "execute", Stmt: "s999"}, code: server.CodeBadRequest, err: `unknown prepared statement "s999"`},
		{req: server.Request{Op: "execute"}, code: server.CodeBadRequest, err: "unknown prepared statement"},
		{req: server.Request{Op: "deallocate", Stmt: "s999"}, code: server.CodeBadRequest, err: "unknown prepared statement"},
		{req: server.Request{Op: "deallocate"}, code: server.CodeBadRequest, err: "deallocate requires stmt"}}},
	{name: "execute/partial results precede the failing statement", steps: []step{
		// A script with a write is not analyzed at prepare, so its second
		// statement fails only at execute, after the first one answered.
		{req: server.Request{Op: "prepare", Script: "select id from table Cities where id = 'p'\ninsert into Missing values (1)"}},
		{req: server.Request{Op: "execute", Stmt: "s1"}, code: server.CodeExec, err: "statement 2:", check: wantRows("p")}}},
	{name: "execir/partial results precede the failing statement", steps: []step{
		{req: server.Request{Op: "compile", Script: "select id from table Cities where id = 'p'\nselect x from table Missing"}},
		{req: server.Request{Op: "execir"}, prep: prevIR, code: server.CodeExec, err: "statement 2:", check: wantRows("p")}}},
	{name: "execute/sees dml between runs", steps: []step{
		{req: server.Request{Op: "prepare", Script: `select count(*) as c from table Roads`}},
		{req: server.Request{Op: "execute", Stmt: "s1"}, check: wantRows("2")},
		{req: server.Request{Op: "exec", Script: `insert into Roads values ('r', 'p')`}},
		{req: server.Request{Op: "execute", Stmt: "s1"}, check: wantRows("3")}}},

	{name: "check/ok", steps: []step{
		{req: server.Request{Op: "check", Script: setupScript}, check: wantMessage("script is statically valid")}}},
	{name: "check/every diagnostic, not the first", steps: []step{
		{req: server.Request{Op: "check", Script: "select x from table Missing\nselect y from table AlsoMissing"},
			code: server.CodeParse, err: "unknown table",
			check: func(t *testing.T, _ *fixture, resp *server.Response) {
				if n := len(resp.Diagnostics.Errors()); n < 2 {
					t.Errorf("diagnostics = %+v, want both statements' errors", resp.Diagnostics)
				}
			}},
		{req: server.Request{Op: "check", Script: "create table T(a date)\nselect a from table T where a > 1.5"}, code: server.CodeParse},
		{req: server.Request{Op: "check"}, code: server.CodeParse, err: "empty script"}}},

	{name: "stats", steps: []step{
		{req: server.Request{Op: "stats"}, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			for _, e := range resp.Catalog {
				if e.Kind == "edge" && e.Name == "road" && e.Count == 2 {
					return
				}
			}
			t.Errorf("catalog missing road stats: %+v", resp.Catalog)
		}}}},
	{name: "metrics", steps: []step{
		{req: server.Request{Op: "exec", Script: roadFrom, Params: varchar("p")}},
		{req: server.Request{Op: "metrics"}, loose: true, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			for _, want := range []string{"graql_queries_total 1", "graql_statements_total", "graql_statement_latency_seconds_bucket"} {
				if !strings.Contains(resp.Metrics, want) {
					t.Errorf("exposition missing %q", want)
				}
			}
		}}}},
	{name: "statements/literal variants aggregate", steps: []step{
		{req: server.Request{Op: "exec", Script: `select B.id from graph City (id = 'p') --road--> def B: City ( )`}},
		{req: server.Request{Op: "exec", Script: `select B.id from graph City (id = 'q') --road--> def B: City ( )`}},
		{req: server.Request{Op: "exec", Script: `select B.id from graph City (id = 'r') --road--> def B: City ( )`}},
		{req: server.Request{Op: "statements"}, loose: true, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			for _, st := range resp.Statements {
				if strings.HasPrefix(st.Query, "select b.id from graph") {
					if st.Calls != 3 || st.Rows != 2 || !strings.Contains(st.Query, "?") || st.Fingerprint == "" {
						t.Errorf("aggregated shape = %+v, want 3 calls, 2 rows, literals as ?", st)
					}
					return
				}
			}
			t.Errorf("shape not in statements: %+v", resp.Statements)
		}}}},
	{name: "ps+cancelq/idle and bad ids", steps: []step{
		{req: server.Request{Op: "ps"}, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			if len(resp.Queries) != 0 {
				t.Errorf("idle server reports live queries: %+v", resp.Queries)
			}
		}},
		{req: server.Request{Op: "cancelq", QueryID: 99999}, code: server.CodeBadRequest, err: "no such query id 99999"}}},
	{name: "cancelq/requires an id", steps: []step{
		{req: server.Request{Op: "cancelq"}, code: server.CodeBadRequest, err: "cancelq requires queryId"}}},
	{name: "workers/not distributed", steps: []step{
		{req: server.Request{Op: "workers"}, loose: true, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			if len(resp.Workers) != 0 {
				t.Errorf("workers = %+v, want none", resp.Workers)
			}
		}}}},
	{name: "workers/simulated cluster has no workers", cfg: fixtureConfig{sim: true}, steps: []step{
		{req: server.Request{Op: "exec", Script: `select * from graph City (id = 'p') --road--> City ( ) into subgraph sg`}},
		{req: server.Request{Op: "workers"}, loose: true, check: func(t *testing.T, fx *fixture, resp *server.Response) {
			if len(resp.Workers) != 0 {
				t.Errorf("workers = %+v, want none", resp.Workers)
			}
			if !strings.Contains(fx.eng.Opts.Obs.PrometheusText(), "graql_cluster_rounds_total") {
				t.Error("the simulated cluster ran no superstep")
			}
		}}}},
	{name: "workers/probes the cluster", cfg: fixtureConfig{dist: true}, steps: []step{
		{req: server.Request{Op: "workers"}, loose: true, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			if ws := resp.Workers; len(ws) != 2 || !ws[0].Healthy || !ws[1].Healthy || ws[0].Addr == "" {
				t.Errorf("workers = %+v, want 2 healthy with addresses", ws)
			}
		}},
		{req: server.Request{Op: "workers"}, before: killWorker(0), loose: true, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			if ws := resp.Workers; len(ws) != 2 || ws[0].Healthy || ws[0].Err == "" || !ws[1].Healthy {
				t.Errorf("workers = %+v, want p0 down with an error and p1 healthy", ws)
			}
		}}}},
	{name: "exec/partial names the dead worker", cfg: fixtureConfig{dist: true}, steps: []step{
		{req: server.Request{Op: "exec", Script: `select * from graph City (id = 'p') --road--> City ( ) into subgraph sg`}},
		{req: server.Request{Op: "exec", Script: `select * from graph City (id = 'p') --road--> City ( ) into subgraph sg2`},
			before: killWorker(1), code: server.CodePartial, err: "worker p1", loose: true}}},

	{name: "trace/untraced server answers an empty forest", steps: []step{
		{req: server.Request{Op: "exec", Script: roadFrom, Params: varchar("p")}, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			if resp.TraceID != "" {
				t.Errorf("trace id %q on an untraced server", resp.TraceID)
			}
		}},
		{req: server.Request{Op: "trace"}, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			if len(resp.Traces) != 0 {
				t.Errorf("traces = %d, want 0", len(resp.Traces))
			}
		}}}},
	{name: "trace/server assigns an id", cfg: fixtureConfig{tracing: true}, steps: []step{
		{req: server.Request{Op: "exec", Script: roadFrom, Params: varchar("p")}, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			if resp.TraceID == "" {
				t.Error("server did not assign a trace id")
			}
		}},
		{req: server.Request{Op: "trace"}, loose: true, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			if ts := resp.Traces; len(ts) != 1 || len(ts[0].Roots) != 1 || ts[0].Roots[0].ParentID != "" {
				t.Errorf("forest = %+v, want one server-originated root", ts)
			}
		}}}},
	{name: "trace/joins the caller's traceparent", cfg: fixtureConfig{tracing: true}, steps: []step{
		{req: server.Request{Op: "exec", Script: roadFrom, Params: varchar("p"), Trace: traceParent},
			check: func(t *testing.T, _ *fixture, resp *server.Response) {
				if resp.TraceID != traceParent[3:35] {
					t.Errorf("trace id = %s, want the caller's %s", resp.TraceID, traceParent[3:35])
				}
			}},
		{req: server.Request{Op: "trace"}, loose: true, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			if len(resp.Traces) != 1 || len(resp.Traces[0].Roots) != 1 {
				t.Fatalf("forest = %+v, want one tree with one root", resp.Traces)
			}
			root := resp.Traces[0].Roots[0]
			if root.Action != "server" || root.Detail != "exec" || root.ParentID != traceParent[36:52] {
				t.Errorf("root = %s/%s under %s, want server/exec under the caller's span", root.Action, root.Detail, root.ParentID)
			}
			if len(root.Children) != 1 || root.Children[0].Action != "statement" || len(root.Children[0].Children) == 0 {
				t.Errorf("root children = %+v, want one statement span with operator spans", root.Children)
			}
		}}}},

	{name: "auth/every op needs the token", cfg: fixtureConfig{token: "sekrit"}, steps: []step{
		{req: server.Request{Op: "exec", Script: roadFrom, Params: varchar("p")}, code: server.CodeAuth},
		{req: server.Request{Op: "check", Script: setupScript, Auth: "wrong"}, code: server.CodeAuth},
		{req: server.Request{Op: "prepare", Script: roadFrom, Auth: "wrong"}, code: server.CodeAuth},
		{req: server.Request{Op: "execute", Stmt: "s1", Auth: "wrong"}, code: server.CodeAuth},
		{req: server.Request{Op: "stats", Auth: "wrong"}, code: server.CodeAuth},
		{req: server.Request{Op: "ps", Auth: "wrong"}, code: server.CodeAuth},
		{req: server.Request{Op: "cancelq", QueryID: 1, Auth: "wrong"}, code: server.CodeAuth},
		{req: server.Request{Op: "exec", Script: roadFrom, Params: varchar("p"), Auth: "sekrit"}, check: wantRows("q")},
		{req: server.Request{Op: "stats", Auth: "sekrit"}},
		{req: server.Request{Op: "ping", Auth: "wrong"}, code: server.CodeAuth},
		{req: server.Request{Op: "frobnicate", Auth: "wrong"}, code: server.CodeAuth},
		{req: server.Request{Op: "ping", Auth: "sekrit"}}}},

	{name: "deadline/request timeoutMs", cfg: fixtureConfig{dense: true}, steps: []step{
		{req: server.Request{Op: "exec", Script: runaway, TimeoutMs: 50}, code: server.CodeDeadline,
			check: func(t *testing.T, _ *fixture, resp *server.Response) {
				if resp.ElapsedUs > 500_000 {
					t.Errorf("deadline took %dus to land, want < 500ms", resp.ElapsedUs)
				}
			}},
		{req: server.Request{Op: "exec", Script: roadFrom, Params: varchar("p")}, check: wantRows("q")}}},
	{name: "deadline/server default and clamp", cfg: fixtureConfig{dense: true, limits: slowLimits}, steps: []step{
		{req: server.Request{Op: "exec", Script: runaway}, code: server.CodeDeadline},
		{req: server.Request{Op: "exec", Script: runaway, TimeoutMs: 3_600_000}, code: server.CodeDeadline,
			check: func(t *testing.T, _ *fixture, resp *server.Response) {
				if resp.ElapsedUs > 1_000_000 {
					t.Errorf("an hour-long ask ran %dus, want it clamped to MaxTimeout", resp.ElapsedUs)
				}
			}},
		{req: server.Request{Op: "prepare", Script: runaway}},
		{req: server.Request{Op: "execute", Stmt: "s1"}, code: server.CodeDeadline}}},
	{name: "deadline/expires while queued", cfg: fixtureConfig{inFlight: 1, queue: 1}, steps: []step{
		{req: server.Request{Op: "exec", Script: roadFrom, Params: varchar("p"), TimeoutMs: 30}, hold: true,
			code: server.CodeDeadline, err: "while queued for admission"}}},

	{name: "overloaded/gated ops bounce, reads stay responsive", cfg: fixtureConfig{inFlight: 1}, steps: []step{
		{req: server.Request{Op: "prepare", Script: roadFrom}, hold: true},
		{req: server.Request{Op: "exec", Script: roadFrom, Params: varchar("p")}, hold: true, code: server.CodeOverloaded, err: "too many queries in flight"},
		{req: server.Request{Op: "execute", Stmt: "s1", Params: varchar("p")}, hold: true, code: server.CodeOverloaded},
		{req: server.Request{Op: "stats"}, hold: true},
		{req: server.Request{Op: "ps"}, hold: true},
		{req: server.Request{Op: "exec", Script: roadFrom, Params: varchar("p")}, check: wantRows("q")}}},
	{name: "overloaded/execir", cfg: fixtureConfig{inFlight: 1}, steps: []step{
		{req: server.Request{Op: "compile", Script: roadFrom}},
		{req: server.Request{Op: "execir"}, prep: prevIR, hold: true, code: server.CodeOverloaded}}},

	{name: "canceled/while queued", cfg: fixtureConfig{inFlight: 1, queue: 1}, steps: []step{
		{req: server.Request{Op: "exec", Script: roadFrom, Params: varchar("p")}, hold: true,
			during: cancelWhen(func(q obs.QueryInfo) bool { return q.State == "queued" }),
			code:   server.CodeCanceled, err: "canceled while queued for admission"}}},
	{name: "canceled/while running, by id from ps", cfg: fixtureConfig{dense: true}, steps: []step{
		{req: server.Request{Op: "exec", Script: runaway}, code: server.CodeCanceled,
			// Require live progress before the kill: elapsed ticking and
			// rows-so-far counted by the engine's cooperative poll hook.
			during: cancelWhen(func(q obs.QueryInfo) bool {
				return q.State == "running" && strings.HasPrefix(q.Query, "select a.id from graph") && q.ElapsedUs > 0 && q.Rows > 0
			})},
		{req: server.Request{Op: "ps"}, check: func(t *testing.T, fx *fixture, resp *server.Response) {
			for _, q := range resp.Queries {
				if q.ID == fx.queryID {
					t.Errorf("canceled query still in ps: %+v", q)
				}
			}
		}},
		{req: server.Request{Op: "statements"}, loose: true, check: func(t *testing.T, _ *fixture, resp *server.Response) {
			for _, st := range resp.Statements {
				if strings.HasPrefix(st.Query, "select a.id from graph") && st.Canceled >= 1 && st.Errors >= 1 {
					return
				}
			}
			t.Errorf("statements did not count the cancellation: %+v", resp.Statements)
		}},
		{req: server.Request{Op: "cancelq"}, code: server.CodeBadRequest, err: "no such query id", loose: true,
			prep: func(fx *fixture, _ *server.Response, req *server.Request) { req.QueryID = fx.queryID }}}},
}

// malformedIRRows: IR that frames correctly and means nothing (an update
// that sets no column, which no parser emits) is refused as bad input by
// both ops that take IR, and counted, on every request and whatever the
// engine's verifier mode — validating input is not a sampled self-check.
func malformedIRRows() (rows []confRow) {
	blob, err := ir.Encode(&ast.Script{Stmts: []ast.Stmt{&ast.Update{Table: "Cities"}}})
	if err != nil {
		panic(err)
	}
	refused := func(op string, failures int64) step {
		return step{req: server.Request{Op: op, IR: base64.StdEncoding.EncodeToString(blob)},
			code: server.CodeBadRequest, err: "ir: verify",
			check: func(t *testing.T, fx *fixture, _ *server.Response) {
				if got := fx.eng.Opts.Obs.Counter("graql_ir_verify_failures_total", "").Value(); got != failures {
					t.Errorf("graql_ir_verify_failures_total = %d, want %d", got, failures)
				}
			}}
	}
	for _, mode := range []string{exec.IRVerifyAlways, exec.IRVerifySample, exec.IRVerifyOff} {
		for _, op := range []string{"execir", "prepare"} {
			rows = append(rows, confRow{name: op + "/malformed IR under ir-verify " + mode,
				cfg: fixtureConfig{irVerify: mode}, steps: []step{refused(op, 1), refused(op, 2)}})
		}
	}
	return rows
}

func TestServiceConformance(t *testing.T) {
	for _, row := range append(conformance, malformedIRRows()...) {
		t.Run(row.name, func(t *testing.T) {
			// reference[i] is the direct driver's canonical body of step i.
			var reference []string
			for _, drv := range drivers {
				t.Run(drv.name, func(t *testing.T) {
					fx := newFixture(t, row.cfg)
					session := drv.open(t, fx, row.cfg.token)
					do := session()
					var prev *server.Response
					for i, st := range row.steps {
						req := st.req
						if req.Auth == "" && st.code != server.CodeAuth {
							req.Auth = row.cfg.token
						}
						if st.prep != nil {
							st.prep(fx, prev, &req)
						}
						if st.before != nil {
							st.before(t, fx)
						}
						if st.hold {
							if err := fx.svc.Gate.Acquire(context.Background()); err != nil {
								t.Fatal(err)
							}
						}
						hookDone := make(chan struct{})
						if st.during != nil {
							hook := session()
							go func() {
								defer close(hookDone)
								st.during(t, fx, hook)
							}()
						} else {
							close(hookDone)
						}
						logged := fx.log.size()
						resp := do(req)
						<-hookDone
						if st.hold {
							fx.svc.Gate.Release()
						}
						if resp == nil {
							t.Skipf("op %s has no route on this wire", req.Op)
						}
						prev = resp
						if resp.OK != (st.code == "") || resp.Code != st.code || !strings.Contains(resp.Error, st.err) || resp.ElapsedUs < 0 {
							t.Fatalf("step %d (%s): ok=%v code=%q error=%q, want code %q error containing %q",
								i, req.Op, resp.OK, resp.Code, resp.Error, st.code, st.err)
						}
						if st.check != nil {
							st.check(t, fx, resp)
						}
						// One structured log line per request, same fields on every wire.
						if line := fmt.Sprintf(`"op":%q,"code":%q,"elapsed_us":`, req.Op, resp.Code); !strings.Contains(fx.log.from(logged), line) {
							t.Errorf("step %d (%s): no request log line with %s in:\n%s", i, req.Op, line, fx.log.from(logged))
						}
						got := canonical(resp, st.loose)
						if drv.name == "direct" {
							reference = append(reference, got)
						} else if got != reference[i] {
							t.Errorf("step %d (%s): body differs from Service.Do\n  direct: %s\n  %s: %s",
								i, req.Op, reference[i], drv.name, got)
						}
					}
				})
			}
		})
	}
}

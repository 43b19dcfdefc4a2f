package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"graql/internal/bsbm"
	gclient "graql/internal/client"
	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/server"
	"graql/internal/value"
	"graql/internal/web"
)

// serve_text and serve_prepared send the same requests to the same
// server over loopback TCP; they differ only in whether the statement
// travels as text with the literal inlined or as a prepared handle with
// bound parameters.

// At SF10 the three dimension tables hold 101, 81 and 57 rows, so
// execution is a few tens of microseconds and the front end and the wire
// are what an op mostly pays for. servePool entries per shape keep the
// distinct texts (about 900) well above the plan cache's 256.
const (
	serveSF      = 10
	serveClients = 2
	servePool    = 400
)

func serveShapes() []shape {
	return []shape{
		{name: "s1", ordered: []bool{true}, script: `select id, label, country from table Producers where id = %Id% and publisher <> %Publisher%`},
		{name: "s2", ordered: []bool{true}, script: `select top 10 id, label from table Vendors where country = %Country% and publisher <> %Publisher% order by label asc, id asc`},
		{name: "s3", ordered: []bool{true}, script: `select b.id from graph TypeVtx (id = %Id% and publisher <> %Publisher%) --subclass--> def b: TypeVtx`},
	}
}

// countingListener counts the bytes crossing the server's sockets. It
// wraps the listener the benchmark hands to Server.Serve, so the
// counting happens outside the program.
type countingListener struct {
	net.Listener
	in, out *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.in, l.out}, nil
}

type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

type serveInstance struct {
	db       *berlinDB
	prepared bool
	shapes   []shape
	pool     [][]paramSet // [shape][entry]
	want     [][]uint64
	texts    [][]string // serve_text: the inlined script of each entry
	handles  []string   // serve_prepared: server-side statement ids

	srv      *server.Server
	ln       net.Listener
	addr     string
	served   sync.WaitGroup
	in, out  atomic.Int64
	rejected atomic.Int64
}

func setupServeText(cfg setupConfig) (instance, error)     { return setupServe(cfg, false) }
func setupServePrepared(cfg setupConfig) (instance, error) { return setupServe(cfg, true) }

func setupServe(cfg setupConfig, prepared bool) (instance, error) {
	db, err := openBerlin(berlinScale(serveSF, cfg.smoke), cfg)
	if err != nil {
		return nil, err
	}
	_, producers, _, types, _, _, _, _ := db.cfg.Counts()
	in := &serveInstance{db: db, prepared: prepared, shapes: serveShapes()}

	// The pools enumerate the key space (every id or country, times
	// every publisher) and keep a seeded sample of servePool entries.
	publishers := func(key string, vals []string) []paramSet {
		var out []paramSet
		for _, v := range vals {
			for p := 0; p < 10; p++ {
				out = append(out, paramSet{key: {"varchar", v}, "Publisher": {"varchar", fmt.Sprintf("pub%d", p)}})
			}
		}
		db.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		if len(out) > servePool {
			out = out[:servePool]
		}
		return out
	}
	ids := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	in.pool = [][]paramSet{
		publishers("Id", ids("m", producers)),
		publishers("Country", bsbm.Countries),
		publishers("Id", ids("t", types)),
	}
	in.texts = make([][]string, len(in.shapes))
	for k, s := range in.shapes {
		for _, ps := range in.pool[k] {
			in.texts[k] = append(in.texts[k], s.inline(ps))
		}
	}

	// The server as cmd/gems-server assembles it with default flags;
	// its request log goes to a discarded stream instead of stderr.
	logger, err := obs.NewLogger(io.Discard, "info", "json")
	if err != nil {
		return nil, err
	}
	in.srv = server.New(db.eng, "")
	in.srv.IdleTimeout = 5 * time.Minute
	in.srv.WriteTimeout = 30 * time.Second
	in.srv.Limits = server.Limits{MaxTimeout: 5 * time.Minute}
	in.srv.Gate = server.NewGate(0, 16, db.reg)
	in.srv.Prepared = server.NewPreparedSet(0)
	in.srv.Log = logger
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.ln, in.addr = ln, ln.Addr().String()
	in.served.Add(1)
	go func() {
		defer in.served.Done()
		_ = in.srv.Serve(countingListener{ln, &in.in, &in.out}) // returns when close() closes the server
	}()

	if prepared {
		c, err := gclient.Dial(in.addr, "")
		if err != nil {
			in.close()
			return nil, err
		}
		defer c.Close()
		for _, s := range in.shapes {
			id, err := c.Prepare(s.script)
			if err != nil {
				in.close()
				return nil, fmt.Errorf("prepare %s: %w", s.name, err)
			}
			in.handles = append(in.handles, id)
		}
	}
	return in, nil
}

func (in *serveInstance) clients() int { return serveClients }

func (in *serveInstance) oracle() error {
	o := oracleEngine(in.db.eng)
	in.want = make([][]uint64, len(in.shapes))
	for k, s := range in.shapes {
		for _, ps := range in.pool[k] {
			d, err := expect(o, s, ps)
			if err != nil {
				return err
			}
			in.want[k] = append(in.want[k], d)
		}
	}
	return nil
}

type serveClient struct {
	in   *serveInstance
	rng  *rand.Rand
	conn *gclient.Client
}

func (in *serveInstance) newClient(c int) (client, error) {
	conn, err := gclient.Dial(in.addr, "")
	if err != nil {
		return nil, err
	}
	return &serveClient{in: in, rng: seqRNG(in.db.cfg.Seed, c), conn: conn}, nil
}

func (c *serveClient) close() { c.conn.Close() }

// next draws the op: a shape, then an entry of its pool.
func (c *serveClient) next() (k, e int) {
	k = c.rng.Intn(len(c.in.shapes))
	return k, c.rng.Intn(len(c.in.pool[k]))
}

func (c *serveClient) do(op int64, tr *tracer, parent int) (time.Duration, error) {
	in := c.in
	k, e := c.next()
	sp := tr.begin("client.roundtrip", parent, op)
	var resp *server.Response
	var err error
	t0 := time.Now()
	if in.prepared {
		resp, err = c.conn.Execute(in.handles[k], in.pool[k][e].wire())
	} else {
		resp, err = c.conn.Exec(in.texts[k][e], nil)
	}
	lat := time.Since(t0)
	if resp != nil {
		tr.add("server.handle", sp, op, time.Duration(resp.ElapsedUs)*time.Microsecond)
	}
	tr.end(sp)
	if err != nil {
		if resp != nil && resp.Code == server.CodeOverloaded {
			in.rejected.Add(1)
		}
		return lat, fmt.Errorf("%s entry %d: %w", in.shapes[k].name, e, err)
	}
	sp = tr.begin("bench.check", parent, op)
	defer tr.end(sp)
	if got := digestWireResults(resp.Results, in.shapes[k].ordered); got != in.want[k][e] {
		return lat, mismatch(fmt.Sprintf("%s entry %d", in.shapes[k].name, e), got, in.want[k][e])
	}
	return lat, nil
}

func (in *serveInstance) counters() map[string]float64 {
	c := in.db.counters()
	c["bytes_in"], c["bytes_out"] = float64(in.in.Load()), float64(in.out.Load())
	c["rejected"] = float64(in.rejected.Load())
	return c
}

func (in *serveInstance) finish(*layerCtx) error { return nil }

func (in *serveInstance) close() {
	in.srv.Close()
	in.ln.Close() // Serve leaves its listener to the caller
	in.served.Wait()
}

func (in *serveInstance) layers(lc *layerCtx) error {
	// Front-end and planner costs are priced on the texts serve_text
	// sends: one statement per shape with its literal inlined.
	var stmts []stmtText
	for k := range in.shapes {
		stmts = append(stmts, stmtText{text: in.texts[k][0]})
	}
	lc.m["bsbm.generate_ms"] = ms(lc.phases["generate"])
	if err := loadLayers(lc, in.db.cfg); err != nil {
		return err
	}
	if err := frontEndLayers(lc, in.db.eng, stmts); err != nil {
		return err
	}
	inlined := make([]shape, len(in.shapes))
	for k, s := range in.shapes {
		inlined[k] = shape{name: s.name, script: in.texts[k][0], ordered: s.ordered}
	}
	if err := explainAnalyzeLayers(lc, in.db.eng, inlined, make([]paramSet, 4)); err != nil {
		return err
	}
	graphLayers(lc, in.db)
	lc.m["server.req_bytes_per_op"] = lc.perOp("bytes_in")
	lc.m["server.resp_bytes_per_op"] = lc.perOp("bytes_out")
	lc.m["server.rejected_ops"] = lc.delta("rejected")

	// The same op in-process, through a local prepared handle: what is
	// left of the TCP op once framing, JSON and dispatch are taken away.
	rng := rand.New(rand.NewSource(in.db.cfg.Seed))
	type entry struct {
		h      *exec.Prepared
		params map[string]value.Value
		wire   map[string]server.Param
		k      int
	}
	var sample []entry
	for k, s := range in.shapes {
		h, err := in.db.eng.Prepare(s.script)
		if err != nil {
			return err
		}
		for i := 0; i < 16; i++ {
			ps := in.pool[k][rng.Intn(len(in.pool[k]))]
			typed, err := ps.typed()
			if err != nil {
				return err
			}
			sample = append(sample, entry{h, typed, ps.wire(), k})
		}
	}
	results := make([][]exec.Result, len(sample))
	for n, e := range sample {
		rs, err := in.db.eng.ExecPrepared(e.h, e.params)
		if err != nil {
			return err
		}
		results[n] = rs
	}
	i := 0
	execD := timeBatched(15, len(sample), func() {
		e := sample[i%len(sample)]
		i++
		if _, err := in.db.eng.ExecPrepared(e.h, e.params); err != nil {
			sink++
		}
	})
	lc.m["exec.execute_us"] = us(execD)

	i = 0
	lc.m["server.encode_result_us"] = us(timeBatched(15, len(results), func() {
		resp := server.Response{OK: true}
		for _, r := range results[i%len(results)] {
			resp.Results = append(resp.Results, server.EncodeResult(r))
		}
		i++
		b, _ := json.Marshal(&resp)
		sink += len(b)
	}))

	conn, err := gclient.Dial(in.addr, "")
	if err != nil {
		return err
	}
	defer conn.Close()
	lc.m["server.ping_us"] = us(timeBatched(15, 32, func() {
		if conn.Ping() != nil {
			sink++
		}
	}))
	handles := in.handles
	if !in.prepared {
		for _, s := range in.shapes {
			id, err := conn.Prepare(s.script)
			if err != nil {
				return err
			}
			handles = append(handles, id)
		}
	}
	i = 0
	tcpD := timeBatched(15, len(sample), func() {
		e := sample[i%len(sample)]
		i++
		if _, err := conn.Execute(handles[e.k], e.wire); err != nil {
			sink++
		}
	})
	if tcpD > execD {
		lc.m["server.wire_us"] = us(tcpD - execD)
	}
	if p50 := medianDuration(lc.tr.durations("client.roundtrip")); p50 > 0 {
		lc.m["server.exec_share"] = float64(execD) / float64(p50)
	}

	// One connection, sixteen requests in flight.
	const pipelined = 4000
	pl := conn.Pipeline(16)
	futures := make([]*gclient.Future, 0, pipelined)
	t0 := time.Now()
	for n := 0; n < pipelined; n++ {
		e := sample[n%len(sample)]
		f, err := pl.Execute(handles[e.k], e.wire)
		if err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		futures = append(futures, f)
	}
	for _, f := range futures {
		if _, err := f.Wait(); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	lc.m["client.pipeline_ops_per_s"] = pipelined / time.Since(t0).Seconds()
	if err := pl.Close(); err != nil {
		return err
	}

	// The same execute through the HTTP front-end, without a socket.
	wh := web.New(in.db.eng)
	wh.Prepared = in.srv.Prepared
	bodies := make([][]byte, len(sample))
	for n, e := range sample {
		if bodies[n], err = json.Marshal(map[string]any{"stmt": handles[e.k], "params": e.wire}); err != nil {
			return err
		}
	}
	i = 0
	var bad int
	lc.m["web.exec_p50_us"] = us(timeBatched(15, len(sample), func() {
		rec := httptest.NewRecorder()
		wh.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(bodies[i%len(bodies)])))
		i++
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"ok":true`)) {
			bad++
		}
	}))
	if bad > 0 {
		return fmt.Errorf("web: %d execute requests failed", bad)
	}
	return nil
}

package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"graql/internal/cluster"
	"graql/internal/diag"
	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/server"
)

// The wire codec must be encoding/json on every frame: the encoders byte
// for byte against json.Encoder, the parsers against json.Unmarshal on
// accept/reject and on the decoded value, and the frame reader against
// json.Decoder on how a session splits into frames.

// wireSeeds are frames outside what the codec itself writes.
var wireSeeds = []string{
	"{\n  \"op\": \"execute\",\n  \"stmt\": \"s1\",\n  \"params\": {\n    \"Start\": {\"type\": \"varchar\", \"value\": \"p\"}\n  }\n}\n",
	`{"op":"ping"}{"op":"stats"} {"op":"exec","script":"select 1"}`,
	`{"OP":"ping","Script":"x","Params":{"a":{"Type":"integer","VALUE":"1"}}}`,
	`{"op":null,"params":null}`,
	`null`,
	`nullx{"op":"ping"}`,
	`{"op":"ping"}}`,
	`{"op":"ping"]`,
	`{"op":"cancelq","queryId":1e3}`,
	`{"op":"exec","timeoutMs":1.5}`,
	`{"op":"exec","timeoutMs":-0,"queryId":0}`,
	`{"op":"cancelq","queryId":-1}`,
	`{"op":"exec","timeoutMs":99999999999999999999}`,
	`{"op":"exec","timeoutMs":007}`,
	`{"op":"exec","script":"a\u00e9\ud83d\ude00\ud800\udc00\ud800x\udc00\"\\\/\b\f\n\r\t"}`,
	"{\"op\":\"\xff\xfe\xed\xa0\x80é\"}",
	"{\"op\":\"a\x01b\"}",
	`{"op":"a\'b"}`,
	`{"o\u0070":"ping","params":{"k\u00e9":{"type":"t"}}}`,
	`{"op":"a","op":"b","params":{"x":{"type":"t"}},"params":{"y":{"value":"v"}}}`,
	`{"op":"ping","params":{"x":{"type":"a","type":"b"},"x":{"value":"v"}}}`,
	`{"op":"ping","check":true}`,
	`{"op":"ping","params":{}}`,
	`{"ok":true,"results":[{"columns":["a","b"],"rows":[["1","x<y"],[],["é","\u2028"]]},{"message":"m","subgraphName":"g","subgraphVertices":3,"subgraphEdges":2}],"elapsedUs":12,"traceId":"t","stmt":"s1"}`,
	`{"ok":true,"catalog":[{"kind":"vertex","name":"V","count":3,"avgOutDegree":1.5}],"elapsedUs":0,"traces":[{"traceId":"x","spanCount":1,"roots":[]}],"diagnostics":[{"severity":"error","code":"GQL0001"}],"workers":[],"statements":null}`,
	`{"ok":true,"results":[{"message":"a"}],"results":[{"columns":["x"]}]}`,
	`{"ok":true,"results":[{"rows":[null,["a"]]}]}`,
	`{"ok":true,"results":[],"elapsedUs":-3}`,
	`{"ok":false,"error":"x","code":"exec","results":[{"columns":[],"rows":[[]]}],"elapsedUs":1} `,
	`{"ok":true,"diagnostics":[{"severity":"bogus"}]}`,
	`{"ok":tru}`,
	`{"ok":true,"elapsedUs":1}x`,
}

func FuzzWireCodec(f *testing.F) {
	for _, row := range append(conformance, malformedIRRows()...) {
		for _, st := range row.steps {
			frame, err := json.Marshal(st.req)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame, st.req.Script, st.err, int64(st.req.TimeoutMs), uint8(len(row.steps)))
		}
	}
	for i, frame := range wireSeeds {
		f.Add([]byte(frame), "<a&b>", "x\u2028\xff\n\"", int64(i-3), uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, frame []byte, a, b string, n int64, shape uint8) {
		req, resp := genRequest(a, b, n, shape), genResponse(a, b, n, shape)
		reqFrame, respFrame := checkEncode(t, req, resp)
		for _, fr := range [][]byte{frame, reqFrame, respFrame} {
			checkParse(t, fr)
		}
		checkFraming(t, frame)
	})
}

// genRequest builds a request from fuzz input: every field, empty versus
// absent parameters, several parameter names.
func genRequest(a, b string, n int64, shape uint8) *server.Request {
	req := &server.Request{Op: a, Script: b, TimeoutMs: int(n), Stmt: a + b}
	if shape&1 != 0 {
		req.Auth, req.IR, req.Trace, req.QueryID = b, a, b, uint64(n)
	}
	switch shape >> 1 & 3 {
	case 1:
		req.Params = map[string]server.Param{}
	case 2:
		req.Params = map[string]server.Param{a: {Type: b, Value: a}}
	case 3:
		req.Params = map[string]server.Param{a: {Type: "varchar", Value: b}, b: {Type: a}, a + "\x00" + b: {Value: "<&>"}, "": {}}
	}
	return req
}

// genResponse builds a response from fuzz input: empty versus nil
// results, columns and rows, a nil row, and every nested payload.
func genResponse(a, b string, n int64, shape uint8) *server.Response {
	resp := &server.Response{OK: shape&1 != 0, Error: a, Code: b, ElapsedUs: n, TraceID: b, Stmt: a}
	switch shape >> 3 & 3 {
	case 1:
		resp.Results = []server.StmtResult{}
	case 2:
		resp.Results = []server.StmtResult{{Message: a}, {}, {Columns: []string{}, Rows: [][]string{}}}
	case 3:
		resp.Results = []server.StmtResult{{
			Columns: []string{a, b}, Rows: [][]string{{a, b}, {}, nil, {b + a}},
			SubgraphName: b, SubgraphVertices: int(n), SubgraphEdges: -int(n),
		}}
	}
	switch shape >> 5 {
	case 1:
		resp.Catalog, resp.Traces, resp.Diagnostics = []server.CatalogEntry{}, []obs.TraceTree{}, diag.List{}
	case 2, 3:
		resp.IR, resp.Metrics = a, b
		resp.Catalog = []server.CatalogEntry{{Kind: a, Name: b, Count: int(n), AvgOutDegree: float64(n) / 3}}
		resp.Traces = []obs.TraceTree{{TraceID: a, Roots: []*obs.SpanNode{{Action: b, Detail: a, Attrs: map[string]string{a: b}}}}}
		resp.Statements = []obs.StmtStat{{Query: a, Calls: n}}
		resp.Queries = []obs.QueryInfo{{Query: b, ID: uint64(n)}}
		resp.Workers = []cluster.WorkerStatus{{Addr: a, Err: b}}
		resp.Diagnostics = diag.List{{Code: diag.Code(a), Msg: b}}
	}
	return resp
}

// checkEncode holds both encoders to json.Encoder's bytes and returns
// their frames.
func checkEncode(t *testing.T, req *server.Request, resp *server.Response) (reqFrame, respFrame []byte) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(req); err != nil {
		t.Fatal(err)
	}
	if reqFrame = server.AppendRequest(nil, req); !bytes.Equal(reqFrame, want.Bytes()) {
		t.Fatalf("AppendRequest:\n got %q\nwant %q", reqFrame, want.Bytes())
	}
	want.Reset()
	werr := json.NewEncoder(&want).Encode(resp)
	got, gerr := server.AppendResponse([]byte("prefix"), resp)
	if (gerr == nil) != (werr == nil) || !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
		t.Fatalf("AppendResponse:\n got %q (%v)\nwant %q (%v)", got, gerr, want.Bytes(), werr)
	}
	return reqFrame, got[len("prefix"):]
}

// checkParse holds both parsers to json.Unmarshal.
func checkParse(t *testing.T, frame []byte) {
	t.Helper()
	var gotReq, wantReq server.Request
	same(t, "ParseRequest", frame, server.ParseRequest(frame, &gotReq), json.Unmarshal(frame, &wantReq), &gotReq, &wantReq)
	var gotResp, wantResp server.Response
	same(t, "ParseResponse", frame, server.ParseResponse(frame, &gotResp), json.Unmarshal(frame, &wantResp), &gotResp, &wantResp)
}

func same(t *testing.T, fn string, frame []byte, gerr, werr error, got, want any) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s(%q) error %v, json.Unmarshal %v", fn, frame, gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%q):\n got %#v\nwant %#v", fn, frame, got, want)
	}
}

// checkFraming holds the frame reader, one frame per Next and each frame
// through ParseRequest, to json.Decoder: the same requests in the same
// order, and a clean end exactly when the decoder ends cleanly.
func checkFraming(t *testing.T, input []byte) {
	t.Helper()
	var want []server.Request
	dec := json.NewDecoder(bytes.NewReader(input))
	var werr error
	for {
		var r server.Request
		if werr = dec.Decode(&r); werr != nil {
			break
		}
		want = append(want, r)
	}
	// One byte per read moves every frame boundary across buffer refills.
	for _, rd := range []io.Reader{bytes.NewReader(input), iotest.OneByteReader(bytes.NewReader(input))} {
		fr := server.NewFrameReader(rd, 0)
		var got []server.Request
		var err error
		for {
			var frame []byte
			if frame, err = fr.Next(); err == nil {
				var r server.Request
				if err = server.ParseRequest(frame, &r); err == nil {
					got = append(got, r)
					continue
				}
			}
			break
		}
		if (err == io.EOF) != (werr == io.EOF) || !reflect.DeepEqual(got, want) {
			t.Fatalf("framing %q:\n got %+v (%v)\nwant %+v (%v)", input, got, err, want, werr)
		}
	}
}

// TestFrameReader pins framing by value end rather than by line, the
// bound, and Ready's view of what is buffered.
func TestFrameReader(t *testing.T) {
	fr := server.NewFrameReader(strings.NewReader(" {\"op\":\"a\"}{\"op\":\"b\",\n\"script\":\"}{\"}\n\t\"x\" 12 true\n"), 0)
	for _, want := range []string{`{"op":"a"}`, "{\"op\":\"b\",\n\"script\":\"}{\"}", `"x"`, `12`, `true`} {
		frame, err := fr.Next()
		if err != nil || string(frame) != want {
			t.Fatalf("frame %q (%v), want %q", frame, err, want)
		}
	}
	if frame, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %q, %v; want io.EOF", frame, err)
	}
	if _, err := server.NewFrameReader(strings.NewReader(`{"op":"a"`), 0).Next(); err != io.ErrUnexpectedEOF {
		t.Errorf("unterminated frame: %v, want io.ErrUnexpectedEOF", err)
	}
	big := server.NewFrameReader(strings.NewReader(`{"script":"`+strings.Repeat("x", 9000)+`"}`), 8192)
	if _, err := big.Next(); !errors.Is(err, server.ErrFrameTooLarge) {
		t.Errorf("frame past the bound: %v, want ErrFrameTooLarge", err)
	}

	r, w := io.Pipe()
	fr = server.NewFrameReader(r, 0)
	go func() { _, _ = w.Write([]byte(`{"op":"a"} {"op":"b"} {"op"`)) }()
	for _, ready := range []bool{true, false} {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		if fr.Ready() != ready {
			t.Errorf("Ready() = %v, want %v", !ready, ready)
		}
	}
	w.Close()
}

// TestFrameBound: a request frame past MaxFrameBytes is answered with
// bad_request and ends the session, and the server reads no further than
// the bound, keeping nothing of the frame afterwards.
func TestFrameBound(t *testing.T) {
	addr, _, _, _ := startServerWith(t, func(*server.Server) {})
	huge := []byte(`{"op":"exec","script":"` + strings.Repeat("x", 17<<20) + `"}` + "\n")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	go func() { _, _ = conn.Write(huge) }() // fails once the server hangs up
	r := bufio.NewReader(conn)
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp server.Response
	if err := json.Unmarshal(line, &resp); err != nil || resp.Code != server.CodeBadRequest || !strings.Contains(resp.Error, "frame exceeds") {
		t.Fatalf("response %s (%v), want code bad_request", line, err)
	}
	if rest, err := r.ReadBytes('\n'); err == nil {
		t.Fatalf("session still open after the oversized frame: %q", rest)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The reader stops at the 16 MiB bound: what it allocates is its
	// buffer's growth to the bound, not the frame, let alone the frame
	// decoded into a Request and parsed as a script.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*server.MaxFrameBytes+(4<<20) {
		t.Errorf("reading the oversized frame allocated %d MiB", grew>>20)
	}
	if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live > 4<<20 {
		t.Errorf("the server kept %d MiB after dropping the session", live>>20)
	}
}

// BenchmarkWire prices one served op's frames both ways: an execute
// request with two parameters and a ten-row, two-column response, each
// encoded, framed and decoded by encoding/json and by the codec.
func BenchmarkWire(b *testing.B) {
	req := &server.Request{Op: "execute", Stmt: "s2", Params: map[string]server.Param{
		"Country": {Type: "varchar", Value: "US"}, "Publisher": {Type: "varchar", Value: "pub3"}}}
	resp := &server.Response{OK: true, ElapsedUs: 31, TraceID: "0af7651916cd43dd8448eb211c80319c",
		Results: []server.StmtResult{{Columns: []string{"id", "label"}}}}
	for i := 0; i < 10; i++ {
		resp.Results[0].Rows = append(resp.Results[0].Rows, []string{"v" + strings.Repeat("1", i), "vendor label <" + strings.Repeat("x", i) + ">"})
	}
	for _, tc := range []struct {
		name  string
		value any
		frame []byte
	}{{"request", req, server.AppendRequest(nil, req)}, {"response", resp, nil}} {
		if tc.frame == nil {
			tc.frame, _ = server.AppendResponse(nil, resp)
		}
		b.Run(tc.name+"/encode/json", func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for i := 0; i < b.N; i++ {
				buf.Reset()
				_ = enc.Encode(tc.value)
			}
		})
		b.Run(tc.name+"/encode/codec", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				if tc.name == "request" {
					buf = server.AppendRequest(buf[:0], req)
				} else {
					buf, _ = server.AppendResponse(buf[:0], resp)
				}
			}
		})
		stream := bytes.Repeat(tc.frame, 64)
		b.Run(tc.name+"/decode/json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += 64 {
				dec := json.NewDecoder(bytes.NewReader(stream))
				for j := 0; j < 64; j++ {
					var err error
					if tc.name == "request" {
						err = dec.Decode(new(server.Request))
					} else {
						err = dec.Decode(new(server.Response))
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(tc.name+"/decode/codec", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += 64 {
				fr := server.NewFrameReader(bytes.NewReader(stream), 0)
				for j := 0; j < 64; j++ {
					frame, err := fr.Next()
					if err == nil {
						if tc.name == "request" {
							err = server.ParseRequest(frame, new(server.Request))
						} else {
							err = server.ParseResponse(frame, new(server.Response))
						}
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestParseFastPath: the frames the codec writes never reach the
// json.Unmarshal fallback, which would cost several times the
// allocations.
func TestParseFastPath(t *testing.T) {
	req := &server.Request{Op: "execute", Stmt: "s1", TimeoutMs: 50, Params: map[string]server.Param{
		"Id": {Type: "varchar", Value: "m3"}, "Publisher": {Type: "varchar", Value: "it's <pub>"}}}
	resp := &server.Response{OK: true, ElapsedUs: 31, TraceID: "0af7651916cd43dd8448eb211c80319c",
		Results: []server.StmtResult{{Columns: []string{"id", "label"}, Rows: [][]string{{"m3", "a"}, {"m4", "b"}}}}}
	reqFrame := server.AppendRequest(nil, req)
	respFrame, err := server.AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	// The Request, string(frame), the parameter map and its group, one
	// unquoted value.
	if n := testing.AllocsPerRun(100, func() { _ = server.ParseRequest(reqFrame, new(server.Request)) }); n > 5 {
		t.Errorf("ParseRequest: %.0f allocations, want <= 5", n)
	}
	// The Response, string(frame), results, the cells' backing slice, the
	// rows.
	if n := testing.AllocsPerRun(100, func() { _ = server.ParseResponse(respFrame, new(server.Response)) }); n > 5 {
		t.Errorf("ParseResponse: %.0f allocations, want <= 5", n)
	}

	// A multi-statement response: each result sizes its cells from its
	// own extent, so the bytes allocated stay a small multiple of the
	// frame rather than growing with the number of results times the frame.
	multi := &server.Response{OK: true}
	for k := 0; k < 100; k++ {
		r := server.StmtResult{Columns: []string{"a", "b", "c"}}
		for i := 0; i < 100; i++ {
			r.Rows = append(r.Rows, []string{fmt.Sprint(i), "x", "y"})
		}
		multi.Results = append(multi.Results, r)
	}
	multiFrame, err := server.AppendResponse(nil, multi)
	if err != nil {
		t.Fatal(err)
	}
	var got server.Response
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = server.ParseResponse(multiFrame, &got)
	runtime.ReadMemStats(&after)
	if err != nil || !reflect.DeepEqual(&got, multi) {
		t.Fatalf("ParseResponse of %d results: %v", len(multi.Results), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(multiFrame)) {
		t.Errorf("ParseResponse of a %d-byte frame with %d results allocated %d bytes", len(multiFrame), len(multi.Results), grew)
	}
}

// TestParseManyParams: a request naming many parameters parses in time
// linear in its length — a repeated name is found by a map lookup, not
// by comparing each name with every earlier one, which would let one
// frame occupy a core before authentication is checked.
func TestParseManyParams(t *testing.T) {
	const n = 200_000
	frame := []byte(`{"op":"x","params":{`)
	for i := 0; i < n; i++ {
		if i > 0 {
			frame = append(frame, ',')
		}
		frame = fmt.Appendf(frame, `"a%07d":{}`, i)
	}
	frame = append(frame, "}}"...)
	done := make(chan error, 1)
	var req server.Request
	go func() { done <- server.ParseRequest(frame, &req) }()
	select {
	case err := <-done:
		if err != nil || len(req.Params) != n {
			t.Fatalf("ParseRequest: %d parameters (%v), want %d", len(req.Params), err, n)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("ParseRequest of %d parameter names took over 10s", n)
	}
}

// TestPipelinedLargeResponses: pipelined requests whose responses are
// large are written one response at a time, not held until the batch of
// buffered requests has run.
func TestPipelinedLargeResponses(t *testing.T) {
	eng := exec.New(exec.DefaultOptions())
	if _, err := eng.ExecScript(`create table T(id varchar(64))`, nil); err != nil {
		t.Fatal(err)
	}
	var rows strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&rows, "row-%04d-%s\n", i, strings.Repeat("x", 30))
	}
	if err := eng.IngestReader("T", strings.NewReader(rows.String())); err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, "")
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &writeSizes{Listener: inner}
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

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	const k = 20
	var batch []byte
	for i := 0; i < k; i++ {
		batch = server.AppendRequest(batch, &server.Request{Op: "exec", Script: "select id from table T"})
	}
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	fr := server.NewFrameReader(conn, 0)
	largest := 0
	for i := 0; i < k; i++ {
		frame, err := fr.Next()
		var resp server.Response
		if err == nil {
			err = server.ParseResponse(frame, &resp)
		}
		if err != nil || !resp.OK || len(resp.Results[0].Rows) != 1000 {
			t.Fatalf("response %d: %v", i, err)
		}
		largest = max(largest, len(frame)+1)
	}
	if got := ln.largest(); got > largest {
		t.Errorf("the server wrote %d bytes at once; each response is at most %d", got, largest)
	}
}

// writeSizes is a listener whose connections record their largest write.
type writeSizes struct {
	net.Listener
	mu  sync.Mutex
	max int
}

func (l *writeSizes) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return sizedConn{c, l}, nil
}

func (l *writeSizes) largest() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.max
}

type sizedConn struct {
	net.Conn
	l *writeSizes
}

func (c sizedConn) Write(b []byte) (int, error) {
	c.l.mu.Lock()
	c.l.max = max(c.l.max, len(b))
	c.l.mu.Unlock()
	return c.Conn.Write(b)
}

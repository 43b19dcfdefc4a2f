package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"graql/internal/bitmap"
	"graql/internal/graph"
	"graql/internal/table"
	"graql/internal/value"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, req := range []*workerReq{
		{Op: opStep, Edge: "e", Forward: true, Pass: "forward", Round: 3, TraceID: "t1",
			InSize: 64, OutSize: 128, Frontier: wordBytes([]uint64{1 << 63})},
		{Op: opHello, Part: 1, Parts: 3, Strategy: "block", Fingerprint: fingerprintString(7)},
		{Op: opPing},
	} {
		frame, err := encodeReq(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(body)+4 != len(frame) {
			t.Fatalf("readFrame took a %d-byte body off a %d-byte frame", len(body), len(frame))
		}
		got, err := parseReq(body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("frame round trip mutated the request: %+v vs %+v", got, req)
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	if _, err := encodeReq(&workerReq{Op: opStep, Frontier: make([]byte, maxFrameBytes)}); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("encodeReq must reject an oversize frame, got %v", err)
	}
	// A forged header claiming an oversize frame must be rejected before
	// any allocation.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := readFrame(bytes.NewReader(hdr), nil); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("readFrame must reject a forged oversize header, got %v", err)
	}
}

// TestFrameRejectsMalformed: a body cut short anywhere, one with bytes
// after its last field, and one with an unknown op or status byte are
// all refused, requests and answers alike.
func TestFrameRejectsMalformed(t *testing.T) {
	step, _ := encodeReq(&workerReq{Op: opStep, Edge: "E", Pass: "forward", InSize: 8, OutSize: 8, Frontier: wordBytes([]uint64{1})})
	forward2 := slices.Clone(step[4:])
	forward2[1+4*3+len("E")+len("forward")] = 2
	answer := appendResp(nil, [][]uint32{{1, 2}, {3}}, nil)
	for name, c := range map[string]struct {
		body  []byte
		parse func([]byte) error
	}{
		"empty request":    {[]byte{}, parseReqErr},
		"unknown op":       {[]byte{0x7b}, parseReqErr},
		"forward flag 2":   {forward2, parseReqErr},
		"trailing step":    {append(step[4:len(step):len(step)], 0), parseReqErr},
		"status 2":         {[]byte{2}, parseRespErr},
		"trailing answer":  {append(answer[4:len(answer):len(answer)], 0), parseRespErr},
		"trailing refusal": {append(appendResp(nil, nil, errors.New("no"))[4:], 0), parseRespErr},
	} {
		if err := c.parse(c.body); err == nil || !strings.Contains(err.Error(), "malformed frame") {
			t.Errorf("%s: %v, want a malformed frame", name, err)
		}
	}
	for n := range len(step) - 4 {
		if err := parseReqErr(step[4 : 4+n]); err == nil {
			t.Errorf("a step body cut to %d bytes parsed", n)
		}
	}
	for n := range len(answer) - 4 {
		if err := parseRespErr(answer[4 : 4+n]); err == nil {
			t.Errorf("an answer body cut to %d bytes parsed", n)
		}
	}
	if _, err := readFrame(bytes.NewReader(step[:len(step)-1]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a frame cut short on the wire: %v", err)
	}
}

func parseReqErr(b []byte) error  { _, err := parseReq(b); return err }
func parseRespErr(b []byte) error { _, err := parseResp(b); return err }

// TestFrameGolden pins the frame layout: a change to it must edit this
// test.
func TestFrameGolden(t *testing.T) {
	hello, _ := encodeReq(&workerReq{Op: opHello, Part: 1, Parts: 2, Strategy: "hash", Fingerprint: "0a"})
	step, _ := encodeReq(&workerReq{Op: opStep, Edge: "E", Pass: "forward", TraceID: "t", Forward: true,
		Round: 2, InSize: 8, OutSize: 8, Frontier: wordBytes([]uint64{0x81})})
	for name, c := range map[string]struct {
		frame []byte
		want  string
	}{
		"hello": {hello, "0000001f" + "01" + "0100000000000000" + "0200000000000000" +
			"04000000" + "68617368" + "02000000" + "3061"},
		"step": {step, "0000003b" + "02" + "01000000" + "45" + "07000000" + "666f7277617264" + "01000000" + "74" +
			"01" + "0200000000000000" + "0800000000000000" + "0800000000000000" + "08000000" + "8100000000000000"},
		"answer": {appendResp(nil, [][]uint32{{5}, {}, {1, 256}}, nil), "0000001d" + "01" + "03000000" +
			"01000000" + "05000000" + "00000000" + "02000000" + "01000000" + "00010000"},
		"refusal": {appendResp(nil, nil, errors.New("no")), "00000007" + "00" + "02000000" + "6e6f"},
		"ping":    {pingFrame, "00000001" + "03"},
	} {
		if got := hex.EncodeToString(c.frame); got != c.want {
			t.Errorf("%s frame:\n got %s\nwant %s", name, got, c.want)
		}
	}
}

// TestBitmapCodec: a frontier's words travel raw and decode to the same
// set, into a bitmap of exactly in_size bits.
func TestBitmapCodec(t *testing.T) {
	b := bitmap.New(100)
	for _, v := range []uint32{0, 7, 63, 64, 99} {
		b.Set(v)
	}
	rt, err := frontier(&workerReq{InSize: 100, Frontier: wordBytes(b.Words())})
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Equal(b) || rt.Len() != 100 {
		t.Fatal("bitmap codec round trip lost bits")
	}
	if rt, err := frontier(&workerReq{InSize: 0, Frontier: nil}); err != nil || rt.Len() != 0 {
		t.Errorf("an empty type's frontier: %v, %v", rt, err)
	}
}

// TestIDsCodec: an answer's buckets decode to the ids the worker sent,
// empty buckets included; a bucket count the body cannot hold is refused
// before it sizes anything.
func TestIDsCodec(t *testing.T) {
	want := [][]uint32{{0, 1, 1 << 20, 0xffffffff}, nil, {42}}
	answer := appendResp(nil, want, nil)
	got, err := parseResp(answer[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !sameBuckets(got, want) {
		t.Fatalf("id codec: want %v, got %v", want, got)
	}
	if _, err := parseResp([]byte{1, 0xff, 0xff, 0xff, 0xff}); err == nil || !strings.Contains(err.Error(), "buckets in 0 bytes") {
		t.Errorf("a bucket count past the body must be refused, got %v", err)
	}
	var r refusal
	if _, err := parseResp(appendResp(nil, want, errors.New("boom"))[4:]); !errors.As(err, &r) || string(r) != "boom" {
		t.Errorf("an error answer must parse to its refusal, got %v", err)
	}
}

// sameBuckets compares answers by content: an empty bucket equals nil.
func sameBuckets(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestFingerprintString(t *testing.T) {
	if got := fingerprintString(0xdeadbeef); got != "00000000deadbeef" {
		t.Errorf("fingerprint must render as zero-padded hex, got %q", got)
	}
}

func TestPartialErrorMessage(t *testing.T) {
	err := &PartialError{Failures: []WorkerFailure{
		{Part: 1, Addr: "10.0.0.1:7700", Err: "deadline"},
		{Part: 3, Addr: "10.0.0.3:7700", Err: "refused"},
	}}
	msg := err.Error()
	for _, want := range []string{"p1", "10.0.0.1:7700", "deadline", "p3", "refused"} {
		if !strings.Contains(msg, want) {
			t.Errorf("partial error %q must mention %q", msg, want)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Strategy
		ok   bool
	}{
		{"hash", Hash, true},
		{"", Hash, true},
		{"block", Block, true},
		{"roundrobin", Hash, false},
	} {
		got, err := ParseStrategy(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseStrategy(%q) must fail", tc.in)
		}
	}
}

func TestOwnerBlockCoversRange(t *testing.T) {
	// Block placement must partition [0,n) into contiguous runs that
	// cover every vertex exactly once, for sizes that do and do not
	// divide evenly.
	for _, n := range []int{1, 7, 64, 100} {
		for _, parts := range []int{1, 2, 3, 4} {
			counts := make([]int, parts)
			prev := 0
			for v := 0; v < n; v++ {
				p := owner(Block, parts, uint32(v), n)
				if p < 0 || p >= parts {
					t.Fatalf("owner(Block, %d, %d, %d) = %d out of range", parts, v, n, p)
				}
				if p < prev {
					t.Fatalf("block ownership must be monotone, v=%d went %d -> %d", v, prev, p)
				}
				prev = p
				counts[p]++
			}
			total := 0
			for _, c := range counts {
				total += c
			}
			if total != n {
				t.Fatalf("block ownership covered %d of %d vertices", total, n)
			}
		}
	}
	// Hash placement must also stay in range.
	for v := 0; v < 1000; v++ {
		if p := owner(Hash, 7, uint32(v), 1000); p < 0 || p >= 7 {
			t.Fatalf("owner(Hash) = %d out of range", p)
		}
	}
}

func TestNewWorkerValidation(t *testing.T) {
	if _, err := NewWorker(nil, 0, 0, Hash); err == nil {
		t.Error("zero partitions must be rejected")
	}
	if _, err := NewWorker(nil, 3, 3, Hash); err == nil {
		t.Error("partition index == parts must be rejected")
	}
	if _, err := NewWorker(nil, -1, 3, Hash); err == nil {
		t.Error("negative partition index must be rejected")
	}
}

// ringGraph is V (n vertices) with one edge type E: v -> v+1 mod n.
func ringGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	base := table.MustNew("TV", table.Schema{{Name: "id", Type: value.Int}})
	edges := make([]graph.Edge, n)
	for i := range n {
		if err := base.AppendRow([]value.Value{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
		edges[i] = graph.Edge{Src: uint32(i), Dst: uint32((i + 1) % n)}
	}
	vt, err := graph.BuildVertexType(0, "V", base, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.NewGraph()
	if err := g.AddVertexType(vt); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdgeType(graph.NewEdgeType(0, "E", vt, vt, edges, nil, true)); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWorkerDispatchErrors(t *testing.T) {
	w := &Worker{g: ringGraph(t, 100), part: 0, parts: 1, strategy: Hash, ctx: context.Background()}
	dispatch := func(req *workerReq) error {
		frame, err := encodeReq(req)
		if err != nil {
			t.Fatal(err)
		}
		_, err = w.dispatch(frame[4:])
		return err
	}
	if _, err := w.dispatch([]byte{0x7b}); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op must fail, got %v", err)
	}
	// Sizes that disagree with the worker's edge type are refused before
	// they size the frontier's decoding: a negative one cannot size a
	// bitmap, a huge one would allocate before any check.
	for _, in := range []int{-1000, 1 << 62} {
		if err := dispatch(&workerReq{Op: opStep, Edge: "E", InSize: in, OutSize: 100, Frontier: wordBytes(make([]uint64, 2))}); err == nil ||
			!strings.Contains(err.Error(), "graph divergence") {
			t.Errorf("step with in_size %d must be refused, got %v", in, err)
		}
	}
	// The frontier is exactly in_size's two words with no bit at or past
	// in_size; anything else would expand a set the coordinator never sent.
	for name, words := range map[string][]byte{
		"no frontier":      nil,
		"short frontier":   wordBytes([]uint64{1}),
		"long frontier":    wordBytes([]uint64{1, 0, 0}),
		"misaligned":       wordBytes([]uint64{1, 0})[:12],
		"bit past in_size": wordBytes([]uint64{1, 1 << 36}),
	} {
		if err := dispatch(&workerReq{Op: opStep, Edge: "E", InSize: 100, OutSize: 100, Frontier: words}); err == nil ||
			!strings.Contains(err.Error(), `step frame on edge "E"`) {
			t.Errorf("%s must be refused, got %v", name, err)
		}
	}
	if err := dispatch(&workerReq{Op: opStep, Edge: "E", InSize: 100, OutSize: 100, Frontier: wordBytes([]uint64{1, 1 << 35})}); err != nil {
		t.Errorf("a frontier holding the last vertex must be served, got %v", err)
	}
	if err := dispatch(&workerReq{Op: opPing}); err != nil {
		t.Errorf("ping must succeed, got %v", err)
	}
}

// stubTransport answers every superstep with fixed partition results.
type stubTransport struct{ results []PartResult }

func (s stubTransport) Parts() int         { return 2 }
func (s stubTransport) Strategy() Strategy { return Hash }
func (s stubTransport) Superstep(context.Context, *SuperstepReq) ([]PartResult, error) {
	return s.results, nil
}

// TestCoordinatorRejectsBadAnswers: a partition answer the coordinator
// cannot merge — a vertex id past the landing type, inside the last
// bitmap word or beyond it, or more buckets than the cluster has
// partitions — fails the superstep as that partition's failure.
func TestCoordinatorRejectsBadAnswers(t *testing.T) {
	g := ringGraph(t, 8)
	for name, bad := range map[string][][]uint32{
		"id in last word": {{1}, {9}},
		"id past words":   {{1}, {70}},
		"extra bucket":    {{1}, {2}, {3}},
	} {
		c, err := NewWithTransport(g, stubTransport{results: []PartResult{
			{Part: 0, Dst: [][]uint32{{1}, {}}},
			{Part: 1, Dst: bad, Addr: "10.0.0.2:7700"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Expand("forward", Step{Edge: g.EdgeType("E"), Forward: true}, bitmap.NewFull(8))
		var perr *PartialError
		if !errors.As(err, &perr) || len(perr.Failures) != 1 || perr.Failures[0].Part != 1 || perr.Failures[0].Addr != "10.0.0.2:7700" {
			t.Errorf("%s: error %v, want a partial failure of p1", name, err)
		}
	}
}

func TestDialTCPValidation(t *testing.T) {
	if _, err := DialTCP(nil, DialOptions{}); err == nil {
		t.Error("dialing zero workers must fail")
	}
}

// FuzzWorkerFrame feeds arbitrary bodies through the worker's parse and
// dispatch and through the coordinator's answer parse. Nothing panics;
// nothing allocates much past what the body's own length backs; a
// request that parses encodes back to the same bytes; and every answer
// the worker gives parses back to the buckets (or the error) it sent.
func FuzzWorkerFrame(f *testing.F) {
	w := &Worker{g: ringGraph(f, 8), part: 0, parts: 2, strategy: Hash, ctx: context.Background()}
	w.fingerprint = fingerprintString(GraphFingerprint(w.g))
	for _, req := range []*workerReq{
		{Op: opHello, Part: 0, Parts: 2, Strategy: "hash", Fingerprint: w.fingerprint},
		{Op: opStep, Edge: "E", Pass: "forward", Forward: true, Round: 1, InSize: 8, OutSize: 8, Frontier: wordBytes([]uint64{0x5b})},
		{Op: opPing},
	} {
		frame, err := encodeReq(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add(appendResp(nil, [][]uint32{{2, 4}, {1, 7}}, nil)[4:])
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req, reqErr := parseReq(body)
		dst, err := w.dispatch(body)
		answer := appendResp(nil, dst, err)
		_, _ = parseResp(body)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(body)) {
			t.Fatalf("a %d-byte body allocated %d bytes", len(body), grew)
		}
		if reqErr == nil {
			if frame, err := encodeReq(req); err != nil || !bytes.Equal(frame[4:], body) {
				t.Fatalf("request %+v re-encodes to %x (%v), was %x", req, frame, err, body)
			}
		}
		back, backErr := parseResp(answer[4:])
		var r refusal
		switch {
		case err == nil && (backErr != nil || !sameBuckets(back, dst)):
			t.Fatalf("answer %v parsed back as %v (%v)", dst, back, backErr)
		case err != nil && (!errors.As(backErr, &r) || string(r) != err.Error()):
			t.Fatalf("refusal %q parsed back as %v", err, backErr)
		}
	})
}

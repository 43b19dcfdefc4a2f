package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"graql/internal/bitmap"
	"graql/internal/graph"
	"graql/internal/table"
	"graql/internal/value"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := workerReq{Op: "step", Edge: "e", Forward: true, Pass: "forward", Round: 3,
		InSize: 64, OutSize: 128, Frontier: "AAAA"}
	wrote, err := writeFrame(&buf, &req)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != buf.Len() {
		t.Fatalf("writeFrame reported %d bytes, wrote %d", wrote, buf.Len())
	}
	var got workerReq
	read, err := readFrame(bufio.NewReader(&buf), &got)
	if err != nil {
		t.Fatal(err)
	}
	if read != wrote {
		t.Fatalf("readFrame reported %d bytes, frame was %d", read, wrote)
	}
	if got != req {
		t.Fatalf("frame round trip mutated the request: %+v vs %+v", got, req)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	if _, err := writeFrame(&bytes.Buffer{}, strings.Repeat("x", maxFrameBytes+1)); err == nil {
		t.Error("writeFrame must reject an oversize payload")
	}
	// A forged header claiming an oversize frame must be rejected before
	// any allocation.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	var v workerReq
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr)), &v); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("readFrame must reject a forged oversize header, got %v", err)
	}
}

func TestFrameRejectsMalformedJSON(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 2})
	buf.WriteString("{x")
	var v workerReq
	if _, err := readFrame(bufio.NewReader(&buf), &v); err == nil ||
		!strings.Contains(err.Error(), "unmarshal") {
		t.Errorf("readFrame must reject malformed JSON, got %v", err)
	}
}

func TestBitmapCodec(t *testing.T) {
	if got := encodeBitmap(nil); got != "" {
		t.Errorf("nil bitmap must encode empty, got %q", got)
	}
	if b, err := decodeBitmap(10, ""); err != nil || b != nil {
		t.Errorf("empty string must decode to nil bitmap, got %v, %v", b, err)
	}
	b := bitmap.New(100)
	for _, v := range []uint32{0, 7, 63, 64, 99} {
		b.Set(v)
	}
	rt, err := decodeBitmap(100, encodeBitmap(b))
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Equal(b) {
		t.Fatal("bitmap codec round trip lost bits")
	}
	if _, err := decodeBitmap(100, "not!base64!"); err == nil {
		t.Error("bad base64 must fail bitmap decode")
	}
	if _, err := decodeBitmap(100, "AAAA"); err == nil ||
		!strings.Contains(err.Error(), "word-aligned") {
		t.Errorf("misaligned bitmap payload must fail, got %v", err)
	}
}

func TestIDsCodec(t *testing.T) {
	if got := encodeIDs(nil); got != "" {
		t.Errorf("empty ids must encode empty, got %q", got)
	}
	if ids, err := decodeIDs(""); err != nil || ids != nil {
		t.Errorf("empty string must decode to nil ids, got %v, %v", ids, err)
	}
	want := []uint32{0, 1, 1 << 20, 0xffffffff}
	got, err := decodeIDs(encodeIDs(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("id codec length: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("id %d: want %d, got %d", i, want[i], got[i])
		}
	}
	if _, err := decodeIDs("not!base64!"); err == nil {
		t.Error("bad base64 must fail id decode")
	}
	if _, err := decodeIDs("AAAAAAA="); err == nil ||
		!strings.Contains(err.Error(), "id-aligned") {
		t.Errorf("misaligned id payload must fail, got %v", err)
	}
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

// ringGraph is V (8 vertices) with one edge type E: v -> v+1 mod 8.
func ringGraph(t *testing.T) *graph.Graph {
	t.Helper()
	base := table.MustNew("TV", table.Schema{{Name: "id", Type: value.Int}})
	edges := make([]graph.Edge, 8)
	for i := range 8 {
		if err := base.AppendRow([]value.Value{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
		edges[i] = graph.Edge{Src: uint32(i), Dst: uint32((i + 1) % 8)}
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
	w := &Worker{g: ringGraph(t), part: 0, parts: 1, strategy: Hash, ctx: context.Background()}
	if resp := w.dispatch(&workerReq{Op: "bogus"}); resp.OK || !strings.Contains(resp.Err, "unknown op") {
		t.Errorf("unknown op must fail, got %+v", resp)
	}
	if resp := w.dispatch(&workerReq{Op: "step", Edge: "E", InSize: 8, OutSize: 8, Frontier: ""}); resp.OK ||
		!strings.Contains(resp.Err, "no frontier") {
		t.Errorf("step without frontier must fail, got %+v", resp)
	}
	if resp := w.dispatch(&workerReq{Op: "step", Edge: "E", InSize: 8, OutSize: 8, Frontier: "!!"}); resp.OK {
		t.Errorf("step with undecodable frontier must fail, got %+v", resp)
	}
	// Sizes that disagree with the worker's edge type are refused before
	// they size the frontier's decoding: a negative one cannot size a
	// bitmap, a huge one would allocate before any check.
	for _, in := range []int{-1000, 1 << 62} {
		if resp := w.dispatch(&workerReq{Op: "step", Edge: "E", InSize: in, OutSize: 8, Frontier: encodeBitmap(bitmap.New(8))}); resp.OK ||
			!strings.Contains(resp.Err, "graph divergence") {
			t.Errorf("step with in_size %d must be refused, got %+v", in, resp)
		}
	}
	// A coordinator of an earlier build ships a filter set and expects it
	// applied: answering unfiltered would hand it a superset.
	if resp := w.dispatch(&workerReq{Op: "step", Edge: "E", InSize: 8, Frontier: encodeBitmap(bitmap.New(8)), OutSize: 8, Filter: encodeBitmap(bitmap.New(8))}); resp.OK ||
		resp.Err != errFilterRefused {
		t.Errorf("step with a filter must be refused, got %+v", resp)
	}
	if resp := w.dispatch(&workerReq{Op: "ping"}); !resp.OK {
		t.Errorf("ping must succeed, got %+v", resp)
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
	g := ringGraph(t)
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

// TestNilFilterOmitsField: a step with no filter set puts no filter field
// in its frame, so a worker reads the absence back as nil and does not
// refuse the step.
func TestNilFilterOmitsField(t *testing.T) {
	req := &workerReq{Op: "step", Edge: "e", Frontier: encodeBitmap(bitmap.New(8)), Filter: encodeBitmap(nil)}
	frame, err := json.Marshal(req)
	if err != nil || strings.Contains(string(frame), "filter") {
		t.Fatalf("frame of an unfiltered step: %s (%v)", frame, err)
	}
	if f, err := decodeBitmap(8, ""); err != nil || f != nil {
		t.Fatalf("decodeBitmap(\"\") = %v, %v; want nil, nil", f, err)
	}
	var back workerReq
	if err := json.Unmarshal(frame, &back); err != nil || back.Filter != "" {
		t.Fatalf("unfiltered step read back with filter %q (%v)", back.Filter, err)
	}
}

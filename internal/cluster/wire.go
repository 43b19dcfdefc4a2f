package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"graql/internal/bitmap"
)

// Worker wire protocol: each frame is a 4-byte big-endian length prefix
// followed by exactly that many bytes of binary body. One request frame
// yields one response frame on the same connection, in order (supersteps
// are a strict request/response RPC; the coordinator opens one
// connection per worker and never interleaves).
//
// A request body is its op byte and then the op's fields, in order:
// integers as 8-byte little-endian, strings and byte fields as a 4-byte
// little-endian length and the bytes.
//
//	hello — part, parts, strategy, fingerprint. The handshake: the
//	        worker verifies that it owns part of parts under strategy
//	        and holds the graph fingerprint names. Any mismatch fails
//	        the dial — a coordinator must never scatter supersteps to a
//	        worker holding a different graph or disagreeing about vertex
//	        placement.
//	step  — edge, pass, trace_id, forward (one byte, 0 or 1), round,
//	        in_size, out_size, frontier. One BSP superstep: expand the
//	        owned slice of the frontier through the named edge index and
//	        return discovered targets bucketed by owning partition. The
//	        frontier is the bitmap's raw little-endian uint64 words.
//	ping  — no fields; liveness probe (used by /readyz and health checks).
//
// A response body is a status byte: 1 and then a 4-byte bucket count
// and, per bucket, a 4-byte id count and the raw little-endian uint32
// vertex ids (a step's answer, index = destination partition; hello and
// ping answer zero buckets); or 0 and the worker's error as a string.
// Every count is checked against the bytes the frame has left before it
// sizes anything, and a frame with bytes after its last field is refused.

// maxFrameBytes bounds a single frame (64 MiB — a frontier bitmap over
// hundreds of millions of vertices still fits with wide margin).
const maxFrameBytes = 64 << 20

// Request op bytes.
const (
	opHello byte = iota + 1
	opStep
	opPing
)

// workerReq is one coordinator→worker request.
type workerReq struct {
	Op byte

	// hello fields.
	Part, Parts           int
	Strategy, Fingerprint string

	// step fields.
	Edge, Pass, TraceID string
	Forward             bool
	Round               int
	InSize, OutSize     int
	// Frontier holds the raw words; the worker decodes them (frontier)
	// only once stepEdge has checked InSize against its own graph.
	Frontier []byte
}

// encodeReq encodes req as one whole frame, length prefix included.
func encodeReq(req *workerReq) ([]byte, error) {
	b := []byte{0, 0, 0, 0, req.Op}
	switch req.Op {
	case opHello:
		b = appendInt(b, req.Part)
		b = appendInt(b, req.Parts)
		b = appendStr(b, req.Strategy)
		b = appendStr(b, req.Fingerprint)
	case opStep:
		b = appendStr(b, req.Edge)
		b = appendStr(b, req.Pass)
		b = appendStr(b, req.TraceID)
		forward := byte(0)
		if req.Forward {
			forward = 1
		}
		b = append(b, forward)
		b = appendInt(b, req.Round)
		b = appendInt(b, req.InSize)
		b = appendInt(b, req.OutSize)
		b = appendStr(b, req.Frontier)
	}
	if len(b)-4 > maxFrameBytes {
		return nil, fmt.Errorf("cluster: frame of %d bytes exceeds limit %d", len(b)-4, maxFrameBytes)
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b, nil
}

// parseReq decodes one request body.
func parseReq(p []byte) (*workerReq, error) {
	r := &reader{b: p}
	req := &workerReq{Op: byte(r.num(1))}
	switch req.Op {
	case opHello:
		req.Part, req.Parts, req.Strategy, req.Fingerprint = r.num(8), r.num(8), r.str(), r.str()
	case opStep:
		req.Edge, req.Pass, req.TraceID = r.str(), r.str(), r.str()
		switch r.num(1) {
		case 0:
		case 1:
			req.Forward = true
		default:
			r.fail("forward flag is not 0 or 1")
		}
		req.Round, req.InSize, req.OutSize, req.Frontier = r.num(8), r.num(8), r.num(8), r.next(r.num(4))
	case opPing:
	default:
		r.fail(fmt.Sprintf("unknown op byte %d", req.Op))
	}
	return req, r.end()
}

// appendResp encodes the answer to one request as a whole frame, length
// prefix included, reusing b's storage: dst's buckets, or err.
func appendResp(b []byte, dst [][]uint32, err error) []byte {
	b = append(b[:0], 0, 0, 0, 0)
	if err != nil {
		b = appendStr(append(b, 0), err.Error())
	} else {
		b = binary.LittleEndian.AppendUint32(append(b, 1), uint32(len(dst)))
		for _, ids := range dst {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
			for _, id := range ids {
				b = binary.LittleEndian.AppendUint32(b, id)
			}
		}
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// refusal is a worker's error answer: the frame it answered arrived
// whole, so sending the same frame again cannot change it.
type refusal string

func (r refusal) Error() string { return "worker error: " + string(r) }

// parseResp decodes one response body into its buckets, which share one
// fresh id array (p may be reused once it returns), or into a refusal.
func parseResp(p []byte) ([][]uint32, error) {
	r := &reader{b: p}
	switch r.num(1) {
	case 0:
		msg := r.str()
		if err := r.end(); err != nil {
			return nil, err
		}
		return nil, refusal(msg)
	case 1:
	default:
		r.fail("status byte is not 0 or 1")
	}
	n := r.num(4)
	if r.err != nil || n > len(r.b)/4 {
		r.fail(fmt.Sprintf("%d buckets in %d bytes", n, len(r.b)))
		return nil, r.err
	}
	dst := make([][]uint32, n)
	ids := make([]uint32, 0, len(r.b)/4-n)
	for d := range dst {
		raw := r.next(4 * r.num(4))
		start := len(ids)
		for i := 0; i < len(raw); i += 4 {
			ids = append(ids, binary.LittleEndian.Uint32(raw[i:]))
		}
		dst[d] = ids[start:len(ids):len(ids)]
	}
	return dst, r.end()
}

// frontier decodes a step's frontier into a bitmap of InSize bits. It
// refuses a frontier that is not exactly InSize's words, or that sets a
// bit at or past InSize, so the worker expands the very set that was
// sent.
func frontier(req *workerReq) (*bitmap.Bitmap, error) {
	if n := 8 * ((req.InSize + 63) / 64); len(req.Frontier) != n {
		return nil, fmt.Errorf("cluster: step frame on edge %q: frontier of %d bytes, in_size %d needs %d",
			req.Edge, len(req.Frontier), req.InSize, n)
	}
	b := bitmap.New(req.InSize)
	words := b.Words()
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(req.Frontier[8*i:])
	}
	if rem := req.InSize % 64; rem != 0 && words[len(words)-1]>>rem != 0 {
		return nil, fmt.Errorf("cluster: step frame on edge %q: frontier sets a bit at or past in_size %d", req.Edge, req.InSize)
	}
	return b, nil
}

// wordBytes is the wire form of a frontier's words.
func wordBytes(words []uint64) []byte {
	b := make([]byte, 0, 8*len(words))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// readFrame reads one frame's body into buf's storage, growing it as
// needed, and returns the body.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n > maxFrameBytes {
		return buf, fmt.Errorf("cluster: frame of %d bytes exceeds limit %d", n, maxFrameBytes)
	}
	buf = slices.Grow(buf[:0], n)[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

func appendInt(b []byte, v int) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendStr[S string | []byte](b []byte, s S) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

// reader consumes a frame body; its first failure sticks, and every
// later read returns zero.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("cluster: malformed frame: %s", msg)
	}
}

// next takes the next n bytes, failing if fewer are left.
func (r *reader) next(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.fail(fmt.Sprintf("%d bytes wanted, %d left", n, len(r.b)))
	}
	if r.err != nil {
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// num reads an n-byte little-endian unsigned integer, n at most 8.
func (r *reader) num(n int) int {
	var w [8]byte
	copy(w[:], r.next(n))
	return int(binary.LittleEndian.Uint64(w[:]))
}

func (r *reader) str() string { return string(r.next(r.num(4))) }

// end fails a body with bytes after its last field.
func (r *reader) end() error {
	if len(r.b) > 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.b)))
	}
	return r.err
}

// fingerprintString renders a graph fingerprint for the handshake frame
// (zero-padded hex).
func fingerprintString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

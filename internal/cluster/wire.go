package cluster

import (
	"bufio"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"graql/internal/bitmap"
)

// Worker wire protocol: each frame is a 4-byte big-endian length prefix
// followed by exactly that many bytes of JSON. One request frame yields
// one response frame on the same connection, in order (supersteps are a
// strict request/response RPC; the coordinator opens one connection per
// worker and never interleaves).
//
// Requests carry an "op":
//
//	hello — handshake: the coordinator states the partition index it
//	        expects this worker to own, the total partition count, the
//	        placement strategy, and its graph fingerprint; the worker
//	        verifies all four and echoes its own values back. Any
//	        mismatch fails the dial — a coordinator must never scatter
//	        supersteps to a worker holding a different graph or
//	        disagreeing about vertex placement.
//	step  — one BSP superstep: expand the owned slice of the frontier
//	        through the named edge index and return discovered targets
//	        bucketed by owning partition.
//	ping  — liveness probe (used by /readyz and health checks).
//
// Bitmaps travel as base64 of their little-endian uint64 words; vertex
// id buffers as base64 of little-endian uint32 ids. Both are dense,
// order-preserving encodings, so a superstep's response is byte-stable
// for a given graph and frontier.

// maxFrameBytes bounds a single frame (64 MiB — a frontier bitmap over
// hundreds of millions of vertices still fits with wide margin).
const maxFrameBytes = 64 << 20

// workerReq is one coordinator→worker frame.
type workerReq struct {
	Op string `json:"op"`

	// hello fields.
	Part        int    `json:"part,omitempty"`
	Parts       int    `json:"parts,omitempty"`
	Strategy    string `json:"strategy,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`

	// step fields.
	Edge     string `json:"edge,omitempty"`
	Forward  bool   `json:"forward,omitempty"`
	Pass     string `json:"pass,omitempty"`
	Round    int    `json:"round,omitempty"`
	TraceID  string `json:"trace_id,omitempty"`
	InSize   int    `json:"in_size,omitempty"`
	OutSize  int    `json:"out_size,omitempty"`
	Frontier string `json:"frontier,omitempty"`
	// Filter is read only to be refused: an older coordinator expects its
	// candidate set applied, and an unfiltered answer would be a superset.
	Filter string `json:"filter,omitempty"`
}

const errFilterRefused = "worker: step frame carries a filter set; this worker expands unfiltered and the coordinator decides step conditions (upgrade the coordinator)"

// workerResp is one worker→coordinator frame.
type workerResp struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`

	// hello echo.
	Part        int    `json:"part,omitempty"`
	Parts       int    `json:"parts,omitempty"`
	Strategy    string `json:"strategy,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`

	// step result: index = destination partition, base64 LE uint32 ids.
	Dst []string `json:"dst,omitempty"`
}

// writeFrame marshals v and writes one length-prefixed frame, returning
// the total bytes put on the wire (header + payload).
func writeFrame(w io.Writer, v any) (int, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("cluster: marshal frame: %w", err)
	}
	if len(payload) > maxFrameBytes {
		return 0, fmt.Errorf("cluster: frame of %d bytes exceeds limit %d", len(payload), maxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := w.Write(payload)
	return len(hdr) + n, err
}

// readFrame reads one length-prefixed frame into v, returning the total
// bytes taken off the wire.
func readFrame(r *bufio.Reader, v any) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return 0, fmt.Errorf("cluster: frame of %d bytes exceeds limit %d", n, maxFrameBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return 0, fmt.Errorf("cluster: unmarshal frame: %w", err)
	}
	return len(hdr) + int(n), nil
}

// encodeBitmap packs a bitmap's words little-endian and base64s them.
// nil encodes as "".
func encodeBitmap(b *bitmap.Bitmap) string {
	if b == nil {
		return ""
	}
	words := b.Words()
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// decodeBitmap is the inverse of encodeBitmap for a bitmap of capacity n.
// "" decodes to nil.
func decodeBitmap(n int, s string) (*bitmap.Bitmap, error) {
	if s == "" {
		return nil, nil
	}
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("cluster: bitmap decode: %w", err)
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("cluster: bitmap payload of %d bytes is not word-aligned", len(buf))
	}
	words := make([]uint64, len(buf)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return bitmap.NewFromWords(n, words), nil
}

// encodeIDs packs vertex ids little-endian and base64s them.
func encodeIDs(ids []uint32) string {
	if len(ids) == 0 {
		return ""
	}
	buf := make([]byte, 4*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(buf[i*4:], id)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// decodeIDs is the inverse of encodeIDs.
func decodeIDs(s string) ([]uint32, error) {
	if s == "" {
		return nil, nil
	}
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("cluster: id buffer decode: %w", err)
	}
	if len(buf)%4 != 0 {
		return nil, fmt.Errorf("cluster: id buffer of %d bytes is not id-aligned", len(buf))
	}
	ids := make([]uint32, len(buf)/4)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint32(buf[i*4:])
	}
	return ids, nil
}

// fingerprintString renders a graph fingerprint for the handshake frame
// (hex, so uint64 survives JSON without float truncation).
func fingerprintString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements hierarchical request tracing with W3C
// traceparent-style context propagation: 16-byte trace ids correlate all
// work done for one client request across layers (client → server →
// engine → cluster simulation), 8-byte span ids form parent/child trees
// within a trace, and a bounded ring on the Registry retains the last N
// complete trace trees for GET /debug/traces and the "trace" server op.
//
// Span timing uses Go's monotonic clock (time.Since on the trace epoch),
// so span offsets are immune to wall-clock steps.

// TraceID identifies one end-to-end request across layers (16 bytes,
// rendered as 32 lowercase hex digits, W3C trace-context style).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, 16 hex digits).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Id generation: a process-random seed mixed with an atomic counter
// through splitmix64. The counter guarantees in-process uniqueness (the
// finaliser is a bijection); the seed makes collisions across processes
// as unlikely as random ids. No locks, no syscalls on the hot path.
var (
	idSeed    uint64
	idCounter atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		idSeed = binary.LittleEndian.Uint64(b[:])
	} else {
		idSeed = uint64(time.Now().UnixNano())
	}
}

// splitmix64 is the SplitMix64 finaliser: a bijective 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func nextID() uint64 { return splitmix64(idSeed + idCounter.Add(1)) }

// NewTraceID returns a fresh process-unique trace id.
func NewTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[0:8], nextID())
	binary.BigEndian.PutUint64(t[8:16], nextID())
	return t
}

// NewSpanID returns a fresh process-unique span id.
func NewSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], nextID())
	return s
}

// FormatTraceParent renders a W3C traceparent header value
// (version 00, sampled flag set): 00-<32 hex>-<16 hex>-01.
func FormatTraceParent(t TraceID, s SpanID) string {
	return fmt.Sprintf("00-%s-%s-01", t, s)
}

// NewTraceParent returns a freshly generated traceparent value, for
// clients that originate a trace.
func NewTraceParent() string { return FormatTraceParent(NewTraceID(), NewSpanID()) }

// ParseTraceParent accepts a W3C traceparent value
// ("00-<32 hex>-<16 hex>-<2 hex>") or a bare 32-hex trace id and returns
// the trace id plus the parent span id (zero when absent). ok is false
// for anything malformed or for the all-zero trace id.
func ParseTraceParent(s string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	switch len(s) {
	case 32:
		if _, err := hex.Decode(tid[:], []byte(s)); err != nil {
			return TraceID{}, SpanID{}, false
		}
	case 55: // 00-traceid-spanid-flags
		if s[0:3] != "00-" || s[35] != '-' || s[52] != '-' {
			return TraceID{}, SpanID{}, false
		}
		if _, err := hex.Decode(tid[:], []byte(s[3:35])); err != nil {
			return TraceID{}, SpanID{}, false
		}
		if _, err := hex.Decode(sid[:], []byte(s[36:52])); err != nil {
			return TraceID{}, SpanID{}, false
		}
	default:
		return TraceID{}, SpanID{}, false
	}
	if tid.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

// Attr is one key/value span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one unit of traced work: an operator of a query execution (a
// scan, an edge-expansion step, a sort, …), a statement, a server
// request, a BSP superstep. Row and time updates are atomic because
// parallel workers share the span; times are inclusive of nested
// operators, like the "actual time" of SQL EXPLAIN ANALYZE.
type Span struct {
	Action string
	Detail string
	rows   atomic.Int64
	ns     atomic.Int64

	// Tree identity: nil tr means a detached no-op span.
	tr      *Trace
	id      SpanID
	parent  SpanID
	startNs int64 // offset from the trace epoch
	startAt time.Time
	ended   atomic.Bool
	attrs   []Attr // guarded by tr.mu
}

// Trace returns the trace the span belongs to (nil for a nil or
// detached span).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// ID returns the span's id (zero for a nil or detached span).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// AddRows adds n produced rows (bindings).
func (s *Span) AddRows(n int64) {
	if s == nil {
		return
	}
	s.rows.Add(n)
}

// Incr adds one produced row.
func (s *Span) Incr() { s.AddRows(1) }

// AddTime accumulates elapsed wall time.
func (s *Span) AddTime(d time.Duration) {
	if s == nil {
		return
	}
	s.ns.Add(int64(d))
}

// Record sets rows and time in one call (for sequential operators).
func (s *Span) Record(rows int64, d time.Duration) {
	if s == nil {
		return
	}
	s.rows.Add(rows)
	s.ns.Add(int64(d))
}

// Rows returns the produced row count.
func (s *Span) Rows() int64 {
	if s == nil {
		return 0
	}
	return s.rows.Load()
}

// Duration returns the accumulated wall time.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.ns.Load())
}

// SetAttr attaches (or overwrites) a key/value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Child starts a new span under this one. On a nil or detached span it
// returns nil, which is itself inert.
func (s *Span) Child(action, detail string) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	return s.tr.newSpan(s.id, action, detail)
}

// End stamps the span's duration from its start time, unless time was
// already recorded explicitly (Record/AddTime) or End already ran.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	if s.ns.Load() == 0 && !s.startAt.IsZero() {
		s.ns.Store(int64(time.Since(s.startAt)))
	}
}

// Trace collects the spans of one traced request. The zero value is
// usable (it lazily assigns itself an epoch; its trace id stays zero —
// EXPLAIN ANALYZE uses this for private flat traces). A nil *Trace is
// inert, so execution code traces unconditionally and pays nothing when
// tracing is off.
type Trace struct {
	mu    sync.Mutex
	id    TraceID
	epoch time.Time
	spans []*Span
}

// NewTrace returns a trace with the given id (a zero id draws a fresh
// one).
func NewTrace(id TraceID) *Trace {
	if id.IsZero() {
		id = NewTraceID()
	}
	return &Trace{id: id, epoch: time.Now()}
}

// ID returns the trace id (zero for nil or zero-value traces).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// Span appends a new top-level span (no parent within the trace).
func (t *Trace) Span(action, detail string) *Span {
	return t.newSpan(SpanID{}, action, detail)
}

// SpanUnder appends a new span whose parent is the given span id — used
// at trust boundaries where the parent is a remote span known only by id
// (e.g. the client's span carried in a traceparent).
func (t *Trace) SpanUnder(parent SpanID, action, detail string) *Span {
	return t.newSpan(parent, action, detail)
}

func (t *Trace) newSpan(parent SpanID, action, detail string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.epoch.IsZero() {
		t.epoch = time.Now()
	}
	s := &Span{
		Action: action, Detail: detail,
		tr: t, id: NewSpanID(), parent: parent,
		startNs: int64(time.Since(t.epoch)),
		startAt: time.Now(),
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Spans returns the spans in creation order.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// SpanNode is the JSON-friendly form of one span in a trace tree.
type SpanNode struct {
	SpanID    string            `json:"spanId"`
	ParentID  string            `json:"parentSpanId,omitempty"`
	Action    string            `json:"action"`
	Detail    string            `json:"detail,omitempty"`
	Rows      int64             `json:"rows"`
	StartUs   int64             `json:"startUs"`
	ElapsedUs int64             `json:"elapsedUs"`
	Attrs     map[string]string `json:"attrs,omitempty"`
	Children  []*SpanNode       `json:"children,omitempty"`
}

// TraceTree is the JSON-friendly form of one complete trace: its spans
// arranged as a forest (spans whose parent is remote or unknown become
// roots, in creation order).
type TraceTree struct {
	TraceID   string      `json:"traceId"`
	SpanCount int         `json:"spanCount"`
	Roots     []*SpanNode `json:"roots"`
}

// Tree renders the trace as a parent/child forest.
func (t *Trace) Tree() TraceTree {
	if t == nil {
		return TraceTree{}
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	id := t.id
	attrsOf := make([]map[string]string, len(spans))
	for i, s := range spans {
		if len(s.attrs) > 0 {
			m := make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				m[a.Key] = a.Value
			}
			attrsOf[i] = m
		}
	}
	t.mu.Unlock()

	out := TraceTree{TraceID: id.String(), SpanCount: len(spans)}
	nodes := make(map[SpanID]*SpanNode, len(spans))
	for i, s := range spans {
		n := &SpanNode{
			SpanID:    s.id.String(),
			Action:    s.Action,
			Detail:    s.Detail,
			Rows:      s.Rows(),
			StartUs:   s.startNs / 1e3,
			ElapsedUs: s.Duration().Microseconds(),
			Attrs:     attrsOf[i],
		}
		if !s.parent.IsZero() {
			n.ParentID = s.parent.String()
		}
		nodes[s.id] = n
	}
	for _, s := range spans {
		n := nodes[s.id]
		if p, ok := nodes[s.parent]; ok && s.parent != s.id {
			p.Children = append(p.Children, n)
		} else {
			out.Roots = append(out.Roots, n)
		}
	}
	return out
}

// traceRingCap is the default retention of complete traces.
const traceRingCap = 64

// traceRing retains the most recent complete traces.
type traceRing struct {
	mu      sync.Mutex
	cap     int
	entries []*Trace // ring, next points at the oldest slot
	next    int
	total   int64
}

// EnableTracing turns on trace retention with a ring of n complete
// traces (n <= 0 disables retention and hierarchical tracing).
func (r *Registry) EnableTracing(n int) {
	if r == nil {
		return
	}
	r.trace.mu.Lock()
	defer r.trace.mu.Unlock()
	if n <= 0 {
		r.trace.cap = 0
		r.trace.entries = nil
		r.trace.next = 0
		return
	}
	r.trace.cap = n
}

// TracingEnabled reports whether completed traces are being retained.
func (r *Registry) TracingEnabled() bool {
	if r == nil {
		return false
	}
	r.trace.mu.Lock()
	defer r.trace.mu.Unlock()
	return r.trace.cap > 0
}

// ObserveTrace retains one completed trace in the ring (a no-op when
// tracing is disabled).
func (r *Registry) ObserveTrace(t *Trace) {
	if r == nil || t == nil {
		return
	}
	g := &r.trace
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cap <= 0 {
		return
	}
	if len(g.entries) < g.cap {
		g.entries = append(g.entries, t)
	} else {
		g.entries[g.next] = t
		g.next = (g.next + 1) % g.cap
	}
	g.total++
}

// Traces returns the retained complete traces as JSON-friendly trees,
// oldest first.
func (r *Registry) Traces() []TraceTree {
	if r == nil {
		return nil
	}
	g := &r.trace
	g.mu.Lock()
	entries := make([]*Trace, 0, len(g.entries))
	entries = append(entries, g.entries[g.next:]...)
	entries = append(entries, g.entries[:g.next]...)
	g.mu.Unlock()
	out := make([]TraceTree, 0, len(entries))
	for _, t := range entries {
		out = append(out, t.Tree())
	}
	return out
}

// TraceCount returns the number of traces observed since start
// (including entries that have rotated out of the ring).
func (r *Registry) TraceCount() int64 {
	if r == nil {
		return 0
	}
	r.trace.mu.Lock()
	defer r.trace.mu.Unlock()
	return r.trace.total
}

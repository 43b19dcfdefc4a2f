package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceIDUniqueness generates ids from many goroutines at once; under
// -race it also exercises the lock-free counter behind nextID.
func TestTraceIDUniqueness(t *testing.T) {
	const workers, perWorker = 16, 500
	out := make([][]TraceID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]TraceID, perWorker)
			for i := range ids {
				ids[i] = NewTraceID()
			}
			out[w] = ids
		}(w)
	}
	wg.Wait()
	seen := make(map[TraceID]bool, workers*perWorker)
	for _, ids := range out {
		for _, id := range ids {
			if id.IsZero() {
				t.Fatal("NewTraceID returned the zero id")
			}
			if seen[id] {
				t.Fatalf("duplicate trace id %s", id)
			}
			seen[id] = true
		}
	}
}

func TestSpanIDUniqueness(t *testing.T) {
	seen := make(map[SpanID]bool)
	for i := 0; i < 2000; i++ {
		id := NewSpanID()
		if id.IsZero() || seen[id] {
			t.Fatalf("bad span id %s at %d", id, i)
		}
		seen[id] = true
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	tp := FormatTraceParent(tid, sid)
	if !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") || len(tp) != 55 {
		t.Fatalf("traceparent format: %q", tp)
	}
	gotT, gotS, ok := ParseTraceParent(tp)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("round trip: got %s/%s ok=%v", gotT, gotS, ok)
	}

	// A bare 32-hex trace id is accepted with no parent span.
	gotT, gotS, ok = ParseTraceParent(tid.String())
	if !ok || gotT != tid || !gotS.IsZero() {
		t.Fatalf("bare trace id: got %s/%s ok=%v", gotT, gotS, ok)
	}

	for _, bad := range []string{
		"", "xyz", "00-short-span-01",
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("0", 16) + "-01",
		strings.Repeat("0", 32), // all-zero trace id is invalid
	} {
		if _, _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted", bad)
		}
	}
}

func TestSpanTree(t *testing.T) {
	tr := NewTrace(TraceID{})
	if tr.ID().IsZero() {
		t.Fatal("NewTrace did not assign an id")
	}
	root := tr.Span("server", "exec")
	stmt := root.Child("statement", "select ...")
	scan := stmt.Child("scan", "City")
	scan.AddRows(3)
	scan.SetAttr("shards", "4")
	scan.End()
	stmt.End()
	root.End()

	tree := tr.Tree()
	if tree.TraceID != tr.ID().String() || tree.SpanCount != 3 || len(tree.Roots) != 1 {
		t.Fatalf("tree shape: %+v", tree)
	}
	r := tree.Roots[0]
	if r.Action != "server" || len(r.Children) != 1 {
		t.Fatalf("root: %+v", r)
	}
	s := r.Children[0]
	if s.Action != "statement" || s.ParentID != r.SpanID || len(s.Children) != 1 {
		t.Fatalf("statement: %+v", s)
	}
	c := s.Children[0]
	if c.Action != "scan" || c.Rows != 3 || c.Attrs["shards"] != "4" {
		t.Fatalf("scan: %+v", c)
	}

	// The tree must survive JSON encoding (the /debug/traces payload).
	if _, err := json.Marshal(tree); err != nil {
		t.Fatal(err)
	}
}

// TestSpanUnderRemoteParent checks that a span whose parent id belongs to
// a remote caller (not in this trace) renders as a root.
func TestSpanUnderRemoteParent(t *testing.T) {
	remote := NewSpanID()
	tr := NewTrace(NewTraceID())
	root := tr.SpanUnder(remote, "server", "exec")
	root.Child("statement", "x").End()
	root.End()
	tree := tr.Tree()
	if len(tree.Roots) != 1 || tree.Roots[0].ParentID != remote.String() {
		t.Fatalf("remote-parent root: %+v", tree.Roots)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Span("a", "b")
	sp.AddRows(1)
	sp.SetAttr("k", "v")
	sp.Child("c", "d").End()
	sp.End()
	if got := tr.Tree(); got.SpanCount != 0 {
		t.Fatalf("nil trace tree: %+v", got)
	}
	var reg *Registry
	reg.EnableTracing(4)
	reg.ObserveTrace(tr)
	if reg.TracingEnabled() || reg.Traces() != nil || reg.TraceCount() != 0 {
		t.Fatal("nil registry should report tracing off")
	}
}

func TestTraceRingRotation(t *testing.T) {
	r := New()
	if r.TracingEnabled() {
		t.Fatal("tracing should default off")
	}
	r.EnableTracing(2)
	if !r.TracingEnabled() {
		t.Fatal("EnableTracing did not enable")
	}
	var ids []string
	for i := 0; i < 3; i++ {
		tr := NewTrace(TraceID{})
		tr.Span("statement", "q").End()
		r.ObserveTrace(tr)
		ids = append(ids, tr.ID().String())
	}
	if got := r.TraceCount(); got != 3 {
		t.Fatalf("TraceCount = %d, want 3", got)
	}
	trees := r.Traces()
	if len(trees) != 2 {
		t.Fatalf("retained %d traces, want 2", len(trees))
	}
	// Oldest first, with the first observation evicted.
	if trees[0].TraceID != ids[1] || trees[1].TraceID != ids[2] {
		t.Fatalf("ring order: %s, %s (want %s, %s)", trees[0].TraceID, trees[1].TraceID, ids[1], ids[2])
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := New()
	text := r.PrometheusText()
	for _, name := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(text, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

func TestSlowQueryTraceID(t *testing.T) {
	r := New()
	r.SetSlowQueryThreshold(time.Nanosecond)
	tid := NewTraceID()
	r.ObserveStmtEvent(StmtEvent{Script: "select 1", Elapsed: time.Millisecond, Trace: tid})
	r.ObserveStmtEvent(StmtEvent{Script: "select 2", Elapsed: time.Millisecond})
	qs := r.SlowQueries()
	if len(qs) != 2 {
		t.Fatalf("slow queries: %d", len(qs))
	}
	if qs[0].TraceID != tid.String() {
		t.Fatalf("TraceID = %q, want %q", qs[0].TraceID, tid)
	}
	if qs[1].TraceID != "" {
		t.Fatalf("untraced entry has TraceID %q", qs[1].TraceID)
	}
}

func TestParseLevel(t *testing.T) {
	for _, s := range []string{"", "off", "none"} {
		if _, enabled, err := ParseLevel(s); enabled || err != nil {
			t.Errorf("ParseLevel(%q): enabled=%v err=%v", s, enabled, err)
		}
	}
	if _, enabled, err := ParseLevel("debug"); !enabled || err != nil {
		t.Errorf("ParseLevel(debug): enabled=%v err=%v", enabled, err)
	}
	if _, _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) accepted")
	}
}

func TestNewLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "info", "json")
	if err != nil || log == nil {
		t.Fatalf("NewLogger: %v", err)
	}
	log.Debug("hidden")
	log.Info("request", "trace_id", "abc", "op", "exec", "code", "", "elapsed_us", 42)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, buf.String())
	}
	if line["msg"] != "request" || line["trace_id"] != "abc" || line["op"] != "exec" {
		t.Fatalf("log line: %v", line)
	}

	if log, err := NewLogger(&buf, "off", "json"); err != nil || log != nil {
		t.Fatalf("off level: log=%v err=%v", log, err)
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
}

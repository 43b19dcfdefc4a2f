package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("hits_total", "hits")
	g := r.Gauge("active", "active workers")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	// Same name returns the same series.
	if r.Counter("hits_total", "hits") != c {
		t.Error("counter lookup must return the existing series")
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "latency", []float64{0.001, 0.01, 0.1})
	// One observation per region: ≤1ms, ≤10ms, ≤100ms, +Inf.
	for _, v := range []float64{0.0005, 0.001, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("bounds=%v cum=%v", bounds, cum)
	}
	// 0.0005 and the exactly-on-bound 0.001 land in the first bucket
	// (le="0.001" is an inclusive upper bound).
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d (bounds %v)", i, cum[i], w, bounds)
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if diff := h.Sum() - 5.0565; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum = %v", h.Sum())
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", b)
		}
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := New()
	r.Counter("graql_queries_total", "queries executed").Add(3)
	r.CounterL("graql_requests_total", "server requests", map[string]string{"op": "exec"}).Add(2)
	r.CounterL("graql_requests_total", "server requests", map[string]string{"op": "stats"}).Inc()
	r.Gauge("graql_workers", "active workers").Set(4)
	h := r.Histogram("graql_latency_seconds", "latency", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(2)

	text := r.PrometheusText()
	for _, want := range []string{
		"# HELP graql_queries_total queries executed",
		"# TYPE graql_queries_total counter",
		"graql_queries_total 3",
		`graql_requests_total{op="exec"} 2`,
		`graql_requests_total{op="stats"} 1`,
		"# TYPE graql_workers gauge",
		"graql_workers 4",
		"# TYPE graql_latency_seconds histogram",
		`graql_latency_seconds_bucket{le="0.5"} 1`,
		`graql_latency_seconds_bucket{le="1"} 1`,
		`graql_latency_seconds_bucket{le="+Inf"} 2`,
		"graql_latency_seconds_sum 2.25",
		"graql_latency_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering missing %q:\n%s", want, text)
		}
	}
	// HELP/TYPE emitted once per family even with multiple series.
	if strings.Count(text, "# TYPE graql_requests_total") != 1 {
		t.Errorf("TYPE line duplicated:\n%s", text)
	}
}

func TestSnapshot(t *testing.T) {
	r := New()
	r.Counter("c_total", "").Add(7)
	h := r.Histogram("h", "", []float64{1})
	h.Observe(0.5)
	snap := r.Snapshot()
	if snap["c_total"] != int64(7) {
		t.Errorf("snapshot counter = %v", snap["c_total"])
	}
	hm, ok := snap["h"].(map[string]any)
	if !ok || hm["count"] != int64(1) {
		t.Errorf("snapshot histogram = %v", snap["h"])
	}
}

func TestSlowQueryLog(t *testing.T) {
	r := New()
	var sb strings.Builder
	r.SetSlowQueryThreshold(10 * time.Millisecond)
	r.SetSlowQueryWriter(&sb)
	r.ObserveStmtEvent(StmtEvent{Script: "fast", Elapsed: 1 * time.Millisecond})
	r.ObserveStmtEvent(StmtEvent{Script: "slow one", Elapsed: 20 * time.Millisecond})
	r.ObserveStmtEvent(StmtEvent{Script: "slow two", Elapsed: 30 * time.Millisecond})
	got := r.SlowQueries()
	if len(got) != 2 || got[0].Script != "slow one" || got[1].Script != "slow two" {
		t.Errorf("slow log = %+v", got)
	}
	if r.SlowQueryCount() != 2 {
		t.Errorf("slow count = %d", r.SlowQueryCount())
	}
	if !strings.Contains(sb.String(), "slow one") {
		t.Errorf("writer output = %q", sb.String())
	}
}

func TestSlowLogRingRotation(t *testing.T) {
	r := New()
	r.SetSlowQueryThreshold(1)
	for i := 0; i < slowLogCap+5; i++ {
		r.ObserveStmtEvent(StmtEvent{Script: "x" + string(rune('A'+i%26)), Elapsed: time.Second})
	}
	got := r.SlowQueries()
	if len(got) != slowLogCap {
		t.Fatalf("ring size = %d, want %d", len(got), slowLogCap)
	}
	if r.SlowQueryCount() != int64(slowLogCap+5) {
		t.Errorf("total = %d", r.SlowQueryCount())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "", nil).Observe(1)
	r.ObserveStmtEvent(StmtEvent{Script: "q", Elapsed: time.Second})
	r.SetSlowQueryThreshold(time.Second)
	if r.PrometheusText() != "" || r.Snapshot() != nil || r.SlowQueries() != nil {
		t.Error("nil registry must be inert")
	}
	var tr *Trace
	tr.Span("a", "b").Record(1, time.Second)
	if tr.Spans() != nil {
		t.Error("nil trace must be inert")
	}
}

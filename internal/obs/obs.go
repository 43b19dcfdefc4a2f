// Package obs is the GEMS observability subsystem: a dependency-free,
// lock-cheap metrics registry (atomic counters, gauges and histograms
// with Prometheus text exposition), a slow-query log, and per-query
// operator traces that back EXPLAIN ANALYZE.
//
// The paper's architecture (§III) gives operators a server but no way to
// see why a query is slow; this package is the measurement layer every
// performance experiment reports against. Updates on the hot path are
// single atomic adds (engine workers batch into goroutine-local counters
// and flush once per shard), so enabling metrics costs well under a
// percent of query time.
//
// All types are nil-safe: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram, *Trace or *Span are no-ops, so instrumentation points need
// no "is observability on?" branches.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The trailing pad
// keeps independently updated counters on distinct cache lines so
// concurrent workers do not false-share.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated instantaneous value.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
// Bucket bounds are upper bounds in ascending order; an implicit +Inf
// bucket catches the tail. The sum is kept as float bits updated by CAS.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; non-cumulative
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the upper bounds and the cumulative counts per bucket
// (Prometheus "le" semantics; the final entry is the +Inf bucket and
// equals Count).
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	if h == nil {
		return nil, nil
	}
	cumulative = make([]int64, len(h.buckets))
	var run int64
	for i := range h.buckets {
		run += h.buckets[i].Load()
		cumulative[i] = run
	}
	return h.bounds, cumulative
}

// ExpBuckets returns n upper bounds start, start*factor, start*factor²…
// — the standard exponential latency/size ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default per-statement latency ladder: 100 µs to
// ~26 s in ×4 steps.
func LatencyBuckets() []float64 { return ExpBuckets(100e-6, 4, 10) }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered series: a metric family name plus an optional
// rendered label set.
type entry struct {
	family string
	labels map[string]string
	help   string
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

func (e *entry) key() string { return e.family + renderLabels(e.labels, "", 0) }

// Registry holds named metrics, the slow-query log and the trace ring.
// Metric lookup takes the registry mutex; callers on hot paths resolve
// their metric pointers once and update them lock-free thereafter.
type Registry struct {
	mu         sync.Mutex
	entries    map[string]*entry
	collectors []func()

	slow  slowLog
	trace traceRing
	stmts stmtStats
	live  liveTable
	qlog  atomic.Pointer[slog.Logger] // the wide-event query log; nil when detached
}

// New returns a registry pre-populated with the Go runtime gauges
// (goroutines, heap in use, GC totals), process/build identity metrics,
// and the top-K per-statement series, all refreshed at scrape time.
func New() *Registry {
	r := &Registry{entries: make(map[string]*entry)}
	registerRuntimeMetrics(r)
	registerBuildMetrics(r)
	registerStmtCollector(r)
	return r
}

// OnCollect registers a hook that runs before every exposition
// (WritePrometheus, PrometheusText, Snapshot) — used to refresh gauges
// that snapshot external state, like the Go runtime metrics.
func (r *Registry) OnCollect(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// collect runs the registered collector hooks (outside the registry
// lock, so hooks may create or update series).
func (r *Registry) collect() {
	if r == nil {
		return
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterL(name, help, nil)
}

// CounterL returns the counter series with the given constant labels.
func (r *Registry) CounterL(name, help string, labels map[string]string) *Counter {
	e := r.lookup(name, help, labels, kindCounter)
	if e == nil {
		return nil
	}
	return e.c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeL(name, help, nil)
}

// GaugeL returns the gauge series with the given constant labels.
func (r *Registry) GaugeL(name, help string, labels map[string]string) *Gauge {
	e := r.lookup(name, help, labels, kindGauge)
	if e == nil {
		return nil
	}
	return e.g
}

// Histogram returns (creating on first use) the named histogram with the
// given bucket upper bounds (ignored if the series already exists).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramL(name, help, bounds, nil)
}

// HistogramL returns the histogram series with the given constant labels.
func (r *Registry) HistogramL(name, help string, bounds []float64, labels map[string]string) *Histogram {
	e := r.lookupHist(name, help, labels, bounds)
	if e == nil {
		return nil
	}
	return e.h
}

func (r *Registry) lookup(name, help string, labels map[string]string, kind metricKind) *entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + renderLabels(labels, "", 0)
	if e, ok := r.entries[key]; ok {
		return e
	}
	e := &entry{family: name, labels: labels, help: help, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	}
	r.entries[key] = e
	return e
}

func (r *Registry) lookupHist(name, help string, labels map[string]string, bounds []float64) *entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + renderLabels(labels, "", 0)
	if e, ok := r.entries[key]; ok {
		return e
	}
	if len(bounds) == 0 {
		bounds = LatencyBuckets()
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	e := &entry{family: name, labels: labels, help: help, kind: kindHistogram,
		h: &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}}
	r.entries[key] = e
	return e
}

// renderLabels renders a label set as {k="v",…}, with extraKey/extraVal
// (used for histogram "le") merged in when extraKey is non-empty.
// Numeric extraVal formats like Prometheus (trailing-zero-free).
func renderLabels(labels map[string]string, extraKey string, extraVal float64) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels)+1)
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		if math.IsInf(extraVal, +1) {
			fmt.Fprintf(&b, "%s=%q", extraKey, "+Inf")
		} else {
			fmt.Fprintf(&b, "%s=%q", extraKey, formatFloat(extraVal))
		}
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way the Prometheus text format
// requires: the special values spell exactly "+Inf", "-Inf" and "NaN"
// (capitalization matters to scrapers), finite values use the shortest
// round-trip form.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.collect()
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	// Sort by family first, then full key: plain byte-order on keys would
	// let family B's block interleave family A's when A is a prefix of B
	// and A has labeled series ('{' sorts after upper-case letters).
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].family != entries[j].family {
			return entries[i].family < entries[j].family
		}
		return entries[i].key() < entries[j].key()
	})

	seenFamily := map[string]bool{}
	for _, e := range entries {
		if !seenFamily[e.family] {
			seenFamily[e.family] = true
			typ := "counter"
			switch e.kind {
			case kindGauge:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.family, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.family, typ); err != nil {
				return err
			}
		}
		switch e.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", e.family, renderLabels(e.labels, "", 0), e.c.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", e.family, renderLabels(e.labels, "", 0), e.g.Value()); err != nil {
				return err
			}
		case kindHistogram:
			bounds, cum := e.h.Buckets()
			for i, ub := range bounds {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", e.family, renderLabels(e.labels, "le", ub), cum[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", e.family, renderLabels(e.labels, "le", math.Inf(1)), e.h.Count()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", e.family, renderLabels(e.labels, "", 0), formatFloat(e.h.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", e.family, renderLabels(e.labels, "", 0), e.h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// PrometheusText renders WritePrometheus into a string.
func (r *Registry) PrometheusText() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}

// Snapshot returns a JSON-friendly view of every series: counters and
// gauges map to their value; histograms map to {count, sum, buckets}.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.collect()
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	out := make(map[string]any, len(entries))
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			out[e.key()] = e.c.Value()
		case kindGauge:
			out[e.key()] = e.g.Value()
		case kindHistogram:
			bounds, cum := e.h.Buckets()
			buckets := make(map[string]int64, len(bounds)+1)
			for i, ub := range bounds {
				buckets[formatFloat(ub)] = cum[i]
			}
			buckets["+Inf"] = e.h.Count()
			out[e.key()] = map[string]any{
				"count":   e.h.Count(),
				"sum":     e.h.Sum(),
				"buckets": buckets,
			}
		}
	}
	return out
}

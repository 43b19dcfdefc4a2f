package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// The tracer records a span around each call the benchmark makes into a
// layer of the program: name, start, end, the span that caused it and
// the op it belongs to. Spans stay in memory and are written as JSON
// lines when the run ends. Nothing is added inside the program; a nil
// tracer (every untraced run) records nothing.

type spanRec struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noSpan is the parent of a root span and the id every method of a nil
// tracer returns.
const noSpan = -1

func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{Name: name, ID: id, Parent: parent, Op: op, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose duration is known but whose boundaries the
// benchmark could not observe (time a server reports for a request),
// centred in its parent.
func (t *tracer) add(name string, parent int, op int64, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	p := t.spans[parent]
	start := p.Start + (now-p.Start-d.Nanoseconds())/2
	if start < p.Start {
		start = p.Start
	}
	t.spans = append(t.spans, spanRec{Name: name, ID: len(t.spans), Parent: parent, Op: op, Start: start, End: start + d.Nanoseconds()})
	t.mu.Unlock()
}

// durations returns the duration of every finished span with the name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates spans by name; a span's self time is its
// duration minus the part its child spans cover.
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfRow{}
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			byName[s.Name] = r
		}
		d := s.End - s.Start
		self := d - child[i]
		if self < 0 {
			self = 0
		}
		r.count++
		r.total += time.Duration(d)
		r.self += time.Duration(self)
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows
}

func printSelfTimes(w io.Writer, workload string, rows []selfRow) {
	fmt.Fprintf(w, "# %s: self time by span (self = span minus its children)\n", workload)
	fmt.Fprintf(w, "# %-24s %9s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_us/n")
	for _, r := range rows {
		fmt.Fprintf(w, "# %-24s %9d %12.2f %12.2f %10.1f\n", r.name, r.count, ms(r.total), ms(r.self), us(r.self)/float64(r.count))
	}
}

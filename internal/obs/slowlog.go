package obs

import (
	"io"
	"log/slog"
	"sync"
	"time"
)

// SlowQuery is one slow-log entry. TraceID links the entry to its trace
// tree in /debug/traces when the statement ran under tracing (empty
// otherwise). Fingerprint, Rows and Code come from the statement's
// event (ObserveStmtEvent).
type SlowQuery struct {
	Script      string        `json:"script"`
	Elapsed     time.Duration `json:"elapsedNs"`
	When        time.Time     `json:"when"`
	TraceID     string        `json:"traceId,omitempty"`
	Fingerprint string        `json:"fingerprint,omitempty"`
	Rows        int64         `json:"rows,omitempty"`
	Code        string        `json:"code,omitempty"`
}

// slowLogCap bounds the in-memory ring of retained slow queries.
const slowLogCap = 128

// slowLog retains the most recent statements that exceeded a threshold.
type slowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	entries   []SlowQuery // ring, next points at the oldest slot
	next      int
	total     int64
	logger    *slog.Logger
}

// SetSlowQueryThreshold enables the slow-query log for statements taking
// longer than d (0 disables it).
func (r *Registry) SetSlowQueryThreshold(d time.Duration) {
	if r == nil {
		return
	}
	r.slow.mu.Lock()
	r.slow.threshold = d
	r.slow.mu.Unlock()
}

// SetSlowQueryWriter additionally streams each slow query to w as one
// structured JSON log line (nil disables streaming; retention in the
// ring is unaffected).
func (r *Registry) SetSlowQueryWriter(w io.Writer) {
	if r == nil {
		return
	}
	var l *slog.Logger
	if w != nil {
		l = slog.New(slog.NewJSONHandler(w, nil))
	}
	r.slow.mu.Lock()
	r.slow.logger = l
	r.slow.mu.Unlock()
}

// observeSlow feeds the slow-query log from a per-statement event,
// carrying its fingerprint, row count and error code.
func (r *Registry) observeSlow(ev *StmtEvent) {
	q := SlowQuery{
		Script:      ev.Script,
		Elapsed:     ev.Elapsed,
		Fingerprint: FormatFingerprint(ev.Fingerprint),
		Rows:        ev.Rows,
		Code:        ev.Code,
	}
	if !ev.Trace.IsZero() {
		q.TraceID = ev.Trace.String()
	}
	r.slow.record(q)
}

// record applies the threshold, retains the entry in the ring, and
// streams it to the configured writer.
func (s *slowLog) record(q SlowQuery) {
	s.mu.Lock()
	if s.threshold <= 0 || q.Elapsed < s.threshold {
		s.mu.Unlock()
		return
	}
	q.When = time.Now()
	if len(s.entries) < slowLogCap {
		s.entries = append(s.entries, q)
	} else {
		s.entries[s.next] = q
		s.next = (s.next + 1) % slowLogCap
	}
	s.total++
	l := s.logger
	s.mu.Unlock()
	if l != nil {
		l.Warn("slow query",
			"elapsed", q.Elapsed.String(),
			"elapsed_us", q.Elapsed.Microseconds(),
			"fingerprint", q.Fingerprint,
			"trace_id", q.TraceID,
			"rows", q.Rows,
			"code", q.Code,
			"query", q.Script,
		)
	}
}

// SlowQueries returns the retained slow queries, oldest first.
func (r *Registry) SlowQueries() []SlowQuery {
	if r == nil {
		return nil
	}
	s := &r.slow
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SlowQuery, 0, len(s.entries))
	out = append(out, s.entries[s.next:]...)
	out = append(out, s.entries[:s.next]...)
	return out
}

// SlowQueryCount returns the number of slow queries observed since start
// (including entries that have rotated out of the ring).
func (r *Registry) SlowQueryCount() int64 {
	if r == nil {
		return 0
	}
	r.slow.mu.Lock()
	defer r.slow.mu.Unlock()
	return r.slow.total
}

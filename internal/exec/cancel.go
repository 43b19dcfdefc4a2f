package exec

import (
	"context"
	"errors"

	"graql/internal/value"
)

// This file threads context.Context through the engine. A context-aware
// engine is a shallow copy (like the trace forks in trace.go) carrying
// the context of one request; long-running loops — candidate scans,
// binding enumeration, expansion/culling passes, regex product BFS,
// cluster supersteps — poll it cooperatively and unwind with a
// structured error. The GEMS front-end is a long-lived multi-user
// service, and worst-case pattern-matching cost is super-linear in the
// data, so the engine must be able to abandon work, not just finish it.

// Structured abort errors. They wrap the corresponding context error so
// errors.Is works against both vocabularies (exec.ErrCanceled and
// context.Canceled).
var (
	// ErrCanceled reports that the query's context was canceled (client
	// disconnect, explicit cancel, server shutdown).
	ErrCanceled = &abortError{msg: "graql: query canceled", cause: context.Canceled}
	// ErrDeadlineExceeded reports that the query ran past its deadline.
	ErrDeadlineExceeded = &abortError{msg: "graql: query deadline exceeded", cause: context.DeadlineExceeded}
)

type abortError struct {
	msg   string
	cause error
}

func (e *abortError) Error() string { return e.msg }
func (e *abortError) Unwrap() error { return e.cause }

// contextErr maps a done context to the engine's structured abort
// errors; nil while the context is live (or absent).
func contextErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadlineExceeded
	}
	return ErrCanceled
}

// WithContext returns a shallow engine copy whose execution is bound to
// ctx: statement boundaries and the hot sweep loops poll it and abort
// with ErrCanceled / ErrDeadlineExceeded. Like WithTrace, the copy
// shares the catalog, metric series and id allocator; the forks compose
// (a traced engine can be context-bound and vice versa).
func (e *Engine) WithContext(ctx context.Context) *Engine {
	c := *e
	c.ctx = ctx
	return &c
}

// canceled polls the engine's context at operation boundaries.
func (e *Engine) canceled() error { return contextErr(e.ctx) }

// ExecScriptContext is ExecScript bound to ctx: execution aborts with
// ErrCanceled or ErrDeadlineExceeded when ctx ends mid-query.
func (e *Engine) ExecScriptContext(ctx context.Context, src string, params map[string]value.Value) ([]Result, error) {
	return e.WithContext(ctx).ExecScript(src, params)
}

// pollMask batches cooperative cancellation checks in per-row loops:
// workers poll the context once every pollMask+1 rows, so the hot path
// pays one local increment and branch per row.
const pollMask = 1023

// poll is the worker-local cooperative cancellation check used inside
// matcher row sweeps; it amortises the context read over pollMask+1
// iterations.
func (w *wstate) poll() error {
	w.tick++
	if w.tick&pollMask != 0 {
		return nil
	}
	return w.report()
}

// pollAfter is poll for n members swept by one kernel call: the context
// is read once more than pollMask members have passed since the last read.
func (w *wstate) pollAfter(n int) error {
	if w.tick += uint32(n); w.tick <= pollMask {
		return nil
	}
	w.tick = 0
	return w.report()
}

// report is the poll itself, behind the amortisation.
func (w *wstate) report() error {
	// Piggyback live-progress reporting on the amortised poll: push the
	// delta of scan work since the last report into the statement's live
	// query table entry, so `ps` shows rows-so-far while the query runs.
	if a := w.m.e.acct; a != nil && a.live != nil {
		if cur := w.scanned + w.edges; cur > w.reported {
			a.live.AddRows(cur - w.reported)
			w.reported = cur
		}
	}
	return contextErr(w.m.e.ctx)
}

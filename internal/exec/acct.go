package exec

import (
	"context"
	"sync/atomic"
	"time"

	"graql/internal/obs"
)

// stmtAcct is the per-statement accounting record behind the
// observability layer's StmtEvent: execStmtID creates one per executed
// statement (when a registry is configured), the execution paths feed it
// — matcher sweeps add scan work, the WAL append adds bytes, parallel
// sweeps record their fan-out — and observeStmt folds it into the
// statement's event. It travels on the engine's shallow fork, so nested
// helpers reach it as e.acct without plumbing.
type stmtAcct struct {
	id        *stmtIdent // the compiled statement's identity
	queueWait time.Duration
	planHit   bool // the statement's plan slot was fresh (analysis skipped)

	rowsScanned atomic.Int64
	walBytes    atomic.Int64
	workers     atomic.Int64 // widest parallel fan-out seen (CAS max)

	// live is the statement's registration in the live query table;
	// matcher polls push rows-so-far into it.
	live *obs.LiveQuery
}

// notePlanHit marks the statement as served from its stored plan.
func (a *stmtAcct) notePlanHit() {
	if a != nil {
		a.planHit = true
	}
}

// noteWorkers records a sweep's fan-out, keeping the statement's maximum.
func (a *stmtAcct) noteWorkers(n int) {
	if a == nil {
		return
	}
	v := int64(n)
	for {
		cur := a.workers.Load()
		if v <= cur || a.workers.CompareAndSwap(cur, v) {
			return
		}
	}
}

// queueWaitKey carries the admission-queue wait of a request from the
// server layer into the engine's per-statement accounting.
type queueWaitKey struct{}

// WithQueueWait annotates ctx with how long the request waited for
// admission; statements executed under the context report it in their
// wide events and statistics.
func WithQueueWait(ctx context.Context, d time.Duration) context.Context {
	if d <= 0 {
		return ctx
	}
	return context.WithValue(ctx, queueWaitKey{}, d)
}

func queueWaitFrom(ctx context.Context) time.Duration {
	if ctx == nil {
		return 0
	}
	if d, ok := ctx.Value(queueWaitKey{}).(time.Duration); ok {
		return d
	}
	return 0
}

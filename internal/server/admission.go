package server

import (
	"context"
	"errors"
	"sync/atomic"

	"graql/internal/obs"
)

// ErrOverloaded is returned by Gate.Acquire when the in-flight limit and
// the wait queue are both full. The front-ends translate it to the
// structured "overloaded" error code, which clients may retry after
// backing off (the rejection happens before any execution starts).
var ErrOverloaded = errors.New("server overloaded: too many queries in flight")

// Gate is the admission controller shared by the TCP and HTTP
// front-ends: at most maxInFlight queries execute concurrently, up to
// maxQueue more wait for a slot, and everything beyond that is rejected
// immediately with ErrOverloaded. A zero maxInFlight disables limiting
// (the gate still maintains the in-flight gauge). A nil *Gate is inert.
type Gate struct {
	sem      chan struct{}
	capacity int64 // maxInFlight + maxQueue
	pending  atomic.Int64
	admitted atomic.Int64

	rejected *obs.Counter
	inflight *obs.Gauge
}

// NewGate builds a gate and registers its observability series
// (graql_queries_rejected_total, graql_queries_in_flight) on reg, so the
// metrics endpoint exposes them even before the first rejection. reg may
// be nil.
func NewGate(maxInFlight, maxQueue int, reg *obs.Registry) *Gate {
	g := &Gate{
		rejected: reg.Counter("graql_queries_rejected_total",
			"queries rejected by admission control (overloaded)"),
		inflight: reg.Gauge("graql_queries_in_flight",
			"queries currently admitted and executing"),
	}
	if maxInFlight > 0 {
		if maxQueue < 0 {
			maxQueue = 0
		}
		g.sem = make(chan struct{}, maxInFlight)
		g.capacity = int64(maxInFlight + maxQueue)
	}
	return g
}

// TryAcquire admits one query when an execution slot is free right now,
// without entering the wait queue; false sends the caller to Acquire.
// A successful TryAcquire must be paired with Release.
func (g *Gate) TryAcquire() bool {
	if g == nil {
		return true
	}
	if g.sem != nil {
		// Count only after taking the slot: a failed try must not overstate
		// pending and make a concurrent Acquire reject a queueable request.
		select {
		case g.sem <- struct{}{}:
			g.pending.Add(1)
		default:
			return false
		}
	}
	g.admitted.Add(1)
	g.inflight.Add(1)
	return true
}

// Acquire admits one query, blocking in the wait queue when all
// execution slots are busy. It fails with ErrOverloaded when the queue
// is full, or with the context's error when the caller's deadline
// expires (or is canceled) while waiting. Every successful Acquire must
// be paired with Release.
func (g *Gate) Acquire(ctx context.Context) error {
	if g.TryAcquire() {
		return nil
	}
	if g.pending.Add(1) > g.capacity {
		g.pending.Add(-1)
		g.rejected.Inc()
		return ErrOverloaded
	}
	select {
	case g.sem <- struct{}{}:
		g.admitted.Add(1)
		g.inflight.Add(1)
		return nil
	case <-ctx.Done():
		g.pending.Add(-1)
		return ctx.Err()
	}
}

// Release returns the slot taken by a successful Acquire.
func (g *Gate) Release() {
	if g == nil {
		return
	}
	g.admitted.Add(-1)
	g.inflight.Add(-1)
	if g.sem == nil {
		return
	}
	<-g.sem
	g.pending.Add(-1)
}

// Pending reports how many callers currently consume capacity: the
// admitted queries plus the ones waiting in the queue.
func (g *Gate) Pending() int64 {
	if g == nil {
		return 0
	}
	return g.pending.Load()
}

// InFlight reports how many queries are admitted right now.
func (g *Gate) InFlight() int64 {
	if g == nil {
		return 0
	}
	return g.admitted.Load()
}

package exec

import (
	"fmt"

	"graql/internal/table"
)

// tablePar bridges the engine into the table layer's parallel relational
// operators: the engine's worker budget and parallelism threshold, its
// context (mapped to the structured abort errors through the same
// contextErr the sweeps use), and its metrics — the parallel-operator
// counter on top of the sweep totals and active-worker gauge every pool
// run feeds. The table package stays engine-free; everything crosses
// through table.Par's nil-safe hooks. *fanOut receives the worker count
// of an operator that fans out and is left alone by one that stays
// serial.
func (e *Engine) tablePar(fanOut *int) table.Par {
	p := e.kernelPar()
	p.OnParallel = func(shards, workers int) func() {
		*fanOut = workers
		e.met.tableOpsParallel.Inc()
		return e.fannedOut(shards, workers)
	}
	return p
}

// kernelPar is what every typed kernel run for the current query shares of
// its pool configuration; the caller adds the hook, which ends in fannedOut.
func (e *Engine) kernelPar() table.Par {
	return table.Par{Workers: e.Opts.workers(), Threshold: e.Opts.ParallelThreshold, Poll: pollOf(e.ctx)}
}

// fannedOut notes a pool run that fans out in the query's worker
// accounting and in the sweep metrics, until the returned function runs.
func (e *Engine) fannedOut(shards, workers int) (done func()) {
	e.acct.noteWorkers(workers)
	return e.met.sweep(shards, workers)
}

// parDetail annotates an operator span's detail with the fan-out the
// operator ran at (0 = it stayed serial), so EXPLAIN ANALYZE and request
// traces show which steps fanned out and how wide.
func parDetail(detail string, fanOut int) string {
	if fanOut <= 1 {
		return detail
	}
	return fmt.Sprintf("%s [parallel, %d workers]", detail, fanOut)
}

package exec

import (
	"context"

	"graql/internal/table"
)

// shardRanges splits [0, n) into k near-equal contiguous ranges for
// data-parallel sweeps over vertex id spaces.
func shardRanges(n, k int) [][2]uint32 {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if n == 0 {
		return nil
	}
	out := make([][2]uint32, 0, k)
	chunk := n / k
	rem := n % k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		out = append(out, [2]uint32{uint32(lo), uint32(hi)})
		lo = hi
	}
	return out
}

// runShards executes fn over each shard index on the one shard pool
// (table.Par.Run) with up to `workers` goroutines and returns the first
// error. A non-nil ctx is polled at every shard boundary, so a canceled
// sweep stops scheduling work and returns the structured abort error
// promptly (shards also poll internally via wstate.poll for long
// per-shard loops). met (nil-safe) accumulates sweep/shard counts and
// tracks worker utilisation through the graql_parallel_active_workers
// gauge.
func runShards(ctx context.Context, met *engineMetrics, shards, workers int, fn func(shard int) error) error {
	return table.Par{Workers: workers, Poll: pollOf(ctx), OnParallel: met.sweep}.Run(shards, fn)
}

// pollOf is the pool's cancellation hook for ctx: nil when there is no
// context to poll.
func pollOf(ctx context.Context) func() error {
	if ctx == nil {
		return nil
	}
	return func() error { return contextErr(ctx) }
}

// sweep is the pool hook: it counts one sweep of the given shard count
// and holds the active-worker gauge up by the pool's fan-out until the
// returned function runs.
func (m *engineMetrics) sweep(shards, workers int) (done func()) {
	if m == nil || m.reg == nil {
		return nil
	}
	m.shardRuns.Inc()
	m.shardTasks.Add(int64(shards))
	m.activeWorkers.Add(int64(workers))
	return func() { m.activeWorkers.Add(-int64(workers)) }
}

package exec

import "context"

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

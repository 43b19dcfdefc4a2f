package table

import (
	"sync"
	"sync/atomic"
)

// This file holds the one shard pool of the code base (Par.Run) and the
// parallel forms of the relational operators built on it: the compiled
// filter (Filter.Select) evaluates row morsels concurrently, the sort
// (Rows.OrderBy) sorts one contiguous run per worker and merges. Both
// recombine per-shard results in shard order, so output is deterministic
// and identical to the serial operator's, and both stay serial when the
// input is below the parallelism threshold, the caller grants at most
// one worker, or there is only one shard to hand out. Group-by has no
// parallel form: partial aggregation lost to the typed serial operator
// (EXPERIMENTS.md E18).

const (
	// morselSize is the number of rows of one parallel work unit. Large
	// enough that scheduling overhead amortises, small enough that a
	// morsel's working set stays cache-resident and work stays balanced.
	morselSize = 4096

	// DefaultParThreshold is the input row count below which the
	// parallel operators fall back to their serial forms when Par leaves
	// Threshold zero. It is the measured crossover at two workers
	// (EXPERIMENTS.md E18): a two-key sort breaks even at 16k and wins
	// 1.6x at 64k. The filter, whose loops got four times faster since,
	// has its own (filterParThreshold, E29).
	DefaultParThreshold = 4 * morselSize

	// parPollMask amortises cooperative cancellation polls inside
	// per-row loops, matching the engine's established tick cadence.
	parPollMask = 1023
)

// Par configures parallel execution: of the relational operators, and of
// any other sharded work handed to Run. The zero value runs everything
// serially. The table layer deliberately has no dependency on the
// engine: cancellation and observability plug in through nil-safe hooks
// that the engine wires to its context and metrics registry.
type Par struct {
	// Workers is the maximum number of concurrent workers; values <= 1
	// select the serial path.
	Workers int
	// Threshold is the minimum input row count for going parallel;
	// 0 means DefaultParThreshold (for a filter, filterParThreshold).
	Threshold int
	// Poll, when non-nil, is checked cooperatively (every parPollMask+1
	// rows and at every shard boundary); a non-nil result aborts the
	// operator with that error. The engine supplies a poll that maps a
	// done context to its structured abort errors.
	Poll func() error
	// OnParallel, when non-nil, is told the shard count and the fan-out
	// of every Run as it starts: min(Workers, shards) workers, 1 when the
	// shards run inline on the caller's goroutine. The relational
	// operators call Run only to fan out, so from them it fires exactly
	// when an operator took the parallel path. A non-nil return is called
	// when the run ends (the engine brackets its active-worker gauge).
	OnParallel func(shards, workers int) (done func())
}

// Parallel reports whether an input of the given row count takes the
// parallel path under this configuration.
func (p Par) Parallel(rows int) bool {
	th := p.Threshold
	if th <= 0 {
		th = DefaultParThreshold
	}
	return p.Workers > 1 && rows >= th
}

// poll is the amortised cooperative cancellation check for per-row
// loops; tick is worker-local.
func (p Par) poll(tick *int) error {
	if p.Poll == nil {
		return nil
	}
	*tick++
	if *tick&parPollMask != 0 {
		return nil
	}
	return p.Poll()
}

// Run executes fn over the shard indexes [0, shards) on min(Workers,
// shards) workers and returns the first error. Shards are handed out
// dynamically from a shared cursor, so uneven shards still balance. The
// poll hook is checked before every shard is handed out; once it or any
// fn has failed no further shard starts. With one worker or one shard the
// shards run in order on the calling goroutine and no goroutine starts.
func (p Par) Run(shards int, fn func(shard int) error) error {
	if shards <= 0 {
		return nil
	}
	workers := max(1, min(p.Workers, shards))
	if p.OnParallel != nil {
		if done := p.OnParallel(shards, workers); done != nil {
			defer done()
		}
	}
	if workers == 1 {
		for s := 0; s < shards; s++ {
			if p.Poll != nil {
				if err := p.Poll(); err != nil {
					return err
				}
			}
			if err := fn(s); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		once   sync.Once
		first  error
		wg     sync.WaitGroup
	)
	fail := func(err error) {
		once.Do(func() { first = err })
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				if p.Poll != nil {
					if err := p.Poll(); err != nil {
						fail(err)
						return
					}
				}
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				if err := fn(s); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// morselRanges splits [0, n) into contiguous morselSize-row ranges.
func morselRanges(n int) [][2]uint32 {
	if n == 0 {
		return nil
	}
	out := make([][2]uint32, 0, (n+morselSize-1)/morselSize)
	for lo := 0; lo < n; lo += morselSize {
		hi := lo + morselSize
		if hi > n {
			hi = n
		}
		out = append(out, [2]uint32{uint32(lo), uint32(hi)})
	}
	return out
}

// GroupByPar is GroupBy: p is ignored. Parallel partial aggregation lost to
// the serial typed group-by at two workers on every measured input except
// a million rows in a hundred groups (EXPERIMENTS.md E18), so its body is
// gone; the name stays for the callers that are pinned to it.
func GroupByPar(t *Table, name string, keyCols []int, aggs []AggSpec, _ Par) (*Table, error) {
	return GroupBy(t, name, keyCols, aggs)
}

// OrderByPar is OrderBy with shard-local stable sorts and a merge when t
// clears p's threshold (Rows.OrderBy).
func OrderByPar(t *Table, keys []SortKey, p Par) (*Table, error) {
	r, err := AllRows(t).OrderBy(keys, 0, p)
	if err != nil {
		return nil, err
	}
	return r.Materialize(t.Name, nil, nil), nil
}

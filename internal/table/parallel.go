package table

import (
	"sync"
	"sync/atomic"
)

// This file implements the morsel-driven parallel forms of the relational
// operators (filter, hash join, order-by), mirroring the multithreaded
// GEMS backend the paper targets. Each splits its input into row morsels
// or contiguous runs, fans them out over a small worker pool, and
// recombines the per-worker results so that the output is deterministic
// and identical to the serial operator's. Every form degrades to the
// serial path when the input is below the parallelism threshold or the
// caller grants at most one worker, so small inputs never pay goroutine
// or merge overhead. Group-by has no parallel form: partial aggregation
// lost to the typed serial operator (EXPERIMENTS.md E18).

const (
	// morselSize is the number of rows of one parallel work unit. Large
	// enough that scheduling overhead amortises, small enough that a
	// morsel's working set stays cache-resident and work stays balanced.
	morselSize = 4096

	// DefaultParThreshold is the input row count below which the
	// parallel operators fall back to their serial forms when Par leaves
	// Threshold zero. It is the measured crossover at two workers
	// (EXPERIMENTS.md E18): a two-conjunct typed filter loses 1.3x in
	// parallel at 4k rows and wins 1.4x at 16k; a two-key sort breaks even
	// at 16k and wins 1.6x at 64k.
	DefaultParThreshold = 4 * morselSize

	// joinParts is the number of hash partitions of the parallel join.
	// A fixed power of two keeps partition assignment — and therefore
	// output order — independent of the worker count.
	joinParts = 64

	// parPollMask amortises cooperative cancellation polls inside
	// per-row loops, matching the engine's established tick cadence.
	parPollMask = 1023
)

// Par configures the parallel execution of the relational operators. The
// zero value runs everything serially. The table layer deliberately has
// no dependency on the engine: cancellation and observability plug in
// through nil-safe hooks that the engine wires to its context and
// metrics registry.
type Par struct {
	// Workers is the maximum number of concurrent workers; values <= 1
	// select the serial path.
	Workers int
	// Threshold is the minimum input row count for going parallel;
	// 0 means DefaultParThreshold.
	Threshold int
	// Poll, when non-nil, is checked cooperatively (every parPollMask+1
	// rows and at every morsel boundary); a non-nil result aborts the
	// operator with that error. The engine supplies a poll that maps a
	// done context to its structured abort errors.
	Poll func() error
	// OnParallel, when non-nil, is notified once per operator run that
	// actually takes the parallel path, with the operator name, the
	// number of shards (morsels or partitions) and the worker count.
	OnParallel func(op string, shards, workers int)
	// WorkerUp / WorkerDown, when non-nil, bracket each worker
	// goroutine's lifetime (the engine ties them to its active-worker
	// gauge).
	WorkerUp   func()
	WorkerDown func()
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

// run executes fn over each shard index on a pool of workers and returns
// the first error. Shards are handed out dynamically so uneven shards
// still balance; fn receives the worker index so operators can keep
// worker-local state (partial aggregation maps, scratch buffers). The
// poll hook is checked at every shard boundary.
func (p Par) run(op string, shards int, fn func(worker, shard int) error) error {
	if shards == 0 {
		return nil
	}
	workers := p.Workers
	if workers > shards {
		workers = shards
	}
	if p.OnParallel != nil {
		p.OnParallel(op, shards, workers)
	}
	var (
		next  int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			if p.WorkerUp != nil {
				p.WorkerUp()
			}
			if p.WorkerDown != nil {
				defer p.WorkerDown()
			}
			for {
				if p.Poll != nil {
					if err := p.Poll(); err != nil {
						fail(err)
						return
					}
				}
				s := int(atomic.AddInt64(&next, 1)) - 1
				if s >= shards {
					return
				}
				if err := fn(worker, s); err != nil {
					fail(err)
					return
				}
			}
		}(w)
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

// FilterIdxPar is FilterIdx evaluated over row morsels in parallel:
// every worker fills a private index buffer per morsel and the buffers
// are stitched in morsel order, so the result is the exact row-id
// sequence of the serial scan.
func FilterIdxPar(t *Table, pred Pred, p Par) ([]uint32, error) {
	n := t.NumRows()
	if !p.Parallel(n) {
		return filterIdxSerial(t, pred, p)
	}
	morsels := morselRanges(n)
	bufs := make([][]uint32, len(morsels))
	err := p.run("filter", len(morsels), func(_, m int) error {
		lo, hi := morsels[m][0], morsels[m][1]
		var buf []uint32
		tick := 0
		for r := lo; r < hi; r++ {
			if err := p.poll(&tick); err != nil {
				return err
			}
			ok, err := pred(r)
			if err != nil {
				return err
			}
			if ok {
				buf = append(buf, r)
			}
		}
		bufs[m] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return nil, nil
	}
	idx := make([]uint32, 0, total)
	for _, b := range bufs {
		idx = append(idx, b...)
	}
	return idx, nil
}

// filterIdxSerial is the serial fallback of FilterIdxPar; identical to
// FilterIdx plus the cooperative poll.
func filterIdxSerial(t *Table, pred Pred, p Par) ([]uint32, error) {
	var idx []uint32
	tick := 0
	for r := uint32(0); r < uint32(t.NumRows()); r++ {
		if err := p.poll(&tick); err != nil {
			return nil, err
		}
		ok, err := pred(r)
		if err != nil {
			return nil, err
		}
		if ok {
			idx = append(idx, r)
		}
	}
	return idx, nil
}

// GroupByPar is GroupBy: p is ignored. Parallel partial aggregation lost to
// the serial typed group-by at two workers on every measured input except
// a million rows in a hundred groups (EXPERIMENTS.md E18), so its body is
// gone; the name stays for the callers that are pinned to it.
func GroupByPar(t *Table, name string, keyCols []int, aggs []AggSpec, _ Par) (*Table, error) {
	return GroupBy(t, name, keyCols, aggs)
}

// hashKey is FNV-1a over a canonical key encoding; it decides the join
// partition of a row deterministically.
func hashKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// partitionRows splits the non-NULL-key rows of t into joinParts
// partitions by key hash. The split is morsel-parallel; per-morsel
// buckets concatenate in morsel order, so each partition lists its rows
// in ascending row order exactly as a serial scan would visit them.
func partitionRows(t *Table, cols []int, p Par) ([][]uint32, error) {
	morsels := morselRanges(t.NumRows())
	buckets := make([][][]uint32, len(morsels))
	err := p.run("join-partition", len(morsels), func(_, m int) error {
		lo, hi := morsels[m][0], morsels[m][1]
		local := make([][]uint32, joinParts)
		var key []byte
		tick := 0
		for r := lo; r < hi; r++ {
			if err := p.poll(&tick); err != nil {
				return err
			}
			if anyNull(t, r, cols) {
				continue // NULL keys never join (SQL semantics)
			}
			key = t.KeyOf(key[:0], r, cols)
			part := hashKey(key) & (joinParts - 1)
			local[part] = append(local[part], r)
		}
		buckets[m] = local
		return nil
	})
	if err != nil {
		return nil, err
	}
	parts := make([][]uint32, joinParts)
	for _, local := range buckets {
		for i, rows := range local {
			parts[i] = append(parts[i], rows...)
		}
	}
	return parts, nil
}

// HashJoinIdxPar is HashJoinIdx as a partitioned parallel hash join:
// both sides are hash-partitioned on the key columns, per-partition hash
// tables build and probe concurrently, and per-partition match lists
// stitch in partition order. The smaller side still builds and NULL keys
// still never join; output is deterministic and independent of the
// worker count (partitioning is by fixed key hash), but rows appear
// grouped by partition rather than in the serial probe order.
func HashJoinIdxPar(l, r *Table, lCols, rCols []int, p Par) (lIdx, rIdx []uint32, err error) {
	if len(lCols) != len(rCols) {
		panic("graql: HashJoinIdxPar: key arity mismatch")
	}
	if !p.Parallel(l.NumRows() + r.NumRows()) {
		lIdx, rIdx = HashJoinIdx(l, r, lCols, rCols)
		return lIdx, rIdx, nil
	}
	build, probe := l, r
	bCols, pCols := lCols, rCols
	swapped := false
	if r.NumRows() < l.NumRows() {
		build, probe = r, l
		bCols, pCols = rCols, lCols
		swapped = true
	}
	bParts, err := partitionRows(build, bCols, p)
	if err != nil {
		return nil, nil, err
	}
	pParts, err := partitionRows(probe, pCols, p)
	if err != nil {
		return nil, nil, err
	}

	type partOut struct{ b, p []uint32 } // matched (build, probe) row pairs
	outs := make([]partOut, joinParts)
	err = p.run("join-probe", joinParts, func(_, part int) error {
		bRows, pRows := bParts[part], pParts[part]
		if len(bRows) == 0 || len(pRows) == 0 {
			return nil
		}
		ht := make(map[string][]uint32, len(bRows))
		var key []byte
		tick := 0
		for _, row := range bRows {
			if err := p.poll(&tick); err != nil {
				return err
			}
			key = build.KeyOf(key[:0], row, bCols)
			ht[string(key)] = append(ht[string(key)], row)
		}
		var ob, op []uint32
		for _, row := range pRows {
			if err := p.poll(&tick); err != nil {
				return err
			}
			key = probe.KeyOf(key[:0], row, pCols)
			for _, b := range ht[string(key)] {
				ob = append(ob, b)
				op = append(op, row)
			}
		}
		outs[part] = partOut{b: ob, p: op}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for _, o := range outs {
		total += len(o.b)
	}
	if total == 0 {
		return nil, nil, nil
	}
	lIdx = make([]uint32, 0, total)
	rIdx = make([]uint32, 0, total)
	for _, o := range outs {
		if swapped {
			lIdx = append(lIdx, o.p...)
			rIdx = append(rIdx, o.b...)
		} else {
			lIdx = append(lIdx, o.b...)
			rIdx = append(rIdx, o.p...)
		}
	}
	return lIdx, rIdx, nil
}

// HashJoinPar is HashJoin on the partitioned parallel join path.
func HashJoinPar(name string, l, r *Table, lCols, rCols []int, p Par) (*Table, error) {
	lIdx, rIdx, err := HashJoinIdxPar(l, r, lCols, rCols, p)
	if err != nil {
		return nil, err
	}
	return joinTable(name, l, r, lIdx, rIdx), nil
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

package main

import (
	"math"
	"sort"
	"strconv"
	"time"

	"graql/internal/exec"
	"graql/internal/server"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so that
// -compare reports the spread the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j)*4
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted and how many samples lie strictly beyond that rank. A
// percentile is only worth reporting when at least ten do.
func percentile(sorted []time.Duration, p float64) (v time.Duration, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func medianDuration(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	p50, _ := percentile(s, 50)
	return p50
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// --- result digests --------------------------------------------------------

// A digest is FNV-1a over the cells server.EncodeResult would put on the
// wire. It is computed either from the engine result (in-process
// workloads, without building the wire form) or from the decoded wire
// result (TCP workloads); both give the same value for the same answer.
// Rows of a statement without a total order are combined commutatively,
// because the engine's parallel operators do not fix their order.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnv uint64

func (h fnv) str(s string) fnv {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnv(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // cell separator
}

func (h fnv) num(n uint64) fnv {
	for i := 0; i < 8; i++ {
		h = (h ^ fnv(byte(n>>(8*i)))) * fnvPrime
	}
	return h
}

// rowsDigest folds per-row hashes: in order when the statement orders
// its output, as a sum otherwise.
type rowsDigest struct {
	ordered bool
	acc     fnv
	n       uint64
}

func (r *rowsDigest) add(row fnv) {
	r.n++
	if r.ordered {
		r.acc = (r.acc ^ row) * fnvPrime
	} else {
		r.acc += row
	}
}

func digestHeader(message string, columns []string) fnv {
	h := fnv(fnvOffset).str(message)
	for _, c := range columns {
		h = h.str(c)
	}
	return h
}

// digestWire digests one statement result as decoded from the wire.
func digestWire(sr server.StmtResult, ordered bool) uint64 {
	h := digestHeader(sr.Message, sr.Columns)
	rows := rowsDigest{ordered: ordered}
	for _, rec := range sr.Rows {
		rh := fnv(fnvOffset)
		for _, cell := range rec {
			rh = rh.str(cell)
		}
		rows.add(rh)
	}
	h = h.num(uint64(rows.acc)).num(rows.n)
	h = h.str(sr.SubgraphName).num(uint64(sr.SubgraphVertices)).num(uint64(sr.SubgraphEdges))
	return uint64(h)
}

// digestResult digests one engine result; equal to
// digestWire(server.EncodeResult(r), ordered).
func digestResult(r exec.Result, ordered bool) uint64 {
	var columns []string
	rows := rowsDigest{ordered: ordered}
	if r.Kind == exec.ResultTable {
		t := r.Table
		columns = t.Schema().Names()
		for row := uint32(0); row < uint32(t.NumRows()); row++ {
			rh := fnv(fnvOffset)
			for c := 0; c < t.NumCols(); c++ {
				if v := t.Value(row, c); v.IsNull() {
					rh = rh.str("")
				} else {
					rh = rh.str(v.String())
				}
			}
			rows.add(rh)
		}
	}
	h := digestHeader(r.Message, columns).num(uint64(rows.acc)).num(rows.n)
	if r.Kind == exec.ResultSubgraph {
		h = h.str(r.Subgraph.Name).num(uint64(r.Subgraph.NumVertices())).num(uint64(r.Subgraph.NumEdges()))
	} else {
		h = h.str("").num(0).num(0)
	}
	return uint64(h)
}

// combine folds the statement digests of one script, in order.
func combine(stmts []uint64) uint64 {
	h := fnv(fnvOffset)
	for _, d := range stmts {
		h = h.num(d)
	}
	return uint64(h)
}

func digestResults(rs []exec.Result, ordered []bool) uint64 {
	ds := make([]uint64, len(rs))
	for i, r := range rs {
		ds[i] = digestResult(r, i < len(ordered) && ordered[i])
	}
	return combine(ds)
}

func digestWireResults(rs []server.StmtResult, ordered []bool) uint64 {
	ds := make([]uint64, len(rs))
	for i, r := range rs {
		ds[i] = digestWire(r, i < len(ordered) && ordered[i])
	}
	return combine(ds)
}

func hex(d uint64) string { return strconv.FormatUint(d, 16) }

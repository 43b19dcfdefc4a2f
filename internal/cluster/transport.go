package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"graql/internal/bitmap"
	"graql/internal/graph"
)

// Transport abstracts where the graph partitions live. The in-process
// ChannelTransport runs every partition as a goroutine over the graph the
// request carries (the simulation, and the correctness oracle);
// TCPTransport fans each superstep out to real worker processes over
// sockets, each expanding over its own copy. Both run the same expansion
// kernel (expandOwned), so a traversal produces byte-identical frontier
// sets and message counts on either side of the seam.
type Transport interface {
	// Parts returns the number of partitions (workers).
	Parts() int
	// Strategy returns the vertex-placement strategy all partitions use.
	Strategy() Strategy
	// Superstep runs one BSP expansion round: every partition expands the
	// frontier vertices it owns through the step's edge index, dedups
	// locally, and returns its discovered targets bucketed by owning
	// partition. The returned slice has one entry per partition, in
	// partition order.
	Superstep(ctx context.Context, req *SuperstepReq) ([]PartResult, error)
}

// SuperstepReq describes one BSP expansion round. Everything in it but
// Graph is serializable: the distributed path ships it to workers as a
// frame.
type SuperstepReq struct {
	// Graph is the graph the step expands over: the coordinator's current
	// one, handed over by the Cluster handle. It never goes on the wire; a
	// worker fills in its own copy.
	Graph *graph.Graph
	// Edge names the edge type to expand through; Forward selects the
	// source→target index (false uses the reverse index).
	Edge    string
	Forward bool
	// Pass ("forward" | "backward") and Round identify the superstep for
	// tracing and worker logs.
	Pass  string
	Round int
	// Frontier is the current vertex set (over the step's input type);
	// each partition expands only the frontier vertices it owns.
	Frontier *bitmap.Bitmap
	// InSize and OutSize are the input and output vertex-type
	// cardinalities (partition ownership is computed against them).
	InSize, OutSize int
	// TraceID propagates the query's trace id into worker logs.
	TraceID string
}

// PartResult is one partition's contribution to a superstep.
type PartResult struct {
	// Part is the partition index that produced this result.
	Part int
	// Dst buckets the partition's discovered target vertices by owning
	// partition (index = destination partition).
	Dst [][]uint32
	// RPC observability, populated by the TCP transport only (zero for
	// the in-process transport): round-trip time, actual frame bytes on
	// the wire (request + response), retries spent, and worker address.
	RPCMicros int64
	WireBytes int64
	Retries   int
	Addr      string
}

// Sent returns the number of vertex ids this partition sent to remote
// partitions (its per-superstep exchange contribution).
func (r *PartResult) Sent() int {
	n := 0
	for d, buf := range r.Dst {
		if d != r.Part {
			n += len(buf)
		}
	}
	return n
}

// WorkerFailure identifies one worker that failed a superstep.
type WorkerFailure struct {
	Part int    `json:"part"`
	Addr string `json:"addr"`
	Err  string `json:"err"`
}

// PartialError reports that a superstep could not complete because one
// or more workers failed (timeout, crash, network). The coordinator
// cannot produce a complete result from the surviving partitions, so
// the query fails with this structured error; the server maps it to the
// wire code "partial".
type PartialError struct {
	Failures []WorkerFailure
}

func (e *PartialError) Error() string {
	parts := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		parts[i] = fmt.Sprintf("worker p%d (%s): %s", f.Part, f.Addr, f.Err)
	}
	return "cluster: partial result, " + strings.Join(parts, "; ")
}

// owner maps vertex v of a type with n instances to its partition.
func owner(strategy Strategy, parts int, v uint32, n int) int {
	if strategy == Block {
		if n == 0 {
			return 0
		}
		p := int(uint64(v) * uint64(parts) / uint64(n))
		if p >= parts {
			p = parts - 1
		}
		return p
	}
	return int(v) % parts
}

// stepEdge resolves the edge type req expands through in req.Graph and
// checks the step's input and output sizes against it, so a frame from a
// coordinator holding a different graph, or a forged one, fails before
// any of its sizes is trusted.
func stepEdge(req *SuperstepReq) (*graph.EdgeType, error) {
	et := req.Graph.EdgeType(req.Edge)
	if et == nil {
		return nil, fmt.Errorf("cluster: unknown edge type %q", req.Edge)
	}
	inWant, outWant := et.Src.Count(), et.Dst.Count()
	if !req.Forward {
		inWant, outWant = outWant, inWant
	}
	if req.InSize != inWant || req.OutSize != outWant {
		return nil, fmt.Errorf("cluster: graph divergence on edge %q: step sizes %d->%d, local graph %d->%d",
			req.Edge, req.InSize, req.OutSize, inWant, outWant)
	}
	return et, nil
}

// expandOwned is the shared per-partition expansion kernel: partition
// `part` walks the frontier vertices it owns in ascending id order,
// expands each through the index of et (stepEdge's answer for req) it
// resolves once per superstep, dedups locally, and buckets discovered
// targets by owning partition. Backward without a reverse index it makes
// one pass over the edges into the frontier vertices it owns instead, in
// edge-id order. Both transports call exactly this function, which is
// what makes the in-process simulation a correctness oracle for the
// networked path.
// A dead context drains the expansion early (the caller surfaces the
// abort after the superstep barrier).
func expandOwned(ctx context.Context, et *graph.EdgeType, part, parts int, strategy Strategy, req *SuperstepReq) [][]uint32 {
	bufs := make([][]uint32, parts)
	seen := bitmap.New(req.OutSize) // local dedup before sending
	var tick uint32
	dead := false
	alive := func() bool {
		if tick++; !dead && tick&1023 == 0 && ctx != nil && ctx.Err() != nil {
			dead = true
		}
		return !dead
	}
	owned := func(v uint32) bool { return owner(strategy, parts, v, req.InSize) == part && alive() }
	add := func(t uint32) {
		if !seen.Get(t) {
			seen.Set(t)
			d := owner(strategy, parts, t, req.OutSize)
			bufs[d] = append(bufs[d], t)
		}
	}
	if csr := et.Index(req.Forward); csr != nil {
		req.Frontier.ForEach(func(v uint32) {
			if owned(v) {
				nbr, _ := csr.Neighbors(v)
				for _, t := range nbr {
					add(t)
				}
			}
		})
		return bufs
	}
	mine := bitmap.New(req.InSize)
	req.Frontier.ForEach(func(v uint32) {
		if owned(v) {
			mine.Set(v)
		}
	})
	for _, s := range et.EdgesInto(mine) {
		if !alive() {
			break
		}
		add(s)
	}
	return bufs
}

// ChannelTransport runs every partition as a goroutine over the graph each
// superstep carries — the GEMS cluster simulation, and the oracle the
// networked transport is verified against. It holds no graph of its own,
// so an engine's simulated partitions always expand over the graph its
// query planned against, writes included.
type ChannelTransport struct {
	parts    int
	strategy Strategy
}

// Simulated returns the in-process transport an engine's cluster setting
// names: parts simulated partitions under strategy, or a nil Transport —
// no cluster — when parts < 2.
func Simulated(parts int, strategy Strategy) Transport {
	if parts < 2 {
		return nil
	}
	return &ChannelTransport{parts: parts, strategy: strategy}
}

// Parts returns the number of simulated nodes.
func (t *ChannelTransport) Parts() int { return t.parts }

// Strategy returns the placement strategy.
func (t *ChannelTransport) Strategy() Strategy { return t.strategy }

// Superstep expands the frontier on every simulated node concurrently.
func (t *ChannelTransport) Superstep(ctx context.Context, req *SuperstepReq) ([]PartResult, error) {
	et, err := stepEdge(req)
	if err != nil {
		return nil, err
	}
	results := make([]PartResult, t.parts)
	var wg sync.WaitGroup
	for p := 0; p < t.parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p] = PartResult{Part: p, Dst: expandOwned(ctx, et, p, t.parts, t.strategy, req)}
		}(p)
	}
	wg.Wait()
	return results, nil
}

// GraphFingerprint summarizes a graph's shape as a stable 64-bit hash
// over its vertex and edge types (names, cardinalities, endpoints) in
// name order. The worker handshake compares fingerprints so a
// coordinator never scatters supersteps to workers holding a different
// graph.
func GraphFingerprint(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var names []string
	for _, vt := range g.VertexTypes() {
		names = append(names, fmt.Sprintf("v:%s:%d", strings.ToLower(vt.Name), vt.Count()))
	}
	for _, et := range g.EdgeTypes() {
		names = append(names, fmt.Sprintf("e:%s:%d:%s:%s", strings.ToLower(et.Name), et.Count(),
			strings.ToLower(et.Src.Name), strings.ToLower(et.Dst.Name)))
	}
	sort.Strings(names)
	for _, s := range names {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

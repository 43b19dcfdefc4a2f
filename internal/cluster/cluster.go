// Package cluster implements the GEMS backend cluster (paper §III): the
// database graph partitioned across the aggregated memory of N compute
// nodes, with path queries executed as bulk-synchronous rounds of local
// edge-index expansion followed by frontier exchange between partitions.
//
// Partition execution sits behind the Transport interface. The
// ChannelTransport runs every partition as a goroutine over one shared
// in-memory graph — a faithful shared-nothing simulation that counts
// exchanged messages and vertex ids, the quantities that dominate
// distributed graph-query cost. The TCPTransport scatters each superstep
// to real worker processes over sockets (cmd/gems-server -worker) and
// gathers their partition results. Both transports run the identical
// expansion kernel, so the simulation doubles as the correctness oracle
// for the networked path: same frontier sets, same message counts.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"

	"graql/internal/bitmap"
	"graql/internal/graph"
	"graql/internal/obs"
)

// Strategy selects how vertex ids map to partitions — the paper singles
// out "the difficulty of partitioning graphs across nodes on a cluster";
// the two standard baselines are offered so their communication behaviour
// can be compared (experiment E6).
type Strategy uint8

// Partitioning strategies.
const (
	// Hash scatters ids round-robin (v mod p): balanced, locality-blind.
	Hash Strategy = iota
	// Block assigns contiguous id ranges per partition: preserves
	// whatever locality id assignment order carries (BSBM ids follow
	// insertion order).
	Block
)

func (s Strategy) String() string {
	if s == Block {
		return "block"
	}
	return "hash"
}

// ParseStrategy maps a placement name ("hash" | "block") to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "hash", "":
		return Hash, nil
	case "block":
		return Block, nil
	}
	return Hash, fmt.Errorf("cluster: unknown placement strategy %q (want hash or block)", name)
}

// Cluster drives BSP path traversals over one database graph through a
// Transport (simulated nodes or networked workers).
type Cluster struct {
	g         *graph.Graph
	transport Transport
	parts     int
	strategy  Strategy
	obs       *obs.Registry
	span      *obs.Span
	log       *slog.Logger
	ctx       context.Context
	traceID   string
}

// SetContext attaches a cancellation context; Traverse then aborts
// between BSP supersteps once the context is done, and in-flight
// expansion rounds drain early. nil (the default) disables the checks.
func (c *Cluster) SetContext(ctx context.Context) { c.ctx = ctx }

// ctxErr reports the attached context's error, wrapped so callers see
// where the traversal stopped. Nil-safe.
func (c *Cluster) ctxErr() error {
	if c.ctx == nil {
		return nil
	}
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("cluster: traversal aborted: %w", err)
	}
	return nil
}

// SetObs attaches an observability registry; every Traverse then also
// accumulates its exchange statistics into graql_cluster_* counters,
// including per-node sent-vertex counts (label node="p<i>").
func (c *Cluster) SetObs(reg *obs.Registry) { c.obs = reg }

// SetTraceSpan attaches a parent trace span; every Traverse then records
// one child span per BSP superstep, each with one grandchild span per
// node carrying that node's exchange counts (and, on the networked
// transport, real RPC latency and wire bytes). nil (the default)
// disables span recording.
func (c *Cluster) SetTraceSpan(sp *obs.Span) { c.span = sp }

// SetLogger attaches a structured logger; supersteps then emit debug
// lines with frontier and exchange counts. nil (the default) disables
// logging.
func (c *Cluster) SetLogger(l *slog.Logger) { c.log = l }

// SetTraceID attaches the query's trace id; the networked transport
// forwards it to workers so their logs correlate with the coordinator's.
func (c *Cluster) SetTraceID(id string) { c.traceID = id }

// New partitions the graph's vertex id spaces across `parts` simulated
// nodes with hash placement (GEMS's baseline).
func New(g *graph.Graph, parts int) (*Cluster, error) {
	return NewWithStrategy(g, parts, Hash)
}

// NewWithStrategy selects the placement strategy explicitly.
func NewWithStrategy(g *graph.Graph, parts int, strategy Strategy) (*Cluster, error) {
	t, err := NewChannelTransport(g, parts, strategy)
	if err != nil {
		return nil, err
	}
	return NewWithTransport(g, t)
}

// NewWithTransport drives traversals over g through an explicit
// transport (the seam the networked path plugs into). g is the
// coordinator's local copy of the graph: start sets and step validation
// evaluate locally, only superstep expansion runs on the transport.
func NewWithTransport(g *graph.Graph, t Transport) (*Cluster, error) {
	if t.Parts() < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 partition, got %d", t.Parts())
	}
	return &Cluster{g: g, transport: t, parts: t.Parts(), strategy: t.Strategy()}, nil
}

// Parts returns the number of cluster nodes.
func (c *Cluster) Parts() int { return c.parts }

// Strategy returns the placement strategy.
func (c *Cluster) Strategy() Strategy { return c.strategy }

// Step is one edge traversal of a distributed path query.
type Step struct {
	Edge *graph.EdgeType
	// Forward traverses source→target; otherwise the reverse index.
	Forward bool
	// FilterSet optionally restricts accepted target vertices to a
	// precomputed candidate set. A bitmap rather than a predicate
	// function: the networked transport ships it to workers as part of
	// the superstep frame.
	FilterSet *bitmap.Bitmap
}

// Wire-size model for the exchange accounting: a fixed per-message
// header plus one 32-bit id per vertex (paper §III: frontier exchange
// dominates distributed query cost). Both transports count with this
// model so their statistics are comparable; the networked transport
// additionally reports real frame bytes through graql_dist_* metrics.
const (
	msgHeaderBytes = 16
	vertexIDBytes  = 4
)

// Stats accumulates the communication behaviour of one query.
type Stats struct {
	Rounds int
	// Messages counts non-empty partition-to-partition exchanges
	// (src ≠ dst).
	Messages int
	// VerticesSent counts vertex ids crossing partition boundaries.
	VerticesSent int
	// VerticesLocal counts ids delivered within their own partition.
	VerticesLocal int
	// BytesSent models the wire traffic of the counted messages:
	// msgHeaderBytes per message plus vertexIDBytes per sent id.
	BytesSent int
	// PerPartSent counts the vertex ids each source partition sent to
	// remote partitions (index = partition).
	PerPartSent []int
}

// Traverse runs a linear path query: a start set on startType filtered by
// startFilter, then one BSP round per step (paper Eq. 5 forward pass),
// followed by a backward culling pass. It returns the culled per-step
// vertex sets (index 0 = start set) and exchange statistics. On the
// networked transport a failed worker surfaces as a *PartialError.
func (c *Cluster) Traverse(startType *graph.VertexType, startFilter func(uint32) bool, steps []Step) ([]*bitmap.Bitmap, Stats, error) {
	if err := c.validate(startType, steps); err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{PerPartSent: make([]int, c.parts)}

	sets := make([]*bitmap.Bitmap, len(steps)+1)
	sets[0] = c.localFilterSet(startType.Count(), startFilter)

	// Forward pass.
	for i, st := range steps {
		if err := c.ctxErr(); err != nil {
			return nil, stats, err
		}
		next := st.Edge.Dst
		if !st.Forward {
			next = st.Edge.Src
		}
		out, err := c.superstep("forward", i+1, sets[i], st, next.Count(), &stats)
		if err != nil {
			return nil, stats, err
		}
		sets[i+1] = out
	}

	// Backward culling pass: the reverse traversal uses the opposite
	// index of each edge type (this is precisely why GEMS builds
	// bidirectional indexes, §III-B).
	for i := len(steps) - 1; i >= 0; i-- {
		if err := c.ctxErr(); err != nil {
			return nil, stats, err
		}
		st := steps[i]
		back := Step{Edge: st.Edge, Forward: !st.Forward}
		prevType := st.Edge.Src
		if !st.Forward {
			prevType = st.Edge.Dst
		}
		reached, err := c.superstep("backward", i+1, sets[i+1], back, prevType.Count(), &stats)
		if err != nil {
			return nil, stats, err
		}
		sets[i].And(reached)
	}
	if err := c.ctxErr(); err != nil {
		return nil, stats, err
	}
	c.recordStats(&stats)
	return sets, stats, nil
}

// superstep runs one BSP exchange round through the transport and, when
// a trace span or logger is attached, records the round's frontier size
// and exchange deltas: a "superstep" child span plus one "node" span per
// cluster node with its sent-vertex count (and RPC latency/wire bytes
// when the node is a networked worker).
func (c *Cluster) superstep(pass string, round int, frontier *bitmap.Bitmap, st Step, outSize int, stats *Stats) (*bitmap.Bitmap, error) {
	sp := c.span.Child("superstep", fmt.Sprintf("%s round %d over %s", pass, round, st.Edge.Name))
	prevMsgs, prevBytes, prevSent := stats.Messages, stats.BytesSent, stats.VerticesSent
	out, results, err := c.exchangeExpand(pass, round, frontier, st, outSize, stats)
	if err != nil {
		if sp != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
		}
		return nil, err
	}
	if sp != nil {
		sp.AddRows(int64(out.Count()))
		sp.SetAttr("messages", strconv.Itoa(stats.Messages-prevMsgs))
		sp.SetAttr("vertices_sent", strconv.Itoa(stats.VerticesSent-prevSent))
		sp.SetAttr("bytes_sent", strconv.Itoa(stats.BytesSent-prevBytes))
		for _, r := range results {
			nsp := sp.Child("node", fmt.Sprintf("p%d", r.Part))
			sent := r.Sent()
			nsp.AddRows(int64(sent))
			nsp.SetAttr("vertices_sent", strconv.Itoa(sent))
			if r.Addr != "" {
				nsp.SetAttr("addr", r.Addr)
				nsp.SetAttr("rpc_us", strconv.FormatInt(r.RPCMicros, 10))
				nsp.SetAttr("wire_bytes", strconv.FormatInt(r.WireBytes, 10))
				if r.Retries > 0 {
					nsp.SetAttr("retries", strconv.Itoa(r.Retries))
				}
			}
			nsp.End()
		}
		sp.End()
	}
	if c.log != nil {
		c.log.Debug("cluster superstep",
			"pass", pass, "round", round, "edge", st.Edge.Name,
			"frontier", out.Count(),
			"messages", stats.Messages-prevMsgs,
			"vertices_sent", stats.VerticesSent-prevSent,
			"bytes_sent", stats.BytesSent-prevBytes)
	}
	return out, nil
}

// recordStats folds one traversal's exchange statistics into the
// attached registry.
func (c *Cluster) recordStats(st *Stats) {
	if c.obs == nil {
		return
	}
	c.obs.Counter("graql_cluster_traversals_total", "distributed traversals executed").Inc()
	c.obs.Counter("graql_cluster_rounds_total", "BSP exchange rounds executed").Add(int64(st.Rounds))
	c.obs.Counter("graql_cluster_messages_total", "non-empty partition-to-partition exchanges").Add(int64(st.Messages))
	c.obs.Counter("graql_cluster_vertices_sent_total", "vertex ids sent across partition boundaries").Add(int64(st.VerticesSent))
	c.obs.Counter("graql_cluster_vertices_local_total", "vertex ids delivered within their own partition").Add(int64(st.VerticesLocal))
	c.obs.Counter("graql_cluster_bytes_sent_total", "modelled wire bytes of cross-partition messages").Add(int64(st.BytesSent))
	for p, n := range st.PerPartSent {
		c.obs.CounterL("graql_cluster_node_vertices_sent_total",
			"vertex ids sent to remote partitions, by source node",
			map[string]string{"node": fmt.Sprintf("p%d", p)}).Add(int64(n))
	}
}

func (c *Cluster) validate(startType *graph.VertexType, steps []Step) error {
	cur := startType
	for i, st := range steps {
		if st.Edge == nil {
			return fmt.Errorf("cluster: step %d has no edge type", i)
		}
		want := st.Edge.Src
		if !st.Forward {
			want = st.Edge.Dst
		}
		if want != cur {
			return fmt.Errorf("cluster: step %d expects %s, path is at %s", i, want.Name, cur.Name)
		}
		if st.Forward {
			cur = st.Edge.Dst
		} else {
			cur = st.Edge.Src
		}
	}
	return nil
}

// localFilterSet builds the start set in one pass over the id space. The
// start predicate is a coordinator-local function (it closes over the
// candidate machinery), so this phase always runs in-process and is not
// part of Stats; only superstep expansion crosses the transport.
func (c *Cluster) localFilterSet(n int, filter func(uint32) bool) *bitmap.Bitmap {
	if filter == nil {
		return bitmap.NewFull(n)
	}
	out := bitmap.New(n)
	for v := uint32(0); v < uint32(n); v++ {
		if v&1023 == 0 && c.ctx != nil && c.ctx.Err() != nil {
			break
		}
		if filter(v) {
			out.Set(v)
		}
	}
	return out
}

// exchangeExpand runs one BSP round through the transport: every
// partition expands its owned frontier vertices through the edge index
// and returns discovered targets bucketed by owner; the coordinator
// merges the buckets and counts messages. Accounting is independent of
// the transport — src≠dst buckets count as exchange traffic whether they
// crossed a channel or a socket — which is what makes the simulated and
// networked statistics directly comparable.
func (c *Cluster) exchangeExpand(pass string, round int, frontier *bitmap.Bitmap, st Step, outSize int, stats *Stats) (*bitmap.Bitmap, []PartResult, error) {
	stats.Rounds++
	req := &SuperstepReq{
		Edge:     st.Edge.Name,
		Forward:  st.Forward,
		Pass:     pass,
		Round:    round,
		Frontier: frontier,
		Filter:   st.FilterSet,
		InSize:   frontier.Len(),
		OutSize:  outSize,
		TraceID:  c.traceID,
	}
	ctx := c.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	results, err := c.transport.Superstep(ctx, req)
	if err != nil {
		return nil, nil, err
	}

	// Delivery: each destination merges everything addressed to it;
	// traffic is counted once per non-empty (src,dst) bucket.
	out := bitmap.New(outSize)
	for _, r := range results {
		for dst, buf := range r.Dst {
			if len(buf) == 0 {
				continue
			}
			if r.Part != dst {
				stats.Messages++
				stats.VerticesSent += len(buf)
				stats.BytesSent += msgHeaderBytes + len(buf)*vertexIDBytes
				if stats.PerPartSent != nil {
					stats.PerPartSent[r.Part] += len(buf)
				}
			} else {
				stats.VerticesLocal += len(buf)
			}
			for _, t := range buf {
				out.Set(t)
			}
		}
	}
	return out, results, nil
}

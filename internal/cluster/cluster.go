// Package cluster implements the GEMS backend cluster (paper §III): the
// database graph partitioned across the aggregated memory of N compute
// nodes, with path queries executed as bulk-synchronous rounds of local
// edge-index expansion followed by frontier exchange between partitions.
//
// Partition execution sits behind the Transport interface. The
// ChannelTransport runs every partition as a goroutine over the
// coordinator's graph — a faithful shared-nothing simulation that counts
// exchanged messages and vertex ids, the quantities that dominate
// distributed graph-query cost. The TCPTransport scatters each superstep
// to real worker processes over sockets (cmd/gems-server -worker) and
// gathers their partition results, in length-prefixed binary frames that
// carry frontiers and answers as raw little-endian words (wire.go). Both transports run the identical
// expansion kernel, so the simulation doubles as the correctness oracle
// for the networked path: same frontier sets, same message counts.
//
// A query runs on the cluster one expansion at a time: the engine's
// reducer (exec's matcher.reduce, the one implementation of the Eq. 5
// passes) calls Cluster.Expand for every expansion it routes here and
// decides step conditions itself, on the coordinator, over the frontier
// the partitions gathered. Traverse, a linear path run as a loop of
// Expand calls, remains only because the repository benchmark drives the
// two transports through it directly; the engine never calls it.
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
	stats     Stats
}

// SetContext attaches a cancellation context; Expand then fails once the
// context is done, and in-flight expansion rounds drain early. nil (the
// default) disables the checks.
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

// SetObs attaches an observability registry, into whose graql_cluster_*
// counters RecordStats folds the exchange statistics, including per-node
// sent-vertex counts (label node="p<i>").
func (c *Cluster) SetObs(reg *obs.Registry) { c.obs = reg }

// SetTraceSpan attaches a parent trace span; every Expand then records
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

// NewWithStrategy partitions g's vertex id spaces across `parts`
// simulated nodes under strategy (hash placement is GEMS's baseline).
func NewWithStrategy(g *graph.Graph, parts int, strategy Strategy) (*Cluster, error) {
	return NewWithTransport(g, &ChannelTransport{parts: parts, strategy: strategy})
}

// NewWithTransport drives traversals over g, the coordinator's copy of
// the graph whose types the steps name, through t: start sets and step
// validation evaluate locally, and every superstep hands g to the
// transport, which the simulated partitions expand over and the
// networked ones leave for their own copies.
func NewWithTransport(g *graph.Graph, t Transport) (*Cluster, error) {
	if t.Parts() < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 partition, got %d", t.Parts())
	}
	return &Cluster{g: g, transport: t, parts: t.Parts(), strategy: t.Strategy(),
		stats: Stats{PerPartSent: make([]int, t.Parts())}}, nil
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

// Stats returns the exchange statistics the handle's supersteps have
// accumulated.
func (c *Cluster) Stats() Stats { return c.stats }

// Traverse runs a linear path query as a loop of Expand calls: a start
// set on startType filtered by startFilter, one superstep per step
// (paper Eq. 5 forward pass), then one per step back (the backward
// culling pass). It returns the culled per-step vertex sets (index 0 =
// start set) and the traversal's exchange statistics. exec never calls
// it — its reducer calls Expand — and the repository benchmark drives
// the transports through it.
func (c *Cluster) Traverse(startType *graph.VertexType, startFilter func(uint32) bool, steps []Step) ([]*bitmap.Bitmap, Stats, error) {
	if err := c.validate(startType, steps); err != nil {
		return nil, Stats{}, err
	}
	c.stats = Stats{PerPartSent: make([]int, c.parts)}
	sets := make([]*bitmap.Bitmap, len(steps)+1)
	// The start predicate is a coordinator-local function, so the start
	// set is built in-process and is not part of Stats.
	sets[0] = bitmap.NewFull(startType.Count())
	if startFilter != nil {
		sets[0] = bitmap.New(startType.Count())
		for v := range uint32(startType.Count()) {
			if startFilter(v) {
				sets[0].Set(v)
			}
		}
	}
	for i, st := range steps {
		out, err := c.Expand("forward", st, sets[i])
		if err != nil {
			return nil, c.stats, err
		}
		sets[i+1] = out
	}
	// The reverse traversal uses the opposite index of each edge type
	// (this is precisely why GEMS builds bidirectional indexes, §III-B).
	for i := len(steps) - 1; i >= 0; i-- {
		reached, err := c.Expand("backward", Step{Edge: steps[i].Edge, Forward: !steps[i].Forward}, sets[i+1])
		if err != nil {
			return nil, c.stats, err
		}
		sets[i].And(reached)
	}
	c.RecordStats()
	return sets, c.stats, nil
}

// Expand runs one BSP superstep: every partition expands the frontier
// vertices it owns across st, and the targets come back gathered into one
// set over st's landing type. The round's exchange counts accumulate on
// the handle (Stats); an attached span gets a "superstep" child with one
// "node" child per partition (plus RPC latency and wire bytes for a
// networked worker), an attached logger one debug line. pass labels the
// round. A failed worker surfaces as a *PartialError; a done context
// fails the call, also after a round it cut short.
func (c *Cluster) Expand(pass string, st Step, frontier *bitmap.Bitmap) (*bitmap.Bitmap, error) {
	if err := c.ctxErr(); err != nil {
		return nil, err
	}
	stats := &c.stats
	var sp *obs.Span
	if c.span != nil {
		sp = c.span.Child("superstep", fmt.Sprintf("%s round %d over %s", pass, stats.Rounds+1, st.Edge.Name))
	}
	prevMsgs, prevBytes, prevSent := stats.Messages, stats.BytesSent, stats.VerticesSent
	out, results, err := c.exchangeExpand(pass, frontier, st)
	if err == nil {
		err = c.ctxErr()
	}
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
			"pass", pass, "round", stats.Rounds, "edge", st.Edge.Name,
			"frontier", out.Count(),
			"messages", stats.Messages-prevMsgs,
			"vertices_sent", stats.VerticesSent-prevSent,
			"bytes_sent", stats.BytesSent-prevBytes)
	}
	return out, nil
}

// RecordStats folds the handle's exchange statistics into the attached
// registry, counting them as one distributed traversal.
func (c *Cluster) RecordStats() {
	if c.obs == nil {
		return
	}
	st := &c.stats
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
		from, to := st.Edge.Src, st.Edge.Dst
		if !st.Forward {
			from, to = to, from
		}
		if from != cur {
			return fmt.Errorf("cluster: step %d expects %s, path is at %s", i, from.Name, cur.Name)
		}
		cur = to
	}
	return nil
}

// exchangeExpand runs one BSP round through the transport: every
// partition expands its owned frontier vertices through the edge index
// and returns discovered targets bucketed by owner; the coordinator
// merges the buckets and counts messages. Accounting is independent of
// the transport — src≠dst buckets count as exchange traffic whether they
// crossed a channel or a socket — which is what makes the simulated and
// networked statistics directly comparable. An answer naming more
// partitions than the cluster has, or a vertex outside st's landing type,
// is that partition's failure (*PartialError).
func (c *Cluster) exchangeExpand(pass string, frontier *bitmap.Bitmap, st Step) (*bitmap.Bitmap, []PartResult, error) {
	stats := &c.stats
	stats.Rounds++
	outSize := st.Edge.Dst.Count()
	if !st.Forward {
		outSize = st.Edge.Src.Count()
	}
	req := &SuperstepReq{
		Graph:    c.g,
		Edge:     st.Edge.Name,
		Forward:  st.Forward,
		Pass:     pass,
		Round:    stats.Rounds,
		Frontier: frontier,
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
		if len(r.Dst) > c.parts {
			return nil, nil, badAnswer(r, fmt.Sprintf("answered for %d partitions, cluster has %d", len(r.Dst), c.parts))
		}
		for dst, buf := range r.Dst {
			if len(buf) == 0 {
				continue
			}
			if r.Part != dst {
				stats.Messages++
				stats.VerticesSent += len(buf)
				stats.BytesSent += msgHeaderBytes + len(buf)*vertexIDBytes
				stats.PerPartSent[r.Part] += len(buf)
			} else {
				stats.VerticesLocal += len(buf)
			}
			for _, t := range buf {
				if int(t) >= outSize {
					return nil, nil, badAnswer(r, fmt.Sprintf("vertex %d out of range for %s (%d vertices)", t, req.Edge, outSize))
				}
				out.Set(t)
			}
		}
	}
	return out, results, nil
}

// badAnswer reports a partition whose superstep answer the coordinator
// cannot merge.
func badAnswer(r PartResult, msg string) error {
	return &PartialError{Failures: []WorkerFailure{{Part: r.Part, Addr: r.Addr, Err: msg}}}
}

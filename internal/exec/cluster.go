package exec

import (
	"errors"
	"fmt"
	"strconv"

	"graql/internal/bitmap"
	"graql/internal/cluster"
)

// This file routes eligible linear-chain subgraph queries through the
// GEMS backend cluster (internal/cluster): one BSP superstep per chain
// edge across the configured partitions, with frontier-exchange
// statistics and — under tracing — one "cluster" span whose children are
// the supersteps and per-node exchange spans. With Options.ClusterParts
// the partitions are simulated in-process; with Options.Dist they are
// real worker processes reached over sockets. The produced per-node sets
// are identical to the local reducer's either way: Traverse applies each
// restricted node's set (restrict over its whole type) as its per-step
// filter during forward expansion — an unrestricted node ships no filter
// — and the backward pass culls vertices with no complete path, exactly
// the Eq. 5 semantics.

// ErrPartial reports that a distributed query could not complete because
// one or more cluster workers failed (crash, timeout, network). It wraps
// the *cluster.PartialError carrying the per-worker detail; the server
// maps it to the wire code "partial".
var ErrPartial = errors.New("graql: partial result: cluster worker failure")

// clusterChainEligible reports whether this chain can run on the
// cluster: the engine must be configured for it (simulated partitions or
// a distributed transport), every chain edge must be a concrete edge
// type (regex steps expand through the product BFS, which is not
// distributed), and no edge may carry a self condition (the exchange
// ships vertex ids only, so edge predicates cannot be evaluated during
// expansion).
func (m *matcher) clusterChainEligible(chain []int) bool {
	if m.e.Opts.Dist == nil && m.e.Opts.ClusterParts < 2 {
		return false
	}
	for k := 0; k+1 < len(chain); k++ {
		pe := chainEdge(m.pat, chain[k], chain[k+1])
		if pe.Regex != nil || m.edgeSelf[pe.ID] != nil {
			return false
		}
	}
	return true
}

// cullChainSetsCluster is cullChainSets on the cluster.
func (m *matcher) cullChainSetsCluster(chain []int) ([]*bitmap.Bitmap, error) {
	// The sets of the restricted chain nodes become the start filter and
	// the supersteps' filter sets (on the distributed path they ship to
	// the workers inside the step frames); nil restricts nothing.
	filters := make([]*bitmap.Bitmap, len(chain))
	for k, id := range chain {
		var err error
		if filters[k], err = m.restrict(id, nil); err != nil {
			return nil, err
		}
	}
	var startFilter func(uint32) bool
	if filters[0] != nil {
		startFilter = filters[0].Get
	}

	var cl *cluster.Cluster
	var err error
	if t := m.e.Opts.Dist; t != nil {
		cl, err = cluster.NewWithTransport(m.g, t)
	} else {
		strategy := cluster.Hash
		if m.e.Opts.ClusterBlock {
			strategy = cluster.Block
		}
		cl, err = cluster.NewWithStrategy(m.g, m.e.Opts.ClusterParts, strategy)
	}
	if err != nil {
		return nil, err
	}
	cl.SetObs(m.e.Opts.Obs)
	cl.SetLogger(m.e.Opts.Log)
	cl.SetContext(m.e.ctx)
	if m.e.tracing() {
		cl.SetTraceID(m.e.traceID().String())
	}

	steps := make([]cluster.Step, 0, len(chain)-1)
	for k := 0; k+1 < len(chain); k++ {
		a := chain[k]
		pe := chainEdge(m.pat, a, chain[k+1])
		steps = append(steps, cluster.Step{
			Edge:      m.edgeType[pe.ID],
			Forward:   pe.Src == a,
			FilterSet: filters[k+1],
		})
	}

	mode := "simulated"
	if m.e.Opts.Dist != nil {
		mode = "networked"
	}
	sp := m.e.opSpan("cluster", fmt.Sprintf("BSP traverse over %d %s partitions (%s placement), %d step(s)",
		cl.Parts(), mode, cl.Strategy(), len(steps)))
	cl.SetTraceSpan(sp)
	sets, stats, err := cl.Traverse(m.nodeType[chain[0]], startFilter, steps)
	if err != nil {
		// Map context aborts to the engine's structured sentinels so the
		// cluster path reports the same error codes as the local sweeps;
		// worker failures map to the partial-result sentinel.
		if cerr := m.e.canceled(); cerr != nil {
			err = cerr
		} else if perr := (*cluster.PartialError)(nil); errors.As(err, &perr) {
			// Double-wrap so callers can match the sentinel with
			// errors.Is AND recover the per-worker detail with errors.As.
			err = fmt.Errorf("%w: %w", ErrPartial, perr)
		}
		sp.End()
		return nil, err
	}
	sp.SetAttr("rounds", strconv.Itoa(stats.Rounds))
	sp.SetAttr("messages", strconv.Itoa(stats.Messages))
	sp.SetAttr("vertices_sent", strconv.Itoa(stats.VerticesSent))
	sp.SetAttr("bytes_sent", strconv.Itoa(stats.BytesSent))
	sp.AddRows(int64(sets[len(sets)-1].Count()))
	sp.End()

	final := make([]*bitmap.Bitmap, len(m.pat.Nodes))
	for k, id := range chain {
		final[id] = sets[k]
	}
	return final, nil
}

package exec

import (
	"errors"
	"fmt"
	"strconv"

	"graql/internal/bitmap"
	"graql/internal/cluster"
	"graql/internal/sema"
)

// This file runs the reducer's expansions on the GEMS backend cluster
// (internal/cluster) behind Options.Dist — partitions simulated
// in-process or worker processes over sockets — one BSP superstep per
// expansion onCluster routes there, whatever the pattern's shape. Step
// conditions (restrict), regex steps, edge conditions and binding
// enumeration stay on the coordinator. Under tracing the supersteps hang
// off one "cluster" span per reduction.

// ErrPartial reports that a distributed query could not complete because
// one or more cluster workers failed (crash, timeout, network). It wraps
// the *cluster.PartialError carrying the per-worker detail; the server
// maps it to the wire code "partial".
var ErrPartial = errors.New("graql: partial result: cluster worker failure")

// onCluster reports whether expanding across pe is a cluster superstep:
// the engine must have a cluster transport, pe a concrete edge type
// (regex steps expand through the product BFS, which is not distributed)
// and no self condition (the exchange ships vertex ids only, so an edge
// predicate cannot be evaluated during expansion).
func (m *matcher) onCluster(pe *sema.PEdge) bool {
	return m.e.Opts.Dist != nil && pe.Regex == nil && m.edgeSelf[pe.ID] == nil
}

// expandOnCluster is expandFiltered as one superstep of the cluster,
// whose handle the matcher builds on its first one. pass labels the
// superstep's span and worker log lines.
func (m *matcher) expandOnCluster(pe *sema.PEdge, forward bool, fromSet *bitmap.Bitmap, pass string) (*bitmap.Bitmap, error) {
	if m.cl == nil {
		if err := m.openCluster(); err != nil {
			return nil, err
		}
	}
	out, err := m.cl.Expand(pass, cluster.Step{Edge: m.edgeType[pe.ID], Forward: forward}, fromSet)
	if err != nil {
		// Context aborts map to the engine's structured sentinels, so the
		// cluster reports the same error codes as the local sweeps; worker
		// failures map to the partial-result sentinel, double-wrapped so
		// callers can match it with errors.Is AND recover the per-worker
		// detail with errors.As.
		if cerr := m.e.canceled(); cerr != nil {
			return nil, cerr
		}
		if perr := (*cluster.PartialError)(nil); errors.As(err, &perr) {
			return nil, fmt.Errorf("%w: %w", ErrPartial, perr)
		}
		return nil, err
	}
	return out, nil
}

// openCluster builds the cluster handle over the engine's transport and
// the graph the query planned against, and, under tracing, opens the
// "cluster" span the supersteps hang off.
func (m *matcher) openCluster() error {
	cl, err := cluster.NewWithTransport(m.g, m.e.Opts.Dist)
	if err != nil {
		return err
	}
	cl.SetObs(m.e.Opts.Obs)
	cl.SetLogger(m.e.Opts.Log)
	cl.SetContext(m.e.ctx)
	if m.e.tracing() {
		mode := "networked"
		if _, sim := m.e.Opts.Dist.(*cluster.ChannelTransport); sim {
			mode = "simulated"
		}
		cl.SetTraceID(m.e.traceID().String())
		m.clSpan = m.e.opSpan("cluster", fmt.Sprintf("BSP supersteps over %d %s partitions (%s placement)",
			cl.Parts(), mode, cl.Strategy()))
		cl.SetTraceSpan(m.clSpan)
	}
	m.cl = cl
	return nil
}

// closeCluster ends the cluster span with the reduction's exchange
// statistics and folds them into the registry; without a superstep it
// does nothing.
func (m *matcher) closeCluster() {
	if m.cl == nil {
		return
	}
	if sp := m.clSpan; sp != nil {
		st := m.cl.Stats()
		sp.SetAttr("rounds", strconv.Itoa(st.Rounds))
		sp.SetAttr("messages", strconv.Itoa(st.Messages))
		sp.SetAttr("vertices_sent", strconv.Itoa(st.VerticesSent))
		sp.SetAttr("bytes_sent", strconv.Itoa(st.BytesSent))
		sp.End()
	}
	m.cl.RecordStats()
	m.cl, m.clSpan = nil, nil
}

// Package catalog implements the GEMS metadata repository (paper §III):
// the central registry of all database objects — tables, vertex and edge
// types, named subgraph results — together with the size and degree
// statistics the dynamic query planner consumes (§III-B).
//
// The catalog also retains the declaration AST of every vertex and edge
// type so that views can be rebuilt when their underlying tables are
// re-ingested (ingest "triggers not only the population of rows in the
// table, but also the generation of associated vertex and edge instances",
// §II-A2).
//
// The catalog's state is one immutable version behind an atomic pointer.
// A writer holds the writer mutex (BeginWrite), builds its Change aside
// against the live catalog, and Publish swaps in the next version with
// one epoch bump (DESIGN.md §10). Readers take no lock: a version Pin
// returns answers every read as of its pinning, never part of a change.
package catalog

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"graql/internal/ast"
	"graql/internal/graph"
	"graql/internal/table"
)

// Catalog is the metadata repository: the live catalog New returns, which
// answers each read from its current version, or a version Pin returns.
// It is safe for concurrent use, and every mutation is one Publish, which
// is what makes data definition and ingest atomic with respect to queries
// (paper §III).
type Catalog struct {
	// wmu serialises writers against each other (and against checkpoints).
	// cur is the current version; both are unused on a version (cur nil).
	wmu sync.Mutex
	cur atomic.Pointer[Catalog]
	state
}

// state is a version's content, never changed once published. slot maps
// a lower-cased table name to its index in tables (registration order).
type state struct {
	epoch       uint64
	slot        map[string]int
	tables      []*table.Table
	graph       *graph.Graph
	vertexDecls []*ast.CreateVertex
	edgeDecls   []*ast.CreateEdge
	subgraphs   []*graph.Subgraph
}

// New returns an empty catalog.
func New() *Catalog {
	c := &Catalog{}
	c.cur.Store(&Catalog{state: state{slot: make(map[string]int), graph: graph.NewGraph()}})
	return c
}

// Pin returns the current version, whose reads no later publish changes.
// Pinning a version returns it; neither allocates.
func (c *Catalog) Pin() *Catalog {
	if v := c.cur.Load(); v != nil {
		return v
	}
	return c
}

// RLock does nothing: readers pin a version and take no lock. It is kept,
// with RUnlock, for the benchmark harness, which still calls both.
func (c *Catalog) RLock() {}

// RUnlock does nothing; see RLock.
func (c *Catalog) RUnlock() {}

// BeginWrite takes the writer mutex of the live catalog.
func (c *Catalog) BeginWrite() { c.wmu.Lock() }

// EndWrite releases the writer mutex.
func (c *Catalog) EndWrite() { c.wmu.Unlock() }

// Epoch returns the number of changes published up to the version read.
func (c *Catalog) Epoch() uint64 { return c.Pin().epoch }

// Change is one write, built aside by a writer that holds the writer
// mutex. Published objects are immutable; a change brings new ones.
type Change struct {
	// Table is installed under its name, replacing any table of that name.
	Table *table.Table
	// Graph, when non-nil, replaces the view graph: a new type (DDL), or
	// the views that read Table re-derived (ingest, DML; nil when no view
	// reads it).
	Graph *graph.Graph
	// Vertex and Edge record the declaration of the type the change adds
	// to Graph.
	Vertex *ast.CreateVertex
	Edge   *ast.CreateEdge
	// Subgraph is registered under its name, replacing any of that name;
	// like every subgraph, it is kept only if the graph holds its types.
	Subgraph *graph.Subgraph
}

// Publish swaps in the next version, counted as one epoch: the current
// one with the change applied to copies of what it touches. The caller
// holds the writer mutex and validated the change against the catalog it
// read, so nothing here can fail.
func (c *Catalog) Publish(ch Change) {
	old := c.cur.Load()
	next := old.state
	next.epoch++
	if t := ch.Table; t != nil {
		key := strings.ToLower(t.Name)
		next.tables = slices.Clone(old.tables)
		if i, ok := old.slot[key]; ok {
			next.tables[i] = t
		} else {
			next.slot = maps.Clone(old.slot)
			next.slot[key] = len(next.tables)
			next.tables = append(next.tables, t)
		}
	}
	if ch.Graph != nil {
		next.graph = ch.Graph
	}
	if ch.Vertex != nil {
		next.vertexDecls = append(slices.Clip(old.vertexDecls), ch.Vertex)
	}
	if ch.Edge != nil {
		next.edgeDecls = append(slices.Clip(old.edgeDecls), ch.Edge)
	}
	if sub := ch.Subgraph; sub != nil || ch.Graph != nil && len(old.subgraphs) > 0 {
		// A subgraph stays while the graph holds its types; an incoming one
		// displaces the older of its name either way.
		next.subgraphs = slices.DeleteFunc(append(slices.Clip(old.subgraphs), sub), func(sg *graph.Subgraph) bool {
			return sg == nil || !next.graph.Valid(sg) || sub != nil && sg != sub && strings.EqualFold(sg.Name, sub.Name)
		})
	}
	c.cur.Store(&Catalog{state: next})
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *table.Table {
	v := c.Pin()
	if i, ok := v.slot[strings.ToLower(name)]; ok {
		return v.tables[i]
	}
	return nil
}

// Tables returns all tables in registration order.
func (c *Catalog) Tables() []*table.Table { return slices.Clone(c.Pin().tables) }

// Graph returns the typed multigraph of all vertex/edge views.
func (c *Catalog) Graph() *graph.Graph { return c.Pin().graph }

// VertexDecls returns the recorded vertex declarations in order.
func (c *Catalog) VertexDecls() []*ast.CreateVertex { return c.Pin().vertexDecls }

// EdgeDecls returns the recorded edge declarations in order.
func (c *Catalog) EdgeDecls() []*ast.CreateEdge { return c.Pin().edgeDecls }

// Subgraph returns the named subgraph result, or nil.
func (c *Catalog) Subgraph(name string) *graph.Subgraph {
	for _, sg := range c.Pin().subgraphs {
		if strings.EqualFold(sg.Name, name) {
			return sg
		}
	}
	return nil
}

// ObjectStats is a catalog entry in a statistics snapshot.
type ObjectStats struct {
	Kind  string // "table", "vertex" or "edge"
	Name  string
	Count int
	// Edge-only statistics for the planner (§III-B degree
	// distributions).
	AvgOutDegree float64
	AvgInDegree  float64
	MaxOutDegree int
	MaxInDegree  int
	SrcType      string
	DstType      string
}

// Stats returns a snapshot of object sizes and degree statistics — the
// catalog's "updated information on the sizes of those objects" (§III)
// that dynamic query planning consumes, read from one version.
func (c *Catalog) Stats() []ObjectStats {
	v := c.Pin()
	var out []ObjectStats
	for _, t := range v.tables {
		out = append(out, ObjectStats{Kind: "table", Name: t.Name, Count: t.NumRows()})
	}
	for _, vt := range v.graph.VertexTypes() {
		out = append(out, ObjectStats{Kind: "vertex", Name: vt.Name, Count: vt.Count()})
	}
	for _, et := range v.graph.EdgeTypes() {
		outDeg, inDeg := et.OutDegreeStats(), et.InDegreeStats()
		out = append(out, ObjectStats{
			Kind: "edge", Name: et.Name, Count: et.Count(),
			AvgOutDegree: outDeg.Avg, AvgInDegree: inDeg.Avg,
			MaxOutDegree: outDeg.Max, MaxInDegree: inDeg.Max,
			SrcType: et.Src.Name, DstType: et.Dst.Name,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

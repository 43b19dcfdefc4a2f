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
// Writes change the catalog in one way only: a writer holds the writer
// mutex (BeginWrite), builds its Change aside against what it reads here,
// and Publish installs the whole change under the write lock with one
// epoch bump (DESIGN.md §10). Readers hold the read lock and therefore see
// the catalog either before or after a change, never part of one. A write
// replaces only the views that read the table it writes.
package catalog

import (
	"maps"
	"sort"
	"strings"
	"sync"

	"graql/internal/ast"
	"graql/internal/graph"
	"graql/internal/table"
)

// Catalog is the metadata repository. It is safe for concurrent use:
// queries read under RLock, and every mutation is one Publish, which is
// what makes data definition and ingest atomic with respect to queries
// (paper §III).
type Catalog struct {
	mu sync.RWMutex

	// wmu serialises writers against each other (and against checkpoints)
	// without blocking readers. Every mutation of the fields below happens
	// under it, so its holder may read them without mu. Lock order is
	// always wmu before mu.
	wmu sync.Mutex

	// epoch counts published changes. Readers that capture it under RLock
	// can detect whether any write was published in between.
	epoch uint64

	tables      map[string]*table.Table
	tableOrder  []string
	graph       *graph.Graph
	vertexDecls []*ast.CreateVertex
	edgeDecls   []*ast.CreateEdge
	subgraphs   map[string]*graph.Subgraph
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:    make(map[string]*table.Table),
		graph:     graph.NewGraph(),
		subgraphs: make(map[string]*graph.Subgraph),
	}
}

// RLock acquires the read lock for query execution.
func (c *Catalog) RLock() { c.mu.RLock() }

// RUnlock releases the read lock.
func (c *Catalog) RUnlock() { c.mu.RUnlock() }

// BeginWrite takes the writer mutex. It must be acquired before any mu
// lock (never while holding one).
func (c *Catalog) BeginWrite() { c.wmu.Lock() }

// EndWrite releases the writer mutex.
func (c *Catalog) EndWrite() { c.wmu.Unlock() }

// Epoch returns the number of published changes. Callers must hold at
// least the read lock.
func (c *Catalog) Epoch() uint64 { return c.epoch }

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

// Publish installs a change under the write lock and counts it as one
// epoch. The caller holds the writer mutex and validated the change
// against the catalog it read, so nothing here can fail.
func (c *Catalog) Publish(ch Change) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := ch.Table; t != nil {
		key := strings.ToLower(t.Name)
		if _, ok := c.tables[key]; !ok {
			c.tableOrder = append(c.tableOrder, key)
		}
		c.tables[key] = t
	}
	if ch.Graph != nil {
		c.graph = ch.Graph
	}
	if ch.Vertex != nil {
		c.vertexDecls = append(c.vertexDecls, ch.Vertex)
	}
	if ch.Edge != nil {
		c.edgeDecls = append(c.edgeDecls, ch.Edge)
	}
	if ch.Subgraph != nil {
		c.subgraphs[strings.ToLower(ch.Subgraph.Name)] = ch.Subgraph
	}
	maps.DeleteFunc(c.subgraphs, func(_ string, sg *graph.Subgraph) bool { return !c.graph.Valid(sg) })
	c.epoch++
}

// The readers below assume the caller holds the read lock or the writer
// mutex.

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *table.Table {
	return c.tables[strings.ToLower(name)]
}

// Tables returns all tables in registration order.
func (c *Catalog) Tables() []*table.Table {
	out := make([]*table.Table, 0, len(c.tableOrder))
	for _, k := range c.tableOrder {
		out = append(out, c.tables[k])
	}
	return out
}

// Graph returns the current typed multigraph of all vertex/edge views.
func (c *Catalog) Graph() *graph.Graph { return c.graph }

// VertexDecls returns the recorded vertex declarations in order.
func (c *Catalog) VertexDecls() []*ast.CreateVertex { return c.vertexDecls }

// EdgeDecls returns the recorded edge declarations in order.
func (c *Catalog) EdgeDecls() []*ast.CreateEdge { return c.edgeDecls }

// Subgraph returns the named subgraph result, or nil.
func (c *Catalog) Subgraph(name string) *graph.Subgraph {
	return c.subgraphs[strings.ToLower(name)]
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
// that dynamic query planning consumes. Callers must hold at least the
// read lock.
func (c *Catalog) Stats() []ObjectStats {
	var out []ObjectStats
	for _, k := range c.tableOrder {
		t := c.tables[k]
		out = append(out, ObjectStats{Kind: "table", Name: t.Name, Count: t.NumRows()})
	}
	for _, vt := range c.graph.VertexTypes() {
		out = append(out, ObjectStats{Kind: "vertex", Name: vt.Name, Count: vt.Count()})
	}
	for _, et := range c.graph.EdgeTypes() {
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

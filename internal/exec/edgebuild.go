package exec

import (
	"fmt"
	"slices"

	"graql/internal/graph"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

// An edge view has one derivation (the paper's Eq. 2, E = (S ⋈ σ_φ A) ⋈ T):
// seed a working relation with rows of one source, probe every other
// source in along the declaration's join conditions, and read the joined
// tuples as edge instances. A full build seeds every row of the source
// vertex view; maintenance seeds only the changed rows of the source that
// changed (deltaEdges). No source is ever hashed.

// buildEdgeType materialises an edge type from scratch and freezes it into
// forward and (optionally) reverse indexes. A functional declaration
// freezes its edges into a column of its source. Otherwise an edge
// instance is one distinct (source vertex, target vertex, attribute row);
// it records a row of every source only when the declaration has at most
// three, so only a join through further tables can yield the same
// instance twice and needs the dedup pass — the declarations planEdge
// refuses to patch.
func (e *Engine) buildEdgeType(s *sema.CreateEdge, id int) (*graph.EdgeType, error) {
	all := make([]uint32, sourceRows(s.Sources[0]))
	for r := range all {
		all[r] = uint32(r)
	}
	edges, err := seededEdges(s, 0, all, nil)
	if err != nil {
		return nil, err
	}
	src, dst := s.Sources[0].Vtx, s.Sources[1].Vtx
	if functional(s) {
		return graph.NewFunctionalEdgeType(id, s.Decl.Name, src, dst, edges, e.Opts.ReverseIndexes), nil
	}
	if len(s.Sources) > 3 {
		seen := make(map[graph.Edge]bool)
		edges = slices.DeleteFunc(edges, func(ed graph.Edge) bool {
			dup := seen[ed]
			seen[ed] = true
			return dup
		})
	}
	var attrs *table.Table
	if s.AttrSource >= 0 {
		attrs = s.Sources[s.AttrSource].Tbl
	}
	return graph.NewEdgeType(id, s.Decl.Name, src, dst, edges, attrs, e.Opts.ReverseIndexes), nil
}

// functional reports whether a declaration is functional: its two
// sources are the endpoints and its one join equates a column of the
// source with the target's single-column key, so each source vertex has
// at most one target. Filters on either endpoint are allowed. The shape
// alone decides the edge type's form.
func functional(s *sema.CreateEdge) bool {
	if len(s.Sources) != 2 || len(s.Joins) != 1 {
		return false
	}
	j := s.Joins[0]
	if j.ASource == 1 {
		j.ASource, j.BSource, j.BCol = j.BSource, j.ASource, j.ACol
	}
	key, ok := soleKeyAttr(s.Sources[1])
	return ok && j.ASource == 0 && j.BSource == 1 && j.BCol == key
}

// seededEdges returns the result tuples of the declaration's join that
// hold one of the given rows of source p, as edge instances in tuple
// order: the seed rows that pass p's filter, each followed through the
// joins. Rows listed in exclude (per source; nil excludes none) never enter
// a tuple.
func seededEdges(s *sema.CreateEdge, p int, seed []uint32, exclude [][]uint32) ([]graph.Edge, error) {
	w := &workRel{sources: []int{p}}
	for _, r := range seed {
		ok, err := admitRow(s, p, r, exclude)
		if err != nil {
			return nil, err
		}
		if ok {
			w.rows = append(w.rows, r)
		}
	}
	if err := w.joinAll(s, exclude); err != nil {
		return nil, err
	}
	return w.edges(s), nil
}

// deltaEdges returns the edges that the changed instances of one source
// produce: the result tuples of the declaration's join, over the new
// versions of its sources, that hold at least one instance listed in a
// delta's Changed. deltas[i] is nil where source i did not change; the
// others all describe one distinct source, which stands at one position
// or — the two roles of a self-edge (V as A, V as B) — at two. There the
// tuples are ΔA⋈B ∪ (A∖ΔA)⋈ΔB, so none comes twice; and because an edge
// instance records a row of every source (at most three), none repeats a
// surviving edge either.
func deltaEdges(s *sema.CreateEdge, deltas []*graph.Delta) ([]graph.Edge, error) {
	var edges []graph.Edge
	exclude := make([][]uint32, len(s.Sources))
	for p, d := range deltas {
		if d == nil || len(d.Changed) == 0 {
			continue
		}
		added, err := seededEdges(s, p, d.Changed, exclude)
		if err != nil {
			return nil, err
		}
		edges = append(edges, added...)
		exclude[p] = d.Changed
	}
	return edges, nil
}

// admitRow applies source i's single-source filter, and the exclusion of
// rows an earlier delta term already covered (ascending, per source), to
// one row.
func admitRow(s *sema.CreateEdge, i int, r uint32, exclude [][]uint32) (bool, error) {
	if exclude != nil {
		if _, found := slices.BinarySearch(exclude[i], r); found {
			return false, nil
		}
	}
	if s.Filters[i] == nil {
		return true, nil
	}
	ok, err := evalBool(s.Filters[i], edgeSrcEnv{src: s.Sources[i], row: r, self: i})
	if err != nil {
		return false, fmt.Errorf("graql: edge %s: %w", s.Decl.Name, err)
	}
	return ok, nil
}

// sourceRows returns the row universe size of an edge source.
func sourceRows(s *sema.EdgeSource) int {
	if s.IsVertex {
		return s.Vtx.Count()
	}
	return s.Tbl.NumRows()
}

// sourceValue reads attribute col of row r of an edge source.
func sourceValue(s *sema.EdgeSource, r uint32, col int) value.Value {
	if s.IsVertex {
		return s.Vtx.AttrValue(r, col)
	}
	return s.Tbl.Value(r, col)
}

// edgeSrcEnv evaluates a single-source filter (refs all target one source).
type edgeSrcEnv struct {
	src  *sema.EdgeSource
	row  uint32
	self int
}

func (e edgeSrcEnv) Lookup(source, col int) value.Value {
	if source != e.self {
		return value.Value{}
	}
	return sourceValue(e.src, e.row, col)
}

// workRel is the intermediate relation of the edge join: tuples of row
// ids, one column per joined source, stored tuple after tuple.
type workRel struct {
	sources []int
	rows    []uint32
}

func (w *workRel) has(src int) bool { return w.pos(src) >= 0 }

func (w *workRel) pos(src int) int { return slices.Index(w.sources, src) }

// count returns the number of tuples.
func (w *workRel) count() int { return len(w.rows) / len(w.sources) }

// tuple returns tuple ti: the row of w.sources[k] at index k.
func (w *workRel) tuple(ti int) []uint32 {
	k := len(w.sources)
	return w.rows[ti*k : (ti+1)*k]
}

// joinAll folds every join condition of the declaration into w, which
// holds rows of one source: a condition between two joined sources filters
// the tuples, one that reaches a new source brings it in through probeIn.
func (w *workRel) joinAll(s *sema.CreateEdge, exclude [][]uint32) error {
	pending := slices.Clone(s.Joins)
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); i++ {
			j := pending[i]
			aIn, bIn := w.has(j.ASource), w.has(j.BSource)
			var err error
			switch {
			case aIn && bIn:
				w.filterEqual(s, j)
			case aIn:
				err = w.probeIn(s, j.BSource, j.BCol, j.ASource, j.ACol, exclude)
			case bIn:
				err = w.probeIn(s, j.ASource, j.ACol, j.BSource, j.BCol, exclude)
			default:
				continue // neither side joined yet; retry next round
			}
			if err != nil {
				return err
			}
			pending = slices.Delete(pending, i, i+1)
			i--
			progress = true
		}
		if !progress {
			return fmt.Errorf("graql: edge %s: join conditions do not connect all sources", s.Decl.Name)
		}
	}
	return nil
}

// edges reads the fully joined tuples as edge instances.
func (w *workRel) edges(s *sema.CreateEdge) []graph.Edge {
	srcPos, dstPos, attrPos := w.pos(0), w.pos(1), -1
	if s.AttrSource >= 0 {
		attrPos = w.pos(s.AttrSource)
	}
	out := make([]graph.Edge, w.count())
	for i := range out {
		tup := w.tuple(i)
		out[i] = graph.Edge{Src: tup[srcPos], Dst: tup[dstPos]}
		if attrPos >= 0 {
			out[i].AttrRow = tup[attrPos]
		}
	}
	return out
}

// probeIn joins a new source into the working relation on newCol = oldCol
// (of already-joined source oldSrc) without hashing it: when newCol is the
// sole key of a vertex type each tuple looks its match up in the type's
// key index; otherwise the new source's column is scanned once against
// the tuples' values. Either way the output is in tuple order — each old
// tuple's matches together, by ascending row of the new source — which is
// the order edge ids are handed out in.
func (w *workRel) probeIn(s *sema.CreateEdge, newSrc, newCol, oldSrc, oldCol int, exclude [][]uint32) error {
	src, oldSource, oldPos := s.Sources[newSrc], s.Sources[oldSrc], w.pos(oldSrc)
	n := w.count()
	// Each hit extends tuple ti by one admitted row of the new source.
	type hit struct{ ti, row uint32 }
	var hits []hit
	emit := func(ti int, r uint32) error {
		ok, err := admitRow(s, newSrc, r, exclude)
		if ok {
			hits = append(hits, hit{uint32(ti), r})
		}
		return err
	}
	if kc, ok := soleKeyAttr(src); ok && kc == newCol {
		probe := make([]value.Value, 1)
		for ti := 0; ti < n; ti++ {
			probe[0] = sourceValue(oldSource, w.tuple(ti)[oldPos], oldCol)
			if v, ok := src.Vtx.LookupKeyValues(probe); ok {
				if err := emit(ti, v); err != nil {
					return err
				}
			}
		}
	} else {
		probes := make([]value.Value, n)
		for ti := range probes {
			probes[ti] = sourceValue(oldSource, w.tuple(ti)[oldPos], oldCol)
		}
		t, rows := src.Tbl, []uint32(nil)
		if src.IsVertex {
			t, rows = src.Vtx.AttrRows()
		}
		err := t.MatchColumn(newCol, rows, probes, func(r uint32, ti int) error { return emit(ti, r) })
		if err != nil {
			return err
		}
		// The scan found the hits cell by cell: a stable counting sort on
		// the tuple index puts them in tuple order.
		start := make([]int, n+1)
		for _, h := range hits {
			start[h.ti+1]++
		}
		for ti := 0; ti < n; ti++ {
			start[ti+1] += start[ti]
		}
		byTuple := make([]hit, len(hits))
		for _, h := range hits {
			byTuple[start[h.ti]] = h
			start[h.ti]++
		}
		hits = byTuple
	}
	out := make([]uint32, 0, len(hits)*(len(w.sources)+1))
	for _, h := range hits {
		out = append(append(out, w.tuple(int(h.ti))...), h.row)
	}
	w.sources = append(w.sources, newSrc)
	w.rows = out
	return nil
}

// soleKeyAttr returns the attribute index of a vertex source's key when
// the key is a single column.
func soleKeyAttr(src *sema.EdgeSource) (int, bool) {
	if !src.IsVertex || len(src.Vtx.KeyCols) != 1 {
		return 0, false
	}
	return src.Vtx.KeyCols[0], true
}

// filterEqual keeps tuples where the two (already joined) columns agree.
func (w *workRel) filterEqual(s *sema.CreateEdge, j sema.EdgeJoin) {
	aPos, bPos := w.pos(j.ASource), w.pos(j.BSource)
	aSrc, bSrc := s.Sources[j.ASource], s.Sources[j.BSource]
	out := w.rows[:0]
	for ti, n := 0, w.count(); ti < n; ti++ {
		tup := w.tuple(ti)
		av := sourceValue(aSrc, tup[aPos], j.ACol)
		bv := sourceValue(bSrc, tup[bPos], j.BCol)
		if !av.IsNull() && !bv.IsNull() && value.Equal(av, bv) {
			out = append(out, tup...)
		}
	}
	w.rows = out
}

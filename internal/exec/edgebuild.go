package exec

import (
	"fmt"
	"slices"

	"graql/internal/bitmap"
	"graql/internal/graph"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

// buildEdgeType materialises an edge type per the paper's Eq. 2:
// per-source selections followed by a pipeline of hash joins connecting
// the source vertex view, the target vertex view and any associated
// tables. The result tuples become edge instances (one per distinct
// (source vertex, target vertex, attribute row)), frozen into forward and
// (optionally) reverse CSR indexes.
func (e *Engine) buildEdgeType(s *sema.CreateEdge, id int) (*graph.EdgeType, error) {
	// 1. Per-source candidate rows after single-source filters.
	cands := make([][]uint32, len(s.Sources))
	for i := range s.Sources {
		rows, err := edgeCandidates(s, i)
		if err != nil {
			return nil, err
		}
		cands[i] = rows
	}

	// 2–3. Join pipeline and dedup into edge instances.
	edges, err := joinEdgeTuples(s, cands)
	if err != nil {
		return nil, err
	}

	var attrs *table.Table
	if s.AttrSource >= 0 {
		attrs = s.Sources[s.AttrSource].Tbl
	}
	et := graph.NewEdgeType(id, s.Decl.Name,
		s.Sources[0].Vtx, s.Sources[1].Vtx,
		edges, attrs, e.Opts.ReverseIndexes)
	return et, nil
}

// edgeCandidates returns the rows of source i that pass its single-source
// filter.
func edgeCandidates(s *sema.CreateEdge, i int) ([]uint32, error) {
	src := s.Sources[i]
	n := sourceRows(src)
	var rows []uint32
	filter := s.Filters[i]
	for r := uint32(0); r < uint32(n); r++ {
		if filter != nil {
			ok, err := evalBool(filter, edgeSrcEnv{src: src, row: r, self: i})
			if err != nil {
				return nil, fmt.Errorf("graql: edge %s: %w", s.Decl.Name, err)
			}
			if !ok {
				continue
			}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// joinEdgeTuples runs the Eq. 2 join pipeline over per-source candidate
// rows and dedups the result tuples into edge instances, one per distinct
// (src, dst, attr-row).
func joinEdgeTuples(s *sema.CreateEdge, cands [][]uint32) ([]graph.Edge, error) {
	// Join pipeline starting from the source vertex view.
	w := &workRel{sources: []int{0}}
	for _, r := range cands[0] {
		w.rows = append(w.rows, []uint32{r})
	}
	err := w.joinAll(s, func(newSrc, newCol, oldSrc, oldCol int) error {
		w.joinIn(s, newSrc, cands[newSrc], newCol, oldSrc, oldCol)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !w.has(1) {
		return nil, fmt.Errorf("graql: edge %s: target vertex type is not connected by the join conditions", s.Decl.Name)
	}

	// Tuples → deduplicated edge instances.
	seen := make(map[graph.Edge]bool)
	all := w.edges(s)
	edges := all[:0]
	for _, ed := range all {
		if !seen[ed] {
			seen[ed] = true
			edges = append(edges, ed)
		}
	}
	return edges, nil
}

// deltaEdges returns the edges that the changed instances of one source
// produce: the result tuples of the declaration's join (Eq. 2), over the
// new versions of its sources, that hold at least one instance listed in a
// delta's Changed. deltas[i] is nil where source i did not change; the
// others all describe one distinct source, which stands at one position
// or — the two roles of a self-edge (V as A, V as B) — at two. There the
// tuples are ΔA⋈B ∪ (A∖ΔA)⋈ΔB, so none comes twice; and because an edge
// instance records a row of every source (at most three), none repeats a
// surviving edge either. Each term starts from the changed rows and joins
// the other sources in by probing, never by hashing a whole source.
func deltaEdges(s *sema.CreateEdge, deltas []*graph.Delta) ([]graph.Edge, error) {
	var edges []graph.Edge
	exclude := make([]*bitmap.Bitmap, len(s.Sources))
	for p, d := range deltas {
		if d == nil || len(d.Changed) == 0 {
			continue
		}
		w := &workRel{sources: []int{p}}
		for _, r := range d.Changed {
			ok, err := admitRow(s, p, r, nil)
			if err != nil {
				return nil, err
			}
			if ok {
				w.rows = append(w.rows, []uint32{r})
			}
		}
		err := w.joinAll(s, func(newSrc, newCol, oldSrc, oldCol int) error {
			return w.probeIn(s, newSrc, newCol, oldSrc, oldCol, exclude)
		})
		if err != nil {
			return nil, err
		}
		edges = append(edges, w.edges(s)...)
		exclude[p] = bitmap.FromSlice(sourceRows(s.Sources[p]), d.Changed)
	}
	return edges, nil
}

// admitRow applies source i's single-source filter, and the exclusion of
// rows an earlier delta term already covered, to one row.
func admitRow(s *sema.CreateEdge, i int, r uint32, exclude []*bitmap.Bitmap) (bool, error) {
	if exclude != nil && exclude[i] != nil && exclude[i].Get(r) {
		return false, nil
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

// workRel is the intermediate relation of the edge-build join pipeline:
// tuples of row ids, one column per joined source.
type workRel struct {
	sources []int
	rows    [][]uint32
}

func (w *workRel) has(src int) bool { return w.pos(src) >= 0 }

// joinAll folds every join condition of the declaration into w, which
// holds rows of one source: a condition between two joined sources filters
// the tuples, one that reaches a new source brings it in through joinIn.
func (w *workRel) joinAll(s *sema.CreateEdge, joinIn func(newSrc, newCol, oldSrc, oldCol int) error) error {
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
				err = joinIn(j.BSource, j.BCol, j.ASource, j.ACol)
			case bIn:
				err = joinIn(j.ASource, j.ACol, j.BSource, j.BCol)
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
	out := make([]graph.Edge, len(w.rows))
	for i, tup := range w.rows {
		out[i] = graph.Edge{Src: tup[srcPos], Dst: tup[dstPos]}
		if attrPos >= 0 {
			out[i].AttrRow = tup[attrPos]
		}
	}
	return out
}

func (w *workRel) pos(src int) int {
	for i, s := range w.sources {
		if s == src {
			return i
		}
	}
	return -1
}

// joinIn hash-joins candidate rows of a new source into the working
// relation on newCol = oldCol (of already-joined source oldSrc).
func (w *workRel) joinIn(s *sema.CreateEdge, newSrc int, newRows []uint32, newCol, oldSrc, oldCol int) {
	src := s.Sources[newSrc]
	ht := make(map[string][]uint32, len(newRows))
	var key []byte
	for _, r := range newRows {
		v := sourceValue(src, r, newCol)
		if v.IsNull() {
			continue
		}
		key = v.AppendKey(key[:0])
		ht[string(key)] = append(ht[string(key)], r)
	}
	oldPos := w.pos(oldSrc)
	oldSource := s.Sources[oldSrc]
	var out [][]uint32
	for _, tup := range w.rows {
		v := sourceValue(oldSource, tup[oldPos], oldCol)
		if v.IsNull() {
			continue
		}
		key = v.AppendKey(key[:0])
		for _, r := range ht[string(key)] {
			nt := make([]uint32, len(tup)+1)
			copy(nt, tup)
			nt[len(tup)] = r
			out = append(out, nt)
		}
	}
	w.sources = append(w.sources, newSrc)
	w.rows = out
}

// probeIn joins a new source into a small working relation on newCol =
// oldCol (of already-joined source oldSrc) without hashing the new source:
// when newCol is the sole key of a vertex type each tuple looks its match
// up in the type's key index; otherwise the new source's column is scanned
// once against the tuples' values.
func (w *workRel) probeIn(s *sema.CreateEdge, newSrc, newCol, oldSrc, oldCol int, exclude []*bitmap.Bitmap) error {
	src, oldSource, oldPos := s.Sources[newSrc], s.Sources[oldSrc], w.pos(oldSrc)
	var out [][]uint32
	emit := func(tup []uint32, r uint32) error {
		ok, err := admitRow(s, newSrc, r, exclude)
		if ok {
			out = append(out, append(tup[:len(tup):len(tup)], r))
		}
		return err
	}
	if kc, ok := soleKeyAttr(src); ok && kc == newCol {
		key := make([]value.Value, 1)
		for _, tup := range w.rows {
			key[0] = sourceValue(oldSource, tup[oldPos], oldCol)
			if v, ok := src.Vtx.LookupKeyValues(key); ok {
				if err := emit(tup, v); err != nil {
					return err
				}
			}
		}
	} else {
		probes := make([]value.Value, len(w.rows))
		for ti, tup := range w.rows {
			probes[ti] = sourceValue(oldSource, tup[oldPos], oldCol)
		}
		t, rows := src.Tbl, []uint32(nil)
		if src.IsVertex {
			t, rows = src.Vtx.AttrRows()
		}
		err := t.MatchColumn(newCol, rows, probes, func(r uint32, ti int) error { return emit(w.rows[ti], r) })
		if err != nil {
			return err
		}
	}
	w.sources = append(w.sources, newSrc)
	w.rows = out
	return nil
}

// soleKeyAttr returns the attribute index of a vertex source's key when
// the key is a single column.
func soleKeyAttr(src *sema.EdgeSource) (int, bool) {
	switch {
	case !src.IsVertex || len(src.Vtx.KeyCols) != 1:
		return 0, false
	case src.Vtx.OneToOne:
		return src.Vtx.KeyCols[0], true
	}
	return 0, true // many-to-one: the attributes are the key columns
}

// filterEqual keeps tuples where the two (already joined) columns agree.
func (w *workRel) filterEqual(s *sema.CreateEdge, j sema.EdgeJoin) {
	aPos, bPos := w.pos(j.ASource), w.pos(j.BSource)
	aSrc, bSrc := s.Sources[j.ASource], s.Sources[j.BSource]
	out := w.rows[:0]
	for _, tup := range w.rows {
		av := sourceValue(aSrc, tup[aPos], j.ACol)
		bv := sourceValue(bSrc, tup[bPos], j.BCol)
		if !av.IsNull() && !bv.IsNull() && value.Equal(av, bv) {
			out = append(out, tup)
		}
	}
	w.rows = out
}

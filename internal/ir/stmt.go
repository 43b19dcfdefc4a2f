package ir

import (
	"fmt"

	"graql/internal/ast"
	"graql/internal/expr"
)

func (w *writer) stmt(st ast.Stmt) error {
	switch s := st.(type) {
	case *ast.CreateTable:
		w.u8(tagCreateTable)
		w.str(s.Name)
		w.uvarint(uint64(len(s.Cols)))
		for _, c := range s.Cols {
			w.str(c.Name)
			w.typ(c.Type)
		}
	case *ast.CreateVertex:
		w.u8(tagCreateVertex)
		w.str(s.Name)
		w.uvarint(uint64(len(s.KeyCols)))
		for _, k := range s.KeyCols {
			w.str(k)
		}
		w.str(s.From)
		return w.expr(s.Where)
	case *ast.CreateEdge:
		w.u8(tagCreateEdge)
		w.str(s.Name)
		w.str(s.SrcType)
		w.str(s.SrcAlias)
		w.str(s.DstType)
		w.str(s.DstAlias)
		w.uvarint(uint64(len(s.FromTables)))
		for _, t := range s.FromTables {
			w.str(t)
		}
		return w.expr(s.Where)
	case *ast.Ingest:
		w.u8(tagIngest)
		w.str(s.Table)
		w.str(s.File)
	case *ast.Output:
		w.u8(tagOutput)
		w.str(s.Table)
		w.str(s.File)
	case *ast.Select:
		return w.selectStmt(s)
	case *ast.Insert:
		return w.insertStmt(s)
	case *ast.Update:
		return w.updateStmt(s)
	case *ast.Delete:
		return w.deleteStmt(s)
	default:
		return fmt.Errorf("graql: IR cannot encode statement %T", st)
	}
	return nil
}

func (r *reader) stmt() (ast.Stmt, error) {
	switch tag := r.u8(); tag {
	case tagCreateTable:
		s := &ast.CreateTable{Name: r.str()}
		n := r.count()
		for i := uint64(0); i < n; i++ {
			s.Cols = append(s.Cols, ast.ColDef{Name: r.str(), Type: r.typ()})
		}
		return s, r.err
	case tagCreateVertex:
		s := &ast.CreateVertex{Name: r.str()}
		n := r.count()
		for i := uint64(0); i < n; i++ {
			s.KeyCols = append(s.KeyCols, r.str())
		}
		s.From = r.str()
		var err error
		s.Where, err = r.expr()
		return s, err
	case tagCreateEdge:
		s := &ast.CreateEdge{
			Name:     r.str(),
			SrcType:  r.str(),
			SrcAlias: r.str(),
			DstType:  r.str(),
			DstAlias: r.str(),
		}
		n := r.count()
		for i := uint64(0); i < n; i++ {
			s.FromTables = append(s.FromTables, r.str())
		}
		var err error
		s.Where, err = r.expr()
		return s, err
	case tagIngest:
		return &ast.Ingest{Table: r.str(), File: r.str()}, r.err
	case tagOutput:
		return &ast.Output{Table: r.str(), File: r.str()}, r.err
	case tagSelect:
		return r.selectStmt()
	case tagInsert:
		return r.insertStmt()
	case tagUpdate:
		return r.updateStmt()
	case tagDelete:
		return r.deleteStmt()
	default:
		r.fail("bad statement tag %d", tag)
		return nil, r.err
	}
}

func (w *writer) selectStmt(s *ast.Select) error {
	w.u8(tagSelect)
	w.bool_(s.Explain)
	w.bool_(s.Analyze)
	w.uvarint(uint64(s.Top))
	w.bool_(s.Distinct)
	w.bool_(s.Star)
	w.uvarint(uint64(len(s.Items)))
	for _, it := range s.Items {
		w.u8(byte(it.Agg))
		w.bool_(it.AggStar)
		w.str(it.Alias)
		if err := w.expr(it.Expr); err != nil {
			return err
		}
	}
	w.bool_(s.Graph != nil)
	if s.Graph != nil {
		if err := w.pathOr(s.Graph); err != nil {
			return err
		}
	} else {
		w.str(s.FromTable)
	}
	if err := w.expr(s.Where); err != nil {
		return err
	}
	w.uvarint(uint64(len(s.GroupBy)))
	for _, g := range s.GroupBy {
		w.str(g.Qualifier)
		w.str(g.Name)
	}
	w.uvarint(uint64(len(s.OrderBy)))
	for _, k := range s.OrderBy {
		w.str(k.Ref.Qualifier)
		w.str(k.Ref.Name)
		w.bool_(k.Desc)
	}
	w.u8(byte(s.Into.Kind))
	w.str(s.Into.Name)
	return nil
}

func (r *reader) selectStmt() (*ast.Select, error) {
	s := &ast.Select{}
	s.Explain = r.bool_()
	s.Analyze = r.bool_()
	s.Top = int(r.uvarint())
	s.Distinct = r.bool_()
	s.Star = r.bool_()
	nItems := r.count()
	for i := uint64(0); i < nItems; i++ {
		it := ast.SelectItem{Agg: ast.AggFunc(r.u8())}
		it.AggStar = r.bool_()
		it.Alias = r.str()
		var err error
		it.Expr, err = r.expr()
		if err != nil {
			return nil, err
		}
		if it.Expr == nil && !it.AggStar {
			return nil, fmt.Errorf("ir: projection item %d has no expression", i+1)
		}
		s.Items = append(s.Items, it)
	}
	if r.bool_() {
		g, err := r.pathOr()
		if err != nil {
			return nil, err
		}
		s.Graph = g
	} else {
		s.FromTable = r.str()
	}
	var err error
	s.Where, err = r.expr()
	if err != nil {
		return nil, err
	}
	nGroup := r.count()
	for i := uint64(0); i < nGroup; i++ {
		q := r.str()
		n := r.str()
		s.GroupBy = append(s.GroupBy, expr.NewRef(q, n))
	}
	nOrder := r.count()
	for i := uint64(0); i < nOrder; i++ {
		q := r.str()
		n := r.str()
		s.OrderBy = append(s.OrderBy, ast.OrderKey{Ref: expr.NewRef(q, n), Desc: r.bool_()})
	}
	s.Into.Kind = ast.IntoKind(r.u8())
	s.Into.Name = r.str()
	return s, r.err
}

func (w *writer) pathOr(p *ast.PathOr) error {
	w.uvarint(uint64(len(p.Terms)))
	for _, t := range p.Terms {
		w.uvarint(uint64(len(t.Paths)))
		for _, path := range t.Paths {
			if err := w.path(path); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *reader) pathOr() (*ast.PathOr, error) {
	out := &ast.PathOr{}
	nTerms := r.count()
	for i := uint64(0); i < nTerms; i++ {
		and := &ast.PathAnd{}
		nPaths := r.count()
		for j := uint64(0); j < nPaths; j++ {
			p, err := r.path()
			if err != nil {
				return nil, err
			}
			and.Paths = append(and.Paths, p)
		}
		out.Terms = append(out.Terms, and)
	}
	return out, r.err
}

func (w *writer) path(p *ast.Path) error {
	w.uvarint(uint64(len(p.Elems)))
	for _, el := range p.Elems {
		if err := w.pathElem(el); err != nil {
			return err
		}
	}
	return nil
}

func (r *reader) path() (*ast.Path, error) {
	p := &ast.Path{}
	n := r.count()
	for i := uint64(0); i < n; i++ {
		el, err := r.pathElem()
		if err != nil {
			return nil, err
		}
		p.Elems = append(p.Elems, el)
	}
	return p, r.err
}

func (w *writer) label(l *ast.LabelDef) {
	w.bool_(l != nil)
	if l != nil {
		w.u8(byte(l.Kind))
		w.str(l.Name)
	}
}

func (r *reader) label() *ast.LabelDef {
	if !r.bool_() {
		return nil
	}
	return &ast.LabelDef{Kind: ast.LabelKind(r.u8()), Name: r.str()}
}

func (w *writer) pathElem(el ast.PathElem) error {
	switch e := el.(type) {
	case *ast.VertexStep:
		w.u8(tagVertexStep)
		w.label(e.Label)
		w.str(e.Name)
		w.bool_(e.Variant)
		w.str(e.SeedGraph)
		return w.expr(e.Cond)
	case *ast.EdgeStep:
		w.u8(tagEdgeStep)
		w.label(e.Label)
		w.str(e.Name)
		w.bool_(e.Variant)
		w.bool_(e.Out)
		return w.expr(e.Cond)
	case *ast.RegexGroup:
		w.u8(tagRegexGroup)
		w.varint(int64(e.Min))
		w.varint(int64(e.Max))
		w.uvarint(uint64(len(e.Elems)))
		for _, sub := range e.Elems {
			if err := w.pathElem(sub); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("graql: IR cannot encode path element %T", el)
}

func (r *reader) pathElem() (ast.PathElem, error) {
	switch tag := r.u8(); tag {
	case tagVertexStep:
		v := &ast.VertexStep{Label: r.label(), Name: r.str(), Variant: r.bool_(), SeedGraph: r.str()}
		var err error
		v.Cond, err = r.expr()
		return v, err
	case tagEdgeStep:
		e := &ast.EdgeStep{Label: r.label(), Name: r.str(), Variant: r.bool_(), Out: r.bool_()}
		var err error
		e.Cond, err = r.expr()
		return e, err
	case tagRegexGroup:
		g := &ast.RegexGroup{Min: int(r.varint()), Max: int(r.varint())}
		n := r.count()
		for i := uint64(0); i < n; i++ {
			el, err := r.pathElem()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, el)
		}
		return g, r.err
	default:
		r.fail("bad path element tag %d", tag)
		return nil, r.err
	}
}

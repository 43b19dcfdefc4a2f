package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"graql/internal/ast"
	"graql/internal/ir"
	"graql/internal/obs"
	"graql/internal/parser"
	"graql/internal/plan"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

// Prepared is the one compiled form of a script and the only owner of
// plans (paper §III: the front-end compiles a script once and ships the
// compiled artifact). Every execution entry point reaches it: Prepare /
// PrepareIR hand one to the caller as a reusable handle, ExecScript
// looks the script text up in the engine's script cache
// (scriptcache.go) and compiles on a miss, and ExecStmt / ExecParsed
// wrap their ASTs in a transient one. Executing it binds %name%
// parameters and runs each compiled statement; a select whose plan slot
// still holds for what it reads (fresh) skips semantic analysis and
// planning as well.
//
// A Prepared is immutable after compilation apart from its plan slots,
// safe for concurrent execution, and belongs to the engine (and its
// forks) that compiled it: the slots hold plans bound to that engine's
// catalog.
type Prepared struct {
	// src is the handle's private copy of the script text; the
	// statements' identifiers and literals slice into it, so the handle
	// shares no backing memory with the caller's buffer. Empty when the
	// statements were decoded from IR (fresh strings already).
	src   string
	blob  []byte // the binary IR; set by Prepare and PrepareIR only
	stmts []compiledStmt
	ro    bool // no statement mutates the catalog
}

// compiledStmt is one statement of a Prepared: its detached AST, its
// observability identity, the results of earlier statements it reads and
// — for selects — the slot holding its latest plan.
type compiledStmt struct {
	st ast.Stmt
	id stmtIdent
	// locals lists the results this statement reads that earlier
	// statements of its script produce (plan.Locals); it reads them, not
	// the catalog's objects of those names.
	locals []plan.Local
	// src is a table select's source table name, lower-cased once here so
	// that resolving it in the catalog on every execution allocates nothing.
	src  string
	plan atomic.Pointer[sema.Select]
	// label is the statement span's detail, rendered on the first traced
	// execution: st is the unbound, shared AST, so it never changes.
	label atomic.Pointer[string]
}

// stmtIdent is a statement's observability identity, computed once at
// compile so no execution re-renders or re-fingerprints it.
type stmtIdent struct {
	fp     uint64
	norm   string // fingerprint-normalized text
	script string // statement text: its source span, or the canonical rendering
}

// Text returns the canonical rendering of the prepared script.
func (p *Prepared) Text() string { return p.script().String() }

// script returns the handle's statements as a parsed script.
func (p *Prepared) script() *ast.Script {
	s := &ast.Script{Stmts: make([]ast.Stmt, len(p.stmts))}
	for i := range p.stmts {
		s.Stmts[i] = p.stmts[i].st
	}
	return s
}

// IR returns the handle's binary IR blob (the compiled artifact the
// wire protocol ships).
func (p *Prepared) IR() []byte { return p.blob }

// NumStmts reports how many statements the handle executes per call.
func (p *Prepared) NumStmts() int { return len(p.stmts) }

// ReadOnly reports whether the script is free of catalog mutations
// (DDL, DML, ingest, into-selects). Read-only handles were fully
// analyzed at prepare time; handles with writes defer analysis of
// statements that depend on earlier statements' effects to Execute.
func (p *Prepared) ReadOnly() bool { return p.ro }

// ErrParse marks a script that failed to lex or parse: errors.Is(err,
// ErrParse) holds for the error of any text entry point when no
// statement ran because the text is not GraQL.
var ErrParse = errors.New("graql: parse error")

type parseError struct{ err error }

func (p *parseError) Error() string        { return p.err.Error() }
func (p *parseError) Unwrap() error        { return p.err }
func (p *parseError) Is(target error) bool { return target == ErrParse }

// compileText parses and compiles script text. The result retains src
// (statement texts and AST strings slice into it), so callers that keep
// the result pass a private copy.
func compileText(src string) (*Prepared, error) {
	script, err := parser.Parse(src)
	if err != nil {
		return nil, &parseError{err}
	}
	return compile(script.Stmts, src), nil
}

// compile builds the compiled form of parsed statements. src is the text
// their spans index, or "" for statements without source (decoded IR,
// programmatic ASTs), which are identified by their canonical rendering.
func compile(stmts []ast.Stmt, src string) *Prepared {
	p := &Prepared{src: src, stmts: make([]compiledStmt, len(stmts)), ro: true}
	locals := plan.Locals(stmts)
	for i, st := range stmts {
		p.stmts[i].init(st, src)
		if locals != nil {
			p.stmts[i].locals = locals[i]
		}
		if mutatesCatalog(st) {
			p.ro = false
		}
	}
	return p
}

func (cs *compiledStmt) init(st ast.Stmt, src string) {
	// The statement's span sliced out of its source is far cheaper than
	// re-rendering the AST; fingerprint normalization collapses the
	// formatting differences between the two forms.
	var text string
	if sp := st.Span(); sp.Known() && sp.Start >= 0 && sp.Start < sp.End && sp.End <= len(src) {
		text = src[sp.Start:sp.End]
	} else {
		text = st.String()
	}
	fp, norm := obs.Fingerprint(text)
	cs.st, cs.id = st, stmtIdent{fp: fp, norm: norm, script: text}
	if sel, ok := st.(*ast.Select); ok && sel.Graph == nil {
		cs.src = strings.ToLower(sel.FromTable)
	}
}

// detail returns the statement's trace label (stmtDetail), rendering it
// once per compiled statement.
func (cs *compiledStmt) detail() string {
	if l := cs.label.Load(); l != nil {
		return *l
	}
	l := stmtDetail(cs.st)
	cs.label.Store(&l)
	return l
}

// Prepare compiles a script into a reusable statement handle: parse →
// compiled statements + binary IR, plus eager semantic analysis (which
// fills the plan slots, so the first execute is already a hit) when the
// script is read-only.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	p, err := compileText(strings.Clone(src))
	if err != nil {
		return nil, err
	}
	if p.blob, err = ir.Encode(p.script()); err != nil {
		return nil, err
	}
	return e.analyzed(p)
}

// PrepareIR builds a statement handle directly from compiled IR bytes
// (e.g. a client-side "compile" result), skipping the text front-end.
func (e *Engine) PrepareIR(blob []byte) (*Prepared, error) {
	// Decoded strings are fresh allocations, so the handle pins neither a
	// script buffer nor (beyond blob itself) the IR input.
	decoded, err := e.DecodeIR(blob)
	if err != nil {
		return nil, err
	}
	p := compile(decoded.Stmts, "")
	p.blob = blob
	return e.analyzed(p)
}

// analyzed finishes a handle: empty scripts are rejected, and a
// read-only script is analyzed now, so unknown tables, type errors and
// malformed patterns fail the prepare rather than the first execute.
// Scripts with writes skip this: their later statements may depend on
// catalog objects the earlier ones create.
func (e *Engine) analyzed(p *Prepared) (*Prepared, error) {
	if len(p.stmts) == 0 {
		return nil, fmt.Errorf("graql: cannot prepare an empty script")
	}
	if !p.ro {
		return p, nil
	}
	e.Cat.RLock()
	defer e.Cat.RUnlock()
	for i := range p.stmts {
		if _, ok := p.stmts[i].st.(*ast.Select); !ok {
			continue
		}
		if _, err := e.planSelect(&p.stmts[i], nil); err != nil {
			return nil, fmt.Errorf("statement %d: %w", i+1, err)
		}
	}
	return p, nil
}

// mutatesCatalog reports whether executing the statement can commit a
// catalog mutation (and hence bump the epoch).
func mutatesCatalog(st ast.Stmt) bool {
	sel, ok := st.(*ast.Select)
	if !ok {
		return true // DDL, ingest, output, DML
	}
	return sel.Into.Kind != ast.IntoNone
}

// planCacheable reports whether a statement's plan may be reused across
// executions: every select but an explain, which renders a plan rather
// than executing one.
func planCacheable(sel *ast.Select) bool { return !sel.Explain }

// planSelect resolves a compiled select to its analyzed plan: load the
// statement's slot; if it is fresh for what the statement reads now — its
// source table, the script's own result (done holds the results of the
// statements before it) or the catalog's — it is a hit, else analyze,
// verify and store. The caller holds the catalog read lock, so what the
// plan read stays published for the whole execution that follows.
func (e *Engine) planSelect(cs *compiledStmt, done []Result) (*sema.Select, error) {
	sel := cs.st.(*ast.Select)
	reuse := e.scripts != nil && planCacheable(sel)
	if reuse {
		if p := cs.plan.Load(); p != nil {
			if src := e.source(cs, done); e.fresh(p, src) {
				if p.Table != src {
					// Same schema, another table: the plan holds as it is
					// once it reads the current one.
					rebound := *p
					rebound.Table, p = src, &rebound
					cs.plan.Store(p)
				}
				// A stored plan outlives the execution that built it, so
				// verify on the hit path too: a corruption bug anywhere in
				// invalidation surfaces here as a loud error instead of a
				// wrong answer.
				if err := e.verifyPlanDue(p, "plan-cache"); err != nil {
					return nil, err
				}
				e.scripts.hit()
				e.acct.notePlanHit()
				return p, nil
			}
			e.scripts.evicted() // what the plan read has changed
		}
		e.scripts.miss()
	}
	analyzed, err := e.analyze(sel, scopeOf(cs, done))
	if err != nil {
		return nil, err
	}
	p := analyzed.(*sema.Select)
	if err := e.verifyPlanDue(p, "plan"); err != nil {
		return nil, err
	}
	if reuse {
		cs.plan.Store(p)
	}
	return p, nil
}

// fresh is the one test of whether a stored plan still holds (DESIGN.md
// §12); src is the table the statement reads now (nil in graph mode). A
// graph-mode plan holds, as a subgraph does, while the graph Holds every
// type it resolved; a table-mode plan, for any table of its source's name
// and schema. An into-table target is checked again when it is published.
func (e *Engine) fresh(p *sema.Select, src *table.Table) bool {
	g := e.Cat.Graph()
	for _, alt := range p.GraphAlts {
		for _, n := range alt.Pattern.Nodes {
			if !g.Holds(n.Type, nil) {
				return false
			}
		}
		for _, pe := range alt.Pattern.Edges {
			if !g.Holds(nil, pe.Type) || pe.Regex != nil && slices.ContainsFunc(pe.Regex.Steps, func(st sema.RegexStep) bool { return !g.Holds(st.Vtx, st.Edge) }) {
				return false
			}
		}
	}
	if p.Table == src {
		return true
	}
	return src != nil && p.Table.Name == src.Name && slices.Equal(p.Table.Schema(), src.Schema())
}

// source returns the table a table select reads: the result of the
// earlier statement of its script that produced it, else the catalog's
// table of that name. nil in graph mode, or when neither exists.
func (e *Engine) source(cs *compiledStmt, done []Result) *table.Table {
	if cs.src == "" {
		return nil
	}
	if t := (&scope{cs.locals, done}).Table(cs.src); t != nil {
		return t
	}
	return e.Cat.Table(cs.src)
}

// ExecPrepared executes a prepared handle, binding the script's %name%
// parameters. Results keep statement order, exactly like ExecScript on
// the original text.
func (e *Engine) ExecPrepared(p *Prepared, params map[string]value.Value) ([]Result, error) {
	return e.execCompiled(p, params)
}

// ExecPreparedContext is ExecPrepared bound to ctx.
func (e *Engine) ExecPreparedContext(ctx context.Context, p *Prepared, params map[string]value.Value) ([]Result, error) {
	return e.WithContext(ctx).execCompiled(p, params)
}

// execCompiled runs the statements of a compiled script in order. On a
// failure it returns the results of the statements that ran before it,
// and an error naming the failing statement.
func (e *Engine) execCompiled(p *Prepared, params map[string]value.Value) ([]Result, error) {
	out := make([]Result, 0, len(p.stmts))
	for i := range p.stmts {
		if err := e.canceled(); err != nil {
			return out, fmt.Errorf("statement %d: %w", i+1, err)
		}
		r, err := e.execStmtID(&p.stmts[i], params, out)
		if err != nil {
			return out, fmt.Errorf("statement %d: %w", i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

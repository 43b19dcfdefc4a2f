package exec

import (
	"errors"
	"fmt"
	"sync/atomic"

	"graql/internal/ast"
	"graql/internal/expr"
	"graql/internal/ir"
	"graql/internal/sema"
)

// The engine-side half of the IR/plan verifier (ir.Verify is the
// wire-side half): after semantic analysis resolved every reference to a
// (source, column) slot, this checks that the resulting plan is
// internally consistent — sources in range, column indexes inside their
// schemas, order-by keys inside the output schema, repetition bounds
// sane, no poisoned steps. A plan that fails here would execute as a
// panic or a silently wrong answer; the verifier turns it into a loud
// error and a graql_ir_verify_failures_total increment.
//
// The verifier runs at two kinds of seam. Wire decode (DecodeIR) is
// input validation: every script that arrives as IR bytes is verified,
// whatever the mode. Freshly analyzed select plans and plan-cache hits (a
// cached plan outlives the statement that built it, so a
// pointer-corruption bug anywhere in invalidation shows up here first)
// are self-checks, taken as often as Options.IRVerify says.

// IR verification modes (Options.IRVerify).
const (
	IRVerifyAlways = "always" // check every plan built or reused
	IRVerifySample = "sample" // check every 64th (serving default)
	IRVerifyOff    = "off"
)

// irVerifySampleEvery is the sampling stride of IRVerifySample mode.
const irVerifySampleEvery = 64

// irVerifyTick counts plan-verification opportunities process-wide;
// sampled mode verifies one in every irVerifySampleEvery ticks.
var irVerifyTick atomic.Uint64

// ErrBadIR marks IR bytes that do not decode to a well-formed script.
var ErrBadIR = errors.New("graql: malformed IR")

// DecodeIR decodes a script that crossed the wire as IR bytes and
// verifies it, as one step: the decoder only rejects malformed framing,
// and a blob whose bytes happen to frame correctly must not reach sema
// and the executor (ir.Verify). Every failure matches ErrBadIR. The
// engine's own WAL records are CRC-checked and self-written, so replay
// decodes them without this.
func (e *Engine) DecodeIR(blob []byte) (*ast.Script, error) {
	script, err := ir.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadIR, err)
	}
	if err := ir.Verify(script); err != nil {
		e.met.noteIRVerifyFailure()
		return nil, fmt.Errorf("%w: %w", ErrBadIR, err)
	}
	return script, nil
}

// verifyPlanDue runs the plan verifier on an analyzed select when the
// engine's mode says this opportunity is taken, converting a failure
// into a loud internal error (and a metric increment). site names the
// seam for the error message: "plan" or "plan-cache".
func (e *Engine) verifyPlanDue(s *sema.Select, site string) error {
	switch e.Opts.IRVerify {
	case IRVerifyOff:
		return nil
	case IRVerifySample:
		if irVerifyTick.Add(1)%irVerifySampleEvery != 1 {
			return nil
		}
	}
	if err := verifyPlan(s); err != nil {
		e.met.noteIRVerifyFailure()
		return fmt.Errorf("graql: internal: %s verification failed: %w", site, err)
	}
	return nil
}

// verifyPlan structurally checks an analyzed select plan. It must accept
// every plan the analyzer can legitimately produce (it runs on all of
// them in the always-on test configuration), so every rule here is an
// invariant the executor genuinely relies on.
func verifyPlan(s *sema.Select) error {
	if s == nil {
		return fmt.Errorf("nil plan")
	}
	tableMode := s.Table != nil
	graphMode := len(s.GraphAlts) > 0
	if tableMode == graphMode {
		return fmt.Errorf("plan must read exactly one of a table or a graph pattern")
	}
	if s.Top < 0 {
		return fmt.Errorf("negative top %d", s.Top)
	}
	for _, k := range s.OrderBy {
		if k.Col < 0 || k.Col >= len(s.OutSchema) {
			return fmt.Errorf("order-by key %d outside output schema of %d columns", k.Col, len(s.OutSchema))
		}
	}
	if tableMode {
		return verifyTablePlan(s)
	}
	for i, alt := range s.GraphAlts {
		if err := verifyGraphAlt(alt, s.Star); err != nil {
			return fmt.Errorf("alternative %d: %w", i+1, err)
		}
	}
	return nil
}

func verifyTablePlan(s *sema.Select) error {
	ncols := len(s.Table.Schema())
	if err := verifyPlanExpr(s.Where, 1, ncols); err != nil {
		return fmt.Errorf("where: %w", err)
	}
	for i, it := range s.Items {
		if it.Col < -1 || it.Col >= ncols {
			return fmt.Errorf("item %d reads column %d of a %d-column table", i+1, it.Col, ncols)
		}
		if it.AggStar && it.Expr != nil {
			return fmt.Errorf("item %d is count(*) but carries an expression", i+1)
		}
		if err := verifyPlanExpr(it.Expr, 1, ncols); err != nil {
			return fmt.Errorf("item %d: %w", i+1, err)
		}
	}
	for _, g := range s.GroupBy {
		if g < 0 || g >= ncols {
			return fmt.Errorf("group-by key %d outside table schema of %d columns", g, ncols)
		}
	}
	if !s.Star && len(s.OutSchema) != len(s.Items) {
		return fmt.Errorf("output schema has %d columns for %d projection items", len(s.OutSchema), len(s.Items))
	}
	return nil
}

func verifyGraphAlt(alt *sema.GraphAlt, star bool) error {
	if alt == nil || alt.Pattern == nil {
		return fmt.Errorf("nil pattern")
	}
	p := alt.Pattern
	if len(p.Nodes) == 0 {
		return fmt.Errorf("pattern has no nodes")
	}
	nsrc := len(p.Nodes) + len(p.Edges)
	for i, n := range p.Nodes {
		if n == nil {
			return fmt.Errorf("node %d is nil", i)
		}
		if n.Poisoned {
			return fmt.Errorf("node %d is poisoned (analysis reported errors but the plan escaped)", i)
		}
		if n.ID != i {
			return fmt.Errorf("node %d carries id %d", i, n.ID)
		}
		if n.SameTypeAs < -1 || n.SameTypeAs >= len(p.Nodes) {
			return fmt.Errorf("node %d same-type constraint %d outside %d nodes", i, n.SameTypeAs, len(p.Nodes))
		}
		if err := verifyPlanExpr(n.Cond, nsrc, -1); err != nil {
			return fmt.Errorf("node %d condition: %w", i, err)
		}
	}
	for i, pe := range p.Edges {
		if pe == nil {
			return fmt.Errorf("edge %d is nil", i)
		}
		if pe.Poisoned {
			return fmt.Errorf("edge %d is poisoned (analysis reported errors but the plan escaped)", i)
		}
		if pe.ID != i {
			return fmt.Errorf("edge %d carries id %d", i, pe.ID)
		}
		if pe.Src < 0 || pe.Src >= len(p.Nodes) || pe.Dst < 0 || pe.Dst >= len(p.Nodes) {
			return fmt.Errorf("edge %d endpoints (%d,%d) outside %d nodes", i, pe.Src, pe.Dst, len(p.Nodes))
		}
		if pe.Regex != nil {
			if pe.Type != nil {
				return fmt.Errorf("edge %d is both a regex fragment and a concrete type", i)
			}
			r := pe.Regex
			if r.Min < 0 {
				return fmt.Errorf("edge %d regex has negative minimum %d", i, r.Min)
			}
			if r.Max >= 0 && r.Max < r.Min {
				return fmt.Errorf("edge %d regex bound {%d,%d} is empty", i, r.Min, r.Max)
			}
			if len(r.Steps) == 0 {
				return fmt.Errorf("edge %d regex fragment has no steps", i)
			}
		}
		if err := verifyPlanExpr(pe.Cond, nsrc, -1); err != nil {
			return fmt.Errorf("edge %d condition: %w", i, err)
		}
	}
	for _, ref := range p.StepOrder {
		if ref.IsEdge {
			if ref.Index < 0 || ref.Index >= len(p.Edges) {
				return fmt.Errorf("step order references edge %d of %d", ref.Index, len(p.Edges))
			}
		} else if ref.Index < 0 || ref.Index >= len(p.Nodes) {
			return fmt.Errorf("step order references node %d of %d", ref.Index, len(p.Nodes))
		}
	}
	if !star && len(alt.Proj) == 0 {
		return fmt.Errorf("projecting select resolved no projection items")
	}
	for i, it := range alt.Proj {
		if it.Source < 0 || it.Source >= nsrc {
			return fmt.Errorf("projection item %d reads source %d of %d", i+1, it.Source, nsrc)
		}
		if it.Col < -1 {
			return fmt.Errorf("projection item %d reads column %d", i+1, it.Col)
		}
	}
	return nil
}

// verifyPlanExpr checks every resolved reference of an analyzed
// expression: source in [0, nsrc), column non-negative, and — when the
// caller knows the single source's width (ncols >= 0) — inside it.
func verifyPlanExpr(e expr.Expr, nsrc, ncols int) error {
	if e == nil {
		return nil
	}
	for _, r := range expr.Refs(e) {
		if r.Source < 0 || r.Source >= nsrc {
			return fmt.Errorf("reference %s resolved to source %d of %d", r, r.Source, nsrc)
		}
		if r.Col < 0 {
			return fmt.Errorf("reference %s left unresolved (column %d)", r, r.Col)
		}
		if ncols >= 0 && r.Col >= ncols {
			return fmt.Errorf("reference %s reads column %d of a %d-column source", r, r.Col, ncols)
		}
	}
	return nil
}

package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"graql/internal/ast"
	"graql/internal/bsbm"
	"graql/internal/ir"
	"graql/internal/obs"
	"graql/internal/sema"
	"graql/internal/table"
	"graql/internal/value"
)

// A zero-set update is legal IR framing (the count field is just 0) but
// structurally meaningless; the parser can never produce it, so it only
// arrives via a corrupted or hand-built blob.
func malformedBlob(t *testing.T) []byte {
	t.Helper()
	blob, err := ir.Encode(&ast.Script{Stmts: []ast.Stmt{&ast.Update{Table: "t"}}})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return blob
}

// TestPrepareIRRejectsMalformedBlob: wire-decoded IR is input, and input
// validation is not a sampled self-check — the blob is refused in every
// verifier mode.
func TestPrepareIRRejectsMalformedBlob(t *testing.T) {
	for _, mode := range []string{IRVerifyAlways, IRVerifySample, IRVerifyOff} {
		opts := DefaultOptions()
		opts.IRVerify = mode
		opts.Obs = obs.New()
		e := New(opts)
		for i := 1; i <= 3; i++ {
			_, err := e.PrepareIR(malformedBlob(t))
			if !errors.Is(err, ErrBadIR) || !strings.Contains(err.Error(), "verify") {
				t.Fatalf("%s: PrepareIR on malformed blob = %v, want a verify error matching ErrBadIR", mode, err)
			}
			if got := e.met.irVerifyFailures.Value(); got != int64(i) {
				t.Fatalf("%s: graql_ir_verify_failures_total = %d, want %d", mode, got, i)
			}
		}
	}
}

func TestVerifyPlanInvariants(t *testing.T) {
	tbl, err := table.New("t", table.Schema{{Name: "id", Type: value.Type{Kind: value.KindInt}}})
	if err != nil {
		t.Fatalf("table.New: %v", err)
	}
	cases := []struct {
		name string
		plan *sema.Select
		want string
	}{
		{"nil plan", nil, "nil plan"},
		{"no input", &sema.Select{}, "exactly one"},
		{"negative top", &sema.Select{Table: tbl, Star: true, Top: -2}, "negative top"},
		{"order key out of range", &sema.Select{Table: tbl, Star: true,
			OrderBy: []sema.OrderKey{{Col: 3}}}, "order-by key"},
		{"item column out of range", &sema.Select{Table: tbl,
			Items:     []sema.Item{{Col: 7, Name: "x"}},
			OutSchema: table.Schema{{Name: "x"}}}, "reads column 7"},
		{"group-by out of range", &sema.Select{Table: tbl, Star: true,
			GroupBy: []int{5}}, "group-by key"},
		{"empty pattern", &sema.Select{Star: true,
			GraphAlts: []*sema.GraphAlt{{Pattern: &sema.Pattern{}}}}, "no nodes"},
		{"edge endpoint out of range", &sema.Select{Star: true,
			GraphAlts: []*sema.GraphAlt{{Pattern: &sema.Pattern{
				Nodes: []*sema.Node{{ID: 0, SameTypeAs: -1}},
				Edges: []*sema.PEdge{{ID: 0, Src: 0, Dst: 4}},
			}}}}, "endpoints"},
		{"empty regex bound", &sema.Select{Star: true,
			GraphAlts: []*sema.GraphAlt{{Pattern: &sema.Pattern{
				Nodes: []*sema.Node{{ID: 0, SameTypeAs: -1}},
				Edges: []*sema.PEdge{{ID: 0, Src: 0, Dst: 0,
					Regex: &sema.Regex{Min: 3, Max: 1, Steps: make([]sema.RegexStep, 1)}}},
			}}}}, "regex bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := verifyPlan(tc.plan)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("verifyPlan = %v, want error containing %q", err, tc.want)
			}
		})
	}

	ok := &sema.Select{Table: tbl, Star: true, OutSchema: tbl.Schema()}
	if err := verifyPlan(ok); err != nil {
		t.Fatalf("verifyPlan on a valid plan = %v", err)
	}
}

// TestIRVerifySampling checks the stride: in sample mode only one in
// every irVerifySampleEvery plan checks runs the verifier, so a corrupted
// cached plan passes until the sampled tick lands on it.
func TestIRVerifySampling(t *testing.T) {
	opts := DefaultOptions()
	opts.IRVerify = IRVerifySample
	e := New(opts)
	mustExec(t, e, "create table t(id integer)", nil)
	p, err := e.Prepare("select id from table t")
	if err != nil {
		t.Fatal(err)
	}
	p.stmts[0].plan.Load().Top = -1 // executes as "no top"; verifyPlan refuses it
	rejected := 0
	for i := 0; i < 2*irVerifySampleEvery; i++ {
		if _, err := e.ExecPrepared(p, nil); err != nil {
			rejected++
		}
	}
	if rejected == 0 || rejected > 3 {
		t.Fatalf("sampled verifier rejected %d of %d executions, want ~2", rejected, 2*irVerifySampleEvery)
	}
}

// BenchmarkIRVerify is EXPERIMENTS.md E17: one prepared serving-path
// statement executed under the three Options.IRVerify modes. Per execute
// the verifier's only cost is the structural walk of the cached plan —
// always pays it every call, sample every 64th, off never — so the
// sub-benchmark ratios are the verifier's overhead. The statement is a
// point probe of Berlin's Types table behind 32 constant guards that the
// planner folds away: the plan is small, which makes the walk's share of
// an execute as large as it gets.
func BenchmarkIRVerify(b *testing.B) {
	var q strings.Builder
	q.WriteString("select top 5 id, subclassOf, publisher, date from table Types\nwhere id = 't1'")
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&q, "\n  and 'region%d' <> 'blocked%d' and %d * 10 + 7 > %d", i, i, i, i)
	}
	q.WriteString("\norder by id asc, subclassOf desc, publisher asc")
	files := bsbm.Generate(bsbm.Config{ScaleFactor: 1, Seed: 42}).Files
	for _, mode := range []string{IRVerifyOff, IRVerifySample, IRVerifyAlways} {
		b.Run(mode, func(b *testing.B) {
			opts := DefaultOptions()
			opts.IRVerify = mode
			opts.FileOpener = memFS(files)
			e := New(opts)
			if _, err := e.ExecScript(bsbm.FullDDL, nil); err != nil {
				b.Fatal(err)
			}
			p, err := e.Prepare(q.String())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ExecPrepared(p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package parser

import (
	"testing"

	"graql/internal/bsbm"
)

// FuzzParse: the parser must never panic, and any script it accepts must
// render to source that re-parses to the same rendering (print fixpoint).
// Run with `go test -fuzz=FuzzParse`; the seed corpus runs in normal
// `go test` invocations.
func FuzzParse(f *testing.F) {
	seeds := []string{
		bsbm.FullDDL,
		bsbm.Q1.Script,
		bsbm.Q2.Script,
		bsbm.Q8.Script,
		"select * from graph def X: [ ] --[ ]--> X into subgraph cyc",
		"select * from graph A ( ) ( --e--> [ ] ){2,5} B (x > 1) into subgraph r",
		"explain select top 3 a, count(*) as n from table T group by a order by n desc",
		"output table T1 'x.csv'",
		"output table T 'a''b'",
		"ingest table T raw/path.csv",
		"create edge e with vertices (A as X, A as Y) where X.a = Y.b",
		"select a from table T where not (b = 'it''s' or c >= %P%)",
		"-- [ ] ( ) {,} <-- --> %% '",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		script, err := Parse(src)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		printed := script.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted script fails to re-parse: %v\noriginal: %q\nprinted: %q", err, src, printed)
		}
		if got := again.String(); got != printed {
			t.Fatalf("print not a fixpoint:\nfirst:  %q\nsecond: %q", printed, got)
		}
	})
}

package ir

import (
	"os"
	"path/filepath"
	"testing"

	"graql/internal/bsbm"
	"graql/internal/parser"
)

// corpus gathers real scripts: the whole Berlin setup plus the full query
// suite — every statement kind and path construct the language has —
// and every shipped example and vet script that parses. No serving path
// runs the codec on text requests, so this corpus is what keeps
// Decode(Encode(s)) honest on real scripts.
func corpus(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{
		"berlin-setup": bsbm.FullDDL,
		"regex":        `select * from graph A ( ) ( --e--> [ ] ){2,5} B (x > 1) into subgraph r`,
		"or":           `select a.id from graph def a: A ( ) --e--> B ( ) or def a: A ( ) --f--> C (n = %P%)`,
		"typed-label":  `select * from graph def X: [ ] --[ ]--> X into subgraph cyc`,
		"relational":   `select top 5 distinct id, count(*) as n, avg(p) as ap from table T where p > 1.5 and d >= '2008-01-01' group by id order by n desc, id asc into table Out`,
		"seeded":       `select * from graph res.V (a = 1) <--def f: e (w <> 2)-- foreach y: W ( ) into subgraph r2`,
		"output":       "output table T1 'results.csv'\noutput table T2 raw/path.csv",
		"explain":      `explain select y.id from graph A (x = 1) --e--> def y: B ( ) order by id desc`,
		"insert":       `insert into T(id, label) values (1, 'a'), (%P%, %L% + 1)`,
		"update":       `update T set price = price * 1.1, label = 'sale' where price < 100`,
		"delete":       "delete from T where id = 3\ndelete from T",
		"dml-explain":  `explain analyze update T set price = 0 where id = 1`,
	}
	for _, q := range bsbm.Suite {
		out[q.ID] = q.Script
	}
	files := 0
	for _, glob := range []string{"../../examples/*.graql", "../../testdata/vet/*.graql"} {
		paths, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := parser.Parse(string(src)); err == nil { // the vet corpus seeds parse errors
				out[path] = string(src)
				files++
			}
		}
	}
	if files < 6 {
		t.Fatalf("only %d example/vet scripts found and parsed; the corpus moved?", files)
	}
	return out
}

// TestRoundTrip: Decode(Encode(s)) must reproduce the script exactly
// (compared via the AST's source rendering).
func TestRoundTrip(t *testing.T) {
	for name, src := range corpus(t) {
		script, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		blob, err := Encode(script)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got, want := back.String(), script.String(); got != want {
			t.Errorf("%s: round trip mismatch:\n--- original\n%s\n--- decoded\n%s", name, want, got)
		}
	}
}

// TestCompactness: the binary IR should beat the source text for the big
// setup script (it elides whitespace, keywords and punctuation).
func TestCompactness(t *testing.T) {
	script, err := parser.Parse(bsbm.FullDDL)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Encode(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) >= len(bsbm.FullDDL) {
		t.Errorf("IR (%d bytes) should be smaller than source (%d bytes)", len(blob), len(bsbm.FullDDL))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not ir at all")); err == nil {
		t.Error("bad magic must fail")
	}
	if _, err := Decode([]byte{}); err == nil {
		t.Error("empty input must fail")
	}
	script, _ := parser.Parse(`select a from table T`)
	blob, _ := Encode(script)
	// Wrong version byte.
	bad := append([]byte(nil), blob...)
	bad[4] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("wrong version must fail")
	}
	// Truncations at every prefix must error, never panic.
	for i := 5; i < len(blob); i++ {
		if _, err := Decode(blob[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	// Trailing garbage must be rejected.
	if _, err := Decode(append(append([]byte(nil), blob...), 0x00)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

func TestDecodeBitFlipsNeverPanic(t *testing.T) {
	script, _ := parser.Parse(bsbm.Q1.Script)
	blob, _ := Encode(script)
	for i := 5; i < len(blob); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), blob...)
			mut[i] ^= flip
			// Either an error or a (different) valid script; must not
			// panic.
			_, _ = Decode(mut)
		}
	}
}

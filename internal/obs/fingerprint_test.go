package obs

import (
	"strings"
	"testing"
)

func TestFingerprintNormalization(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"lowercase", "SELECT * FROM TABLE T", "select * from table t"},
		{"whitespace", "select  *\n\tfrom   table t", "select * from table t"},
		{"string literal", "select * from table t where v = 'x'", "select * from table t where v = ?"},
		{"escaped quote", "select * from table t where v = 'it''s'", "select * from table t where v = ?"},
		{"int literal", "select * from table t where id < 100", "select * from table t where id < ?"},
		{"float literal", "select * from table t where p < 2.5", "select * from table t where p < ?"},
		{"exponent", "select * from table t where p < 1.5e10", "select * from table t where p < ?"},
		{"negative literal", "select * from table t where p > -3", "select * from table t where p > ?"},
		{"param", "select * from table t where v = %name%", "select * from table t where v = ?"},
		{"line comment", "select * -- not really, this is graql\nfrom table t // tail\n", "select * -- not really, this is graql from table t"},
		{"slash comment", "select * // gone\nfrom table t", "select * from table t"},
		{"block comment", "select /* literal 100 */ * from table t", "select * from table t"},
		{"arrow survives", "A ( ) --road--> B ( )", "a ( ) --road--> b ( )"},
		{"reverse arrow", "A ( ) <--road-- B ( )", "a ( ) <--road-- b ( )"},
		{"ident digits kept", "select a1 from table t2", "select a1 from table t2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, got := Fingerprint(c.in)
			if got != c.want {
				t.Errorf("Fingerprint(%q) text = %q, want %q", c.in, got, c.want)
			}
		})
	}
}

// Literal variants of the same statement shape must collide; different
// shapes must not.
func TestFingerprintCollision(t *testing.T) {
	a, _ := Fingerprint("select * from table P where price < 100")
	b, _ := Fingerprint("SELECT * FROM TABLE p WHERE price < 2500")
	c, _ := Fingerprint("select * from table P where price < 'x'")
	d, _ := Fingerprint("select * from table P where price > 100")
	if a != b {
		t.Errorf("literal variants should share a fingerprint: %x vs %x", a, b)
	}
	if a != c {
		t.Errorf("string vs numeric literal should share a fingerprint: %x vs %x", a, c)
	}
	if a == d {
		t.Errorf("different operators should not collide: both %x", a)
	}
}

// Fingerprints must be byte-stable across runs and processes: pin a known
// value so an accidental algorithm change fails loudly.
func TestFingerprintStable(t *testing.T) {
	fp, text := Fingerprint("select 1")
	if text != "select ?" {
		t.Fatalf("normalized text = %q", text)
	}
	// FNV-1a 64 of "select ?", computed independently.
	want := fnv1a("select ?")
	if fp != want {
		t.Errorf("Fingerprint = %x, want %x", fp, want)
	}
	if got := FormatFingerprint(fp); len(got) != 16 || strings.ToLower(got) != got {
		t.Errorf("FormatFingerprint = %q, want 16 lowercase hex digits", got)
	}
}

func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func FuzzFingerprint(f *testing.F) {
	f.Add("select * from table T where id = 100")
	f.Add("create vertex City(id) from table Cities")
	f.Add("A (id = 'PDX') --road--> def B: City ( )")
	f.Add("select %p% from table T -- comment\n/* block */ where x < -1.5e3")
	f.Add("'unterminated")
	f.Add("%bad param")
	f.Fuzz(func(t *testing.T, script string) {
		fp1, text1 := Fingerprint(script)
		fp2, text2 := Fingerprint(script)
		if fp1 != fp2 || text1 != text2 {
			t.Fatalf("Fingerprint not deterministic for %q", script)
		}
		// The hash must always match the returned normalized text.
		if fp1 != fnv1a(text1) {
			t.Fatalf("hash %x does not match normalized text %q", fp1, text1)
		}
		// The normalized text never contains the characters normalization
		// removes: upper-case letters, newlines, runs of spaces.
		if strings.ContainsAny(text1, "\n\t\r") {
			t.Fatalf("normalized text contains raw whitespace: %q", text1)
		}
		if strings.Contains(text1, "  ") {
			t.Fatalf("normalized text contains a space run: %q", text1)
		}
		for i := 0; i < len(text1); i++ {
			if text1[i] >= 'A' && text1[i] <= 'Z' {
				t.Fatalf("normalized text contains upper case: %q", text1)
			}
		}
	})
}

var sinkFP uint64

func BenchmarkFingerprint(b *testing.B) {
	const q = `select distinct P.nr, P.label from graph
	    def P: ProductVtx (propertyNum1 < 500) <--type-- ProductTypeVtx (nr = 42)
	    where P.propertyNum2 > 100 into table Result`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fp, _ := Fingerprint(q)
		sinkFP = fp
	}
}

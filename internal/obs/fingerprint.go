package obs

// Statement fingerprinting: the identity layer of the per-statement
// observability stack. A fingerprint identifies a statement *shape* —
// what the statement does, independent of the literal values it does it
// with — so statistics for
// "select ... where price < 100" and "select ... where price < 2500"
// aggregate under one id, like pg_stat_statements.
//
// Normalization is a single byte-level pass (no lexer, no allocation
// beyond the output buffer) so the cost per statement stays well under a
// microsecond:
//
//   - comments ("//" and "/* */") are dropped,
//   - runs of whitespace collapse to one space,
//   - single-quoted string literals, numeric literals and %name%
//     parameter placeholders each become "?",
//   - letters fold to lower case (GraQL identifiers and keywords are
//     case-insensitive).
//
// The id is the 64-bit FNV-1a hash of the normalized text: stable across
// runs and processes, with no seed, so fingerprints can be logged,
// compared and stored durably.

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Byte-class bits for the normalization scanner: one table load replaces
// the three-comparison range tests that otherwise dominate the pass.
const (
	clIdentStart byte = 1 << 0 // letter or '_'
	clIdentCont  byte = 1 << 1 // letter, '_' or digit
	clDigit      byte = 1 << 2
	clSpace      byte = 1 << 3
)

var fpClass = func() (t [256]byte) {
	for c := 0; c < 256; c++ {
		switch {
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
			t[c] = clIdentStart | clIdentCont
		case c >= '0' && c <= '9':
			t[c] = clDigit | clIdentCont
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			t[c] = clSpace
		}
	}
	return
}()

// Fingerprint normalizes a GraQL statement (or script) and returns its
// stable 64-bit shape id together with the normalized text. Two
// statements differing only in literal values, parameter names, comments,
// whitespace or keyword/identifier case share a fingerprint.
func Fingerprint(script string) (uint64, string) {
	// The loop appends to a plain byte slice with the space/last-byte
	// bookkeeping inlined at each emission site — a closure here costs a
	// call per output byte and roughly doubles the pass. Identifier and
	// whitespace runs (the bulk of any script) are handled as runs: one
	// bulk copy plus an in-place lowercase sweep, not per-byte appends.
	// The FNV-1a hash folds into emission rather than running as a second
	// pass: its xor-multiply chain is serial (~4 cycles/byte), so hashing
	// alongside the scan hides the scanner behind the hash latency.
	buf := make([]byte, 0, len(script))
	pendingSpace := false
	h := uint64(fnvOffset64)

	n := len(script)
	for i := 0; i < n; {
		c := script[i]
		switch cl := fpClass[c]; {
		case cl&clIdentStart != 0:
			if pendingSpace && len(buf) > 0 {
				buf = append(buf, ' ')
				h = (h ^ ' ') * fnvPrime64
			}
			pendingSpace = false
			start := i
			for i < n && fpClass[script[i]]&clIdentCont != 0 {
				i++
			}
			off := len(buf)
			buf = append(buf, script[start:i]...)
			for j := off; j < len(buf); j++ {
				b := buf[j]
				if b >= 'A' && b <= 'Z' {
					b += 'a' - 'A'
					buf[j] = b
				}
				h = (h ^ uint64(b)) * fnvPrime64
			}
		case cl&clSpace != 0:
			pendingSpace = true
			for i++; i < n && fpClass[script[i]]&clSpace != 0; i++ {
			}
		case c == '/' && i+1 < n && script[i+1] == '/':
			for i < n && script[i] != '\n' {
				i++
			}
			pendingSpace = true
		case c == '/' && i+1 < n && script[i+1] == '*':
			i += 2
			for i < n && !(script[i] == '*' && i+1 < n && script[i+1] == '/') {
				i++
			}
			if i < n {
				i += 2
			}
			pendingSpace = true
		case c == '\'':
			// String literal; '' is the embedded-quote escape.
			i++
			for i < n {
				if script[i] == '\'' {
					if i+1 < n && script[i+1] == '\'' {
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
			if pendingSpace && len(buf) > 0 {
				buf = append(buf, ' ')
				h = (h ^ ' ') * fnvPrime64
			}
			pendingSpace = false
			buf = append(buf, '?')
			h = (h ^ '?') * fnvPrime64
		case c == '%':
			// %name% parameter placeholder — a literal slot by definition.
			out := byte('%')
			if end := paramEnd(script, i); end > 0 {
				i, out = end, '?'
			} else {
				i++
			}
			if pendingSpace && len(buf) > 0 {
				buf = append(buf, ' ')
				h = (h ^ ' ') * fnvPrime64
			}
			pendingSpace = false
			buf = append(buf, out)
			h = (h ^ uint64(out)) * fnvPrime64
		case cl&clDigit != 0:
			i = numberEnd(script, i)
			if pendingSpace && len(buf) > 0 {
				buf = append(buf, ' ')
				h = (h ^ ' ') * fnvPrime64
			}
			pendingSpace = false
			buf = append(buf, '?')
			h = (h ^ '?') * fnvPrime64
		case c == '-' && i+1 < n && script[i+1] >= '0' && script[i+1] <= '9' && unaryContext(lastByte(buf)):
			// A negative literal, not the '-' of an arrow ("-->") or a
			// subtraction: the sign folds into the '?'.
			i = numberEnd(script, i+1)
			if pendingSpace && len(buf) > 0 {
				buf = append(buf, ' ')
				h = (h ^ ' ') * fnvPrime64
			}
			pendingSpace = false
			buf = append(buf, '?')
			h = (h ^ '?') * fnvPrime64
		default:
			if pendingSpace && len(buf) > 0 {
				buf = append(buf, ' ')
				h = (h ^ ' ') * fnvPrime64
			}
			pendingSpace = false
			buf = append(buf, c)
			h = (h ^ uint64(c)) * fnvPrime64
			i++
		}
	}

	return h, string(buf)
}

// lastByte is the most recent normalized byte (0 before any output) —
// the one-token lookbehind for classifying '-' as sign vs operator.
func lastByte(buf []byte) byte {
	if len(buf) == 0 {
		return 0
	}
	return buf[len(buf)-1]
}

// FormatFingerprint renders a fingerprint in its canonical form: 16
// lower-case hex digits (the form used in logs, JSON and metric labels).
func FormatFingerprint(fp uint64) string {
	const hexdigits = "0123456789abcdef"
	var out [16]byte
	for i := 15; i >= 0; i-- {
		out[i] = hexdigits[fp&0xf]
		fp >>= 4
	}
	return string(out[:])
}

// paramEnd returns the index just past a %name% placeholder starting at
// i, or 0 when the '%' does not open one.
func paramEnd(s string, i int) int {
	j := i + 1
	if j >= len(s) || !isIdentStart(s[j]) {
		return 0
	}
	for j < len(s) && isIdentByte(s[j]) {
		j++
	}
	if j < len(s) && s[j] == '%' {
		return j + 1
	}
	return 0
}

// numberEnd returns the index just past a numeric literal starting at i
// (digits, optional fraction, optional exponent).
func numberEnd(s string, i int) int {
	n := len(s)
	for i < n && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i+1 < n && s[i] == '.' && s[i+1] >= '0' && s[i+1] <= '9' {
		i++
		for i < n && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	}
	if i < n && (s[i] == 'e' || s[i] == 'E') {
		j := i + 1
		if j < n && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if j < n && s[j] >= '0' && s[j] <= '9' {
			for j < n && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			i = j
		}
	}
	return i
}

// unaryContext reports whether a '-' following the given normalized byte
// reads as a sign rather than an operator or arrow: after nothing, an
// opening paren, a comma, a comparison or an arithmetic operator.
func unaryContext(last byte) bool {
	switch last {
	case 0, '(', ',', '=', '<', '>', '+', '*', '/':
		return true
	}
	return false
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentByte(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

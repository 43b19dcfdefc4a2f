package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The TCP wire's one codec. A frame is the JSON encoding of a Request or
// a Response followed by a newline — byte for byte what json.Encoder
// writes — and a session is a sequence of top-level JSON values, framed
// the way json.Decoder frames them. AppendRequest / AppendResponse
// produce frames without reflection; ParseRequest / ParseResponse read
// one in a single pass, leaving every string that holds no escape as a
// substring of one string(frame). The rare nested payloads (Catalog,
// Traces, Statements, Queries, Workers, Diagnostics) are one field each
// and go through encoding/json on their own sub-slice, and any frame
// outside the fast grammar (a null, a repeated or unknown key, a key that
// matches a field only case-insensitively, a fraction for an int field)
// is decoded by json.Unmarshal of the whole frame, so what is accepted
// and what it decodes to are encoding/json's by construction.

// MaxFrameBytes bounds one request on either wire: a TCP frame, or an
// HTTP request body. A longer TCP frame is answered with CodeBadRequest
// and ends the session; a longer HTTP body is refused with 413.
const MaxFrameBytes = 16 << 20

// maxKeptBuffer is the largest per-connection buffer kept for the next
// frame; one grown past it by a large frame is dropped after use.
const maxKeptBuffer = 64 << 10

// ReuseBuffer empties a frame buffer for the next frame, or returns nil
// when a large frame grew it past the size a connection keeps between
// frames.
func ReuseBuffer(buf []byte) []byte {
	if cap(buf) > maxKeptBuffer {
		return nil
	}
	return buf[:0]
}

// ErrFrameTooLarge is FrameReader.Next's error for a frame longer than
// the reader's bound.
var ErrFrameTooLarge = errors.New("frame too large")

// AppendRequest appends req's frame to dst.
func AppendRequest(dst []byte, req *Request) []byte {
	dst = appendString(append(dst, `{"op":`...), req.Op)
	dst = appendField(dst, `,"auth":`, req.Auth)
	dst = appendField(dst, `,"script":`, req.Script)
	dst = appendField(dst, `,"ir":`, req.IR)
	if len(req.Params) > 0 {
		var buf [8]string
		names := buf[:0]
		for name := range req.Params {
			names = append(names, name)
		}
		slices.Sort(names)
		dst = append(dst, `,"params":{`...)
		for i, name := range names {
			if i > 0 {
				dst = append(dst, ',')
			}
			p := req.Params[name]
			dst = appendString(dst, name)
			dst = appendString(append(dst, `:{"type":`...), p.Type)
			dst = appendString(append(dst, `,"value":`...), p.Value)
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}
	dst = appendField(dst, `,"traceId":`, req.Trace)
	if req.TimeoutMs != 0 {
		dst = strconv.AppendInt(append(dst, `,"timeoutMs":`...), int64(req.TimeoutMs), 10)
	}
	if req.QueryID != 0 {
		dst = strconv.AppendUint(append(dst, `,"queryId":`...), req.QueryID, 10)
	}
	dst = appendField(dst, `,"stmt":`, req.Stmt)
	return append(dst, "}\n"...)
}

// AppendResponse appends resp's frame to dst. It fails only when a
// nested payload does not marshal; dst is then returned unchanged.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	n := len(dst)
	dst = strconv.AppendBool(append(dst, `{"ok":`...), resp.OK)
	dst = appendField(dst, `,"error":`, resp.Error)
	dst = appendField(dst, `,"code":`, resp.Code)
	if len(resp.Results) > 0 {
		dst = append(dst, `,"results":[`...)
		for i := range resp.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendResult(dst, &resp.Results[i])
		}
		dst = append(dst, ']')
	}
	dst = appendField(dst, `,"ir":`, resp.IR)
	var err error
	if len(resp.Catalog) > 0 {
		dst, err = appendJSON(dst, `,"catalog":`, resp.Catalog, err)
	}
	dst = appendField(dst, `,"metrics":`, resp.Metrics)
	dst = strconv.AppendInt(append(dst, `,"elapsedUs":`...), resp.ElapsedUs, 10)
	dst = appendField(dst, `,"traceId":`, resp.TraceID)
	dst = appendField(dst, `,"stmt":`, resp.Stmt)
	if len(resp.Traces) > 0 {
		dst, err = appendJSON(dst, `,"traces":`, resp.Traces, err)
	}
	if len(resp.Statements) > 0 {
		dst, err = appendJSON(dst, `,"statements":`, resp.Statements, err)
	}
	if len(resp.Queries) > 0 {
		dst, err = appendJSON(dst, `,"queries":`, resp.Queries, err)
	}
	if len(resp.Workers) > 0 {
		dst, err = appendJSON(dst, `,"workers":`, resp.Workers, err)
	}
	if len(resp.Diagnostics) > 0 {
		dst, err = appendJSON(dst, `,"diagnostics":`, resp.Diagnostics, err)
	}
	if err != nil {
		return dst[:n], err
	}
	return append(dst, "}\n"...), nil
}

// appendResult appends one StmtResult object; every field is omitempty.
func appendResult(dst []byte, r *StmtResult) []byte {
	sep := byte('{')
	key := func(k string) {
		dst = append(append(dst, sep), k...)
		sep = ','
	}
	if r.Message != "" {
		key(`"message":`)
		dst = appendString(dst, r.Message)
	}
	if len(r.Columns) > 0 {
		key(`"columns":`)
		dst = appendStrings(dst, r.Columns)
	}
	if len(r.Rows) > 0 {
		key(`"rows":[`)
		for i, row := range r.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendStrings(dst, row)
		}
		dst = append(dst, ']')
	}
	if r.SubgraphName != "" {
		key(`"subgraphName":`)
		dst = appendString(dst, r.SubgraphName)
	}
	if r.SubgraphVertices != 0 {
		key(`"subgraphVertices":`)
		dst = strconv.AppendInt(dst, int64(r.SubgraphVertices), 10)
	}
	if r.SubgraphEdges != 0 {
		key(`"subgraphEdges":`)
		dst = strconv.AppendInt(dst, int64(r.SubgraphEdges), 10)
	}
	if sep == '{' {
		dst = append(dst, '{')
	}
	return append(dst, '}')
}

// appendJSON appends key and the encoding/json form of one nested
// payload, unless an earlier payload already failed.
func appendJSON(dst []byte, key string, v any, err error) ([]byte, error) {
	if err != nil {
		return dst, err
	}
	b, err := json.Marshal(v)
	return append(append(dst, key...), b...), err
}

// appendField appends an omitempty string field.
func appendField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// htmlSafe marks the ASCII bytes a JSON string carries unescaped when
// HTML escaping is on (json.Encoder's default).
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json
// writes it: short escapes for \b \f \n \r \t, \u00XX for the other
// control bytes and for < > &, U+2028 and U+2029 escaped, and every byte
// of invalid UTF-8 replaced by \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// ParseRequest decodes one frame into *req, which it resets first. It
// accepts, rejects and decodes exactly as json.Unmarshal does.
func ParseRequest(frame []byte, req *Request) error {
	*req = Request{}
	p := wireParser{b: frame, s: string(frame)}
	if p.request(req) && p.end() {
		return nil
	}
	*req = Request{}
	return json.Unmarshal(frame, req)
}

// ParseResponse decodes one frame into *resp, which it resets first. It
// accepts, rejects and decodes exactly as json.Unmarshal does.
func ParseResponse(frame []byte, resp *Response) error {
	*resp = Response{}
	p := wireParser{b: frame, s: string(frame)}
	if p.response(resp) && p.end() {
		return nil
	}
	*resp = Response{}
	return json.Unmarshal(frame, resp)
}

// wireParser is the fast path of ParseRequest and ParseResponse: a
// recursive-descent reader of the frames AppendRequest and
// AppendResponse write (in any key order and spacing). Every method
// reports false for input outside that grammar, which sends the frame to
// json.Unmarshal.
type wireParser struct {
	b []byte // the frame
	s string // string(b), which the strings it returns slice
	i int
}

// ws skips JSON whitespace.
func (p *wireParser) ws() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c, after whitespace, if it comes next.
func (p *wireParser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether nothing but whitespace follows.
func (p *wireParser) end() bool {
	p.ws()
	return p.i == len(p.s)
}

// object reads an object, handing each key to field, which reads its
// value.
func (p *wireParser) object(field func(key string) bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	for {
		k, ok := p.str()
		if !ok || !p.eat(':') || !field(k) {
			return false
		}
		if !p.eat(',') {
			return p.eat('}')
		}
	}
}

// fields reads an object holding a struct's fields. A repeated key fails:
// json.Unmarshal decodes the repeat into what the first occurrence left,
// which only the fallback reproduces. field refuses a key the struct does
// not have, so the list of keys seen stays as short as the struct.
func (p *wireParser) fields(field func(key string) bool) bool {
	var buf [16]string
	seen := buf[:0]
	return p.object(func(k string) bool {
		if slices.Contains(seen, k) {
			return false
		}
		seen = append(seen, k)
		return field(k)
	})
}

// array reads an array, calling elem for each element.
func (p *wireParser) array(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !p.eat(',') {
			return p.eat(']')
		}
	}
}

// str reads a string: a substring of the frame when it holds no escape
// and is valid UTF-8, else its decoded copy.
func (p *wireParser) str() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	start := p.i
	for p.i < len(p.s) && plainASCII[p.s[p.i]] {
		p.i++
	}
	escaped, ascii := false, true
	for p.i < len(p.s) {
		switch c := p.s[p.i]; {
		case c == '"':
			s := p.s[start:p.i]
			p.i++
			if !escaped && (ascii || utf8.ValidString(s)) {
				return s, true
			}
			return unquote(s)
		case c == '\\':
			escaped = true
			p.i++ // the escaped byte cannot end the string; unquote checks it
		case c < ' ':
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
		p.i++
	}
	return "", false
}

// plainASCII marks the bytes a string carries as themselves: printable
// ASCII but the quote and the backslash.
var plainASCII = func() (plain [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		plain[b] = b != '"' && b != '\\'
	}
	return plain
}()

// text, integer, integer64, unsigned and boolean read one value into
// dst. An integer takes the JSON integer form; a fraction or an exponent
// is left to json.Unmarshal, which refuses it for an int field.
func (p *wireParser) text(dst *string) (ok bool) {
	*dst, ok = p.str()
	return ok
}

func (p *wireParser) integer(dst *int) bool {
	n, err := strconv.ParseInt(p.digits(), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (p *wireParser) integer64(dst *int64) (ok bool) {
	var err error
	*dst, err = strconv.ParseInt(p.digits(), 10, 64)
	return err == nil
}

func (p *wireParser) unsigned(dst *uint64) bool {
	var err error
	*dst, err = strconv.ParseUint(p.digits(), 10, 64)
	return err == nil
}

func (p *wireParser) boolean(dst *bool) bool {
	p.ws()
	for _, lit := range [...]string{"true", "false"} {
		if strings.HasPrefix(p.s[p.i:], lit) {
			p.i += len(lit)
			*dst = lit == "true"
			return true
		}
	}
	return false
}

// digits reads -?(0|[1-9][0-9]*), or returns "" (which no strconv
// parse accepts).
func (p *wireParser) digits() string {
	p.ws()
	start := p.i
	if p.i < len(p.s) && p.s[p.i] == '-' {
		p.i++
	}
	first := p.i
	for p.i < len(p.s) && '0' <= p.s[p.i] && p.s[p.i] <= '9' {
		p.i++
	}
	if n := p.i - first; n == 0 || n > 1 && p.s[first] == '0' {
		return ""
	}
	return p.s[start:p.i]
}

// nested decodes one rare payload field with encoding/json on its own
// sub-slice of the frame.
func (p *wireParser) nested(v any) bool {
	p.ws()
	var sc frameScan
	n, done := sc.scan(p.b[p.i:])
	p.i += n
	return done && json.Unmarshal(p.b[p.i-n:p.i], v) == nil
}

func (p *wireParser) request(req *Request) bool {
	return p.fields(func(key string) bool {
		switch key {
		case "op":
			return p.text(&req.Op)
		case "auth":
			return p.text(&req.Auth)
		case "script":
			return p.text(&req.Script)
		case "ir":
			return p.text(&req.IR)
		case "params":
			return p.params(req)
		case "traceId":
			return p.text(&req.Trace)
		case "timeoutMs":
			return p.integer(&req.TimeoutMs)
		case "queryId":
			return p.unsigned(&req.QueryID)
		case "stmt":
			return p.text(&req.Stmt)
		}
		return false
	})
}

// params reads the parameter map; like json.Unmarshal it makes a map
// for an empty object. A repeated name fails, as a repeated field does;
// the map finds it, so a frame of many names stays linear to parse.
func (p *wireParser) params(req *Request) bool {
	req.Params = make(map[string]Param)
	return p.object(func(name string) bool {
		if _, dup := req.Params[name]; dup {
			return false
		}
		var prm Param
		ok := p.fields(func(key string) bool {
			switch key {
			case "type":
				return p.text(&prm.Type)
			case "value":
				return p.text(&prm.Value)
			}
			return false
		})
		req.Params[name] = prm
		return ok
	})
}

func (p *wireParser) response(resp *Response) bool {
	return p.fields(func(key string) bool {
		switch key {
		case "ok":
			return p.boolean(&resp.OK)
		case "error":
			return p.text(&resp.Error)
		case "code":
			return p.text(&resp.Code)
		case "results":
			resp.Results = []StmtResult{}
			return p.array(func() bool {
				resp.Results = append(resp.Results, StmtResult{})
				return p.result(&resp.Results[len(resp.Results)-1])
			})
		case "ir":
			return p.text(&resp.IR)
		case "catalog":
			return p.nested(&resp.Catalog)
		case "metrics":
			return p.text(&resp.Metrics)
		case "elapsedUs":
			return p.integer64(&resp.ElapsedUs)
		case "traceId":
			return p.text(&resp.TraceID)
		case "stmt":
			return p.text(&resp.Stmt)
		case "traces":
			return p.nested(&resp.Traces)
		case "statements":
			return p.nested(&resp.Statements)
		case "queries":
			return p.nested(&resp.Queries)
		case "workers":
			return p.nested(&resp.Workers)
		case "diagnostics":
			return p.nested(&resp.Diagnostics)
		}
		return false
	})
}

// result reads one StmtResult. Its column names and row cells share one
// backing slice, sized once from the quotes in the result's own extent
// (a string takes two), so no append moves what Columns and the rows
// slice, and no result is sized by the ones after it.
func (p *wireParser) result(r *StmtResult) bool {
	p.ws()
	var sc frameScan
	n, done := sc.scan(p.b[p.i:])
	if !done {
		return false
	}
	extent := p.s[p.i : p.i+n]
	var cells []string
	cellArray := func() ([]string, bool) {
		if cells == nil {
			cells = make([]string, 0, strings.Count(extent, `"`)/2)
		}
		start := len(cells)
		ok := p.array(func() bool {
			s, ok := p.str()
			cells = append(cells, s)
			return ok
		})
		return cells[start:len(cells):len(cells)], ok
	}
	return p.fields(func(key string) (ok bool) {
		switch key {
		case "message":
			return p.text(&r.Message)
		case "columns":
			r.Columns, ok = cellArray()
			return ok
		case "rows":
			r.Rows = make([][]string, 0, strings.Count(extent, "["))
			return p.array(func() bool {
				row, ok := cellArray()
				r.Rows = append(r.Rows, row)
				return ok
			})
		case "subgraphName":
			return p.text(&r.SubgraphName)
		case "subgraphVertices":
			return p.integer(&r.SubgraphVertices)
		case "subgraphEdges":
			return p.integer(&r.SubgraphEdges)
		}
		return false
	})
}

// unquote decodes the body of a JSON string holding an escape or invalid
// UTF-8, as encoding/json does: a surrogate pair becomes one rune, a lone
// surrogate and each byte of invalid UTF-8 become U+FFFD. An escape JSON
// does not define, or a control byte, fails.
func unquote(s string) (string, bool) {
	var b strings.Builder
	b.Grow(len(s) + utf8.UTFMax)
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			if i+1 == len(s) {
				return "", false
			}
			switch e := s[i+1]; e {
			case '"', '\\', '/':
				b.WriteByte(e)
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				r := getu4(s[i:])
				if r < 0 {
					return "", false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(s[i:])); dec != utf8.RuneError {
						i += 6
						r = dec
					} else {
						r = utf8.RuneError
					}
				}
				b.WriteRune(r)
				continue
			default:
				return "", false
			}
			i += 2
		case c < ' ':
			return "", false
		case c < utf8.RuneSelf:
			b.WriteByte(c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			b.WriteRune(r)
			i += size
		}
	}
	return b.String(), true
}

// getu4 decodes the \uXXXX at the start of s, or returns -1.
func getu4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	n, err := strconv.ParseUint(s[2:6], 16, 16)
	if err != nil {
		return -1
	}
	return rune(n)
}

// FrameReader reads a session's frames: each call to Next returns the
// next complete top-level JSON value. It finds the end of a value by
// tracking brace depth and string state, never by looking for a newline,
// so frames that share a line or span several are framed exactly as
// json.Decoder frames them; whether a frame is valid JSON is the
// parser's question. A value that never closes waits for more input, up
// to the reader's bound.
type FrameReader struct {
	r    *bufio.Reader
	max  int    // 0: unbounded
	acc  []byte // a frame longer than the buffered window
	skip int    // bytes of the last frame still to discard
}

// NewFrameReader returns a reader of the frames on r that refuses any
// frame longer than max bytes with ErrFrameTooLarge (max 0: no bound).
func NewFrameReader(r io.Reader, max int) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r), max: max}
}

// Next returns the next frame, without the whitespace around it. The
// slice stays valid until the following call. At the end of the input it
// returns io.EOF, or io.ErrUnexpectedEOF inside a frame.
func (f *FrameReader) Next() ([]byte, error) {
	_, _ = f.r.Discard(f.skip)
	f.skip = 0
	f.acc = ReuseBuffer(f.acc)
	var sc frameScan
	for {
		if f.r.Buffered() == 0 {
			if _, err := f.r.Peek(1); err != nil {
				switch {
				case err != io.EOF:
				case sc.scalar:
					return f.acc, nil // a number or literal ends at the end of input
				case sc.started:
					err = io.ErrUnexpectedEOF
				}
				return nil, err
			}
		}
		win, _ := f.r.Peek(f.r.Buffered())
		if !sc.started {
			n := skipSpace(win)
			_, _ = f.r.Discard(n)
			if win = win[n:]; len(win) == 0 {
				continue
			}
		}
		n, done := sc.scan(win)
		if f.max > 0 && len(f.acc)+n > f.max {
			return nil, ErrFrameTooLarge
		}
		if done && len(f.acc) == 0 {
			f.skip = n
			return win[:n], nil
		}
		if len(f.acc)+n > cap(f.acc) {
			// Double: append's gentler growth of large slices would
			// allocate several times the frame on the way up.
			f.acc = append(make([]byte, 0, max(2*cap(f.acc), len(f.acc)+n)), f.acc...)
		}
		f.acc = append(f.acc, win[:n]...)
		_, _ = f.r.Discard(n)
		if done {
			return f.acc, nil
		}
	}
}

// Ready reports whether a further complete frame is already buffered,
// so that Next returns it without reading.
func (f *FrameReader) Ready() bool {
	win, _ := f.r.Peek(f.r.Buffered())
	win = win[f.skip:]
	var sc frameScan
	_, done := sc.scan(win[skipSpace(win):])
	return done
}

func skipSpace(b []byte) int {
	for i, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return i
		}
	}
	return len(b)
}

// frameScan finds where a top-level JSON value ends, across as many
// windows of input as it takes: an object or array at the bracket that
// closes the first one, a string at its closing quote, true, false and
// null after their last letter, a number at the first byte that cannot
// continue it.
type frameScan struct {
	started, scalar bool
	inStr, esc      bool
	depth           int
	rest            int // letters a literal still needs; negative for a number
}

// scan consumes b, which starts the value or continues it, and reports
// how many bytes belong to it and whether it ended within them.
func (sc *frameScan) scan(b []byte) (int, bool) {
	i := 0
	if !sc.started && len(b) > 0 {
		sc.started, i = true, 1
		switch b[0] {
		case '{', '[':
			sc.depth = 1
		case '"':
			sc.inStr = true
		case '}', ']', ',', ':':
			return 1, true // a value cannot start here; one byte is the frame
		case 't', 'n':
			sc.scalar, sc.rest = true, 3
		case 'f':
			sc.scalar, sc.rest = true, 4
		default:
			sc.scalar, sc.rest = true, -1
		}
	}
	for ; i < len(b); i++ {
		c := b[i]
		switch {
		case sc.esc:
			sc.esc = false
		case sc.inStr:
			// Most of a frame is string bytes: pass them in a tight loop.
			for c != '"' && c != '\\' {
				if i++; i == len(b) {
					return i, false
				}
				c = b[i]
			}
			if c == '\\' {
				sc.esc = true
			} else if sc.inStr = false; sc.depth == 0 {
				return i + 1, true
			}
		case sc.scalar:
			switch c {
			case ' ', '\t', '\n', '\r', '{', '}', '[', ']', ',', ':', '"':
				return i, true
			}
			if sc.rest--; sc.rest == 0 {
				return i + 1, true
			}
		default:
			switch c {
			case '"':
				sc.inStr = true
			case '{', '[':
				sc.depth++
			case '}', ']':
				if sc.depth--; sc.depth == 0 {
					return i + 1, true
				}
			}
		}
	}
	return len(b), false
}

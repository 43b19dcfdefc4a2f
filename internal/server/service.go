// Package server implements the GEMS front-end server (paper §III): it
// centralises access to the database, authenticates clients, holds the
// metadata catalog, statically checks incoming GraQL scripts, compiles
// them, and executes them on the backend engine. Every execution op
// runs an exec.Prepared: from the engine's script cache for text
// ("exec"), from decoded IR ("execir") or from the handle registry
// ("execute"). No request runs the IR codec unless it carries IR;
// internal/ir round-trips the example, vet and Berlin corpora instead.
//
// There is one front-end, Service, and it is transport-free: Do takes a
// Request and returns a Response. It owns everything a request needs
// regardless of how it arrived — authentication, the deadline clamp,
// admission control with the queued live-query entry, the trace root
// span, the op table, parameter decoding, error-to-code mapping, result
// encoding and the per-request log line. Two thin wire adapters sit on
// top of it: Server (this package) frames Request/Response as
// newline-delimited JSON over TCP, and web.Handler maps HTTP routes,
// bodies and headers onto the same Request. Clients range "from a simple
// command-line interface to web-based front-ends" (§III);
// cmd/gems-client is the former.
//
// To add an op, add one entry to the ops table in this file (and, if it
// should be reachable over HTTP, one route line in web.New). Neither
// adapter contains engine calls of its own.
package server

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"graql/internal/cluster"
	"graql/internal/diag"
	"graql/internal/exec"
	"graql/internal/ir"
	"graql/internal/obs"
	"graql/internal/parser"
	"graql/internal/value"
)

// Param is a typed query parameter on the wire.
type Param struct {
	Type  string `json:"type"` // integer | float | varchar | date | boolean
	Value string `json:"value"`
}

// Request is one client request: a TCP frame, or an HTTP route + body +
// headers mapped onto the same fields.
type Request struct {
	// Op selects the operation: "exec" (run script), "check" (static
	// analysis only), "compile" (script → IR), "execir" (run IR bytes),
	// "prepare" (compile Script — or IR — into a reusable server-side
	// statement handle; the assigned id comes back in Response.Stmt),
	// "execute" (run the prepared handle named by Stmt, binding Params),
	// "deallocate" (drop the prepared handle named by Stmt),
	// "stats" (catalog snapshot), "metrics" (Prometheus text exposition
	// of the engine's observability registry), "trace" (retained trace
	// trees), "statements" (per-statement-shape statistics), "ps"
	// (in-flight query table), "cancelq" (cancel the in-flight query with
	// id QueryID), "workers" (distributed worker health), "ping".
	Op string `json:"op"`
	// Auth must match the server token when one is configured (HTTP:
	// "Authorization: Bearer <token>").
	Auth   string           `json:"auth,omitempty"`
	Script string           `json:"script,omitempty"`
	IR     string           `json:"ir,omitempty"` // base64
	Params map[string]Param `json:"params,omitempty"`
	// Trace optionally propagates the client's trace context: either a
	// W3C traceparent value ("00-<32 hex>-<16 hex>-01") or a bare 32-hex
	// trace id (HTTP: the traceparent header). When the server retains
	// traces, the request's spans join that trace (under the client's
	// span, if one was given); otherwise a fresh trace id is assigned.
	// Echoed back in Response.TraceID.
	Trace string `json:"traceId,omitempty"`
	// TimeoutMs optionally bounds this request's execution in
	// milliseconds. It overrides the server's default query timeout and
	// is clamped to the server's maximum; zero means "use the default".
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// QueryID targets an in-flight query (op "cancelq").
	QueryID uint64 `json:"queryId,omitempty"`
	// Stmt names a prepared statement handle (ops "execute" and
	// "deallocate"); ids are assigned by "prepare".
	Stmt string `json:"stmt,omitempty"`
}

// StmtResult is one statement's outcome on the wire.
type StmtResult struct {
	Message          string     `json:"message,omitempty"`
	Columns          []string   `json:"columns,omitempty"`
	Rows             [][]string `json:"rows,omitempty"`
	SubgraphName     string     `json:"subgraphName,omitempty"`
	SubgraphVertices int        `json:"subgraphVertices,omitempty"`
	SubgraphEdges    int        `json:"subgraphEdges,omitempty"`
}

// CatalogEntry is one catalog object in a stats response.
type CatalogEntry struct {
	Kind         string  `json:"kind"`
	Name         string  `json:"name"`
	Count        int     `json:"count"`
	AvgOutDegree float64 `json:"avgOutDegree,omitempty"`
	AvgInDegree  float64 `json:"avgInDegree,omitempty"`
}

// Error codes classifying a failed request (Response.Code). The error
// string stays populated for older clients.
const (
	CodeAuth       = "auth"        // authentication failed
	CodeParse      = "parse"       // lexing, parsing or static analysis
	CodeBadRequest = "bad_request" // malformed parameters, IR or op
	CodeExec       = "exec"        // statement execution failed
	CodeCanceled   = "canceled"    // execution aborted by cancellation (e.g. shutdown)
	CodeDeadline   = "deadline"    // execution aborted by the query deadline
	CodeOverloaded = "overloaded"  // rejected by admission control; retry after backoff
	CodePartial    = "partial"     // distributed execution failed on one or more workers
)

// Response is the outcome of one request, identical on both wires.
type Response struct {
	OK bool `json:"ok"`
	// Error is the human-readable failure; Code classifies it (auth |
	// parse | bad_request | exec | canceled | deadline | overloaded |
	// partial) for programmatic handling.
	Error   string         `json:"error,omitempty"`
	Code    string         `json:"code,omitempty"`
	Results []StmtResult   `json:"results,omitempty"`
	IR      string         `json:"ir,omitempty"` // base64, for "compile"
	Catalog []CatalogEntry `json:"catalog,omitempty"`
	// Metrics carries the Prometheus text exposition for op "metrics".
	Metrics string `json:"metrics,omitempty"`
	// ElapsedUs is the server-side handling time of this request in
	// microseconds (stamped on every response).
	ElapsedUs int64 `json:"elapsedUs"`
	// TraceID echoes the request's trace id when the request was traced
	// (HTTP: also the X-Trace-Id header).
	TraceID string `json:"traceId,omitempty"`
	// Stmt is the id assigned to a prepared statement handle (op
	// "prepare"); pass it back as Request.Stmt to execute or deallocate.
	Stmt string `json:"stmt,omitempty"`
	// Traces carries the retained trace trees for op "trace".
	Traces []obs.TraceTree `json:"traces,omitempty"`
	// Statements carries the per-statement-shape statistics for op
	// "statements".
	Statements []obs.StmtStat `json:"statements,omitempty"`
	// Queries carries the in-flight query table for op "ps".
	Queries []obs.QueryInfo `json:"queries,omitempty"`
	// Workers carries the per-worker health of the distributed cluster
	// for op "workers" (empty when the server runs without one).
	Workers []cluster.WorkerStatus `json:"workers,omitempty"`
	// Diagnostics carries every static-analysis finding for op "check":
	// errors and lint warnings, sorted by source position. Present (with
	// OK=false and a summary Error) when the script has errors, and with
	// OK=true when only warnings remain.
	Diagnostics diag.List `json:"diagnostics,omitempty"`
}

func fail(code, format string, args ...any) *Response {
	return &Response{Code: code, Error: fmt.Sprintf(format, args...)}
}

func okMessage(format string, args ...any) *Response {
	return &Response{OK: true, Results: []StmtResult{{Message: fmt.Sprintf(format, args...)}}}
}

// Limits configures per-query deadlines and admission control. The zero
// value imposes no limits.
type Limits struct {
	// DefaultTimeout bounds each request's execution when the client
	// sends no timeoutMs. Zero means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps the effective deadline, clamping client-supplied
	// timeoutMs values (and the default). Zero means no cap.
	MaxTimeout time.Duration
}

// TimeoutFor resolves the effective execution budget for one request:
// the client's timeoutMs when given, otherwise the default, clamped to
// the maximum. Zero means "no deadline".
func (l Limits) TimeoutFor(timeoutMs int) time.Duration {
	d := l.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if l.MaxTimeout > 0 && (d == 0 || d > l.MaxTimeout) {
		d = l.MaxTimeout
	}
	return d
}

// Service is the transport-free GEMS front-end bound to one engine. The
// wire adapters embed it, so its fields configure them directly; share
// one Service between adapters to give them one gate, one set of
// deadlines and one registry of prepared handles. Set the fields before
// serving.
type Service struct {
	eng   *exec.Engine
	token string

	// Limits configures per-query deadlines.
	Limits Limits

	// Gate, when non-nil, admission-controls the execution ops ("exec",
	// "execir", "execute"); overflow requests fail with CodeOverloaded.
	Gate *Gate

	// Prepared is the registry of prepared statement handles. NewService
	// installs a default-capacity registry.
	Prepared *PreparedSet

	// Log, when non-nil, receives one structured line per request
	// (trace_id, op, code, elapsed_us).
	Log *slog.Logger
}

// NewService returns the front-end over the engine. A non-empty token
// enables authentication: every request must carry it.
func NewService(eng *exec.Engine, token string) *Service {
	return &Service{eng: eng, token: token, Prepared: NewPreparedSet(0)}
}

// op is one row of the op table.
type op struct {
	name string // its key in the table
	// run executes the op; root is the request's trace root span (nil
	// when untraced), for the handlers that run statements.
	run func(s *Service, ctx context.Context, req *Request, root *obs.Span) *Response
	// gated ops execute statements: they pass admission control and are
	// visible (and cancelable) in the live query table while queued. The
	// metadata and observability reads are cheap and must stay responsive
	// when the engine is saturated.
	gated bool
	// traced ops produce a trace tree. ping and the observability reads
	// are excluded so polling them does not churn the trace ring.
	traced bool
}

// ops is the one place an operation is defined; both wires dispatch
// through it.
var ops = map[string]op{
	"ping":       {run: func(*Service, context.Context, *Request, *obs.Span) *Response { return &Response{OK: true} }},
	"exec":       {run: (*Service).execScript, gated: true, traced: true},
	"execir":     {run: (*Service).execIR, gated: true, traced: true},
	"execute":    {run: (*Service).execPrepared, gated: true, traced: true},
	"prepare":    {run: (*Service).prepare},
	"deallocate": {run: (*Service).deallocate},
	"check":      {run: (*Service).check, traced: true},
	"compile":    {run: (*Service).compile, traced: true},
	"stats":      {run: (*Service).stats, traced: true},
	"metrics": {run: func(s *Service, _ context.Context, _ *Request, _ *obs.Span) *Response {
		return &Response{OK: true, Metrics: s.eng.Opts.Obs.PrometheusText()}
	}},
	"trace": {run: func(s *Service, _ context.Context, _ *Request, _ *obs.Span) *Response {
		return &Response{OK: true, Traces: s.eng.Opts.Obs.Traces()}
	}},
	"statements": {run: func(s *Service, _ context.Context, _ *Request, _ *obs.Span) *Response {
		return &Response{OK: true, Statements: s.eng.Opts.Obs.Statements()}
	}},
	"ps": {run: func(s *Service, _ context.Context, _ *Request, _ *obs.Span) *Response {
		return &Response{OK: true, Queries: s.eng.Opts.Obs.LiveQueries()}
	}},
	"cancelq": {run: (*Service).cancelQuery},
	"workers": {run: (*Service).workers},
}

func init() {
	for name, o := range ops {
		o.name = name
		ops[name] = o
	}
}

// Do handles one request end to end. ctx carries the transport's
// lifetime (server shutdown, a disconnected HTTP client); the request's
// own deadline is layered on top of it here.
func (s *Service) Do(ctx context.Context, req *Request) *Response {
	start := time.Now()
	resp := s.handle(ctx, req)
	resp.ElapsedUs = time.Since(start).Microseconds()
	s.logRequest(req, resp)
	return resp
}

// logRequest emits the per-request structured line: every line carries
// the shared schema fields (trace_id, op, code, elapsed_us) so log
// streams join against the trace trees in /debug/traces.
func (s *Service) logRequest(req *Request, resp *Response) {
	if s.Log == nil {
		return
	}
	attrs := [...]slog.Attr{
		slog.String("trace_id", resp.TraceID),
		slog.String("op", req.Op),
		slog.String("code", resp.Code),
		slog.Int64("elapsed_us", resp.ElapsedUs),
		slog.String("error", resp.Error),
	}
	if resp.OK {
		s.Log.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs[:4]...)
	} else {
		s.Log.LogAttrs(context.Background(), slog.LevelWarn, "request failed", attrs[:]...)
	}
}

func (s *Service) handle(ctx context.Context, req *Request) *Response {
	if s.token != "" && req.Auth != s.token {
		return fail(CodeAuth, "authentication failed")
	}
	o, ok := ops[req.Op]
	if !ok {
		return fail(CodeBadRequest, "unknown op %q", req.Op)
	}
	if d := s.Limits.TimeoutFor(req.TimeoutMs); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if !o.traced || !s.eng.Opts.Obs.TracingEnabled() {
		return s.admit(ctx, o, req, nil)
	}
	// The root "server" span covers the whole handling; statement and
	// operator spans of execution nest beneath it, and the completed trace
	// enters the registry's ring. A client-supplied traceparent contributes
	// the trace id and the remote parent span id, so the server's tree
	// joins a trace the client originated.
	tid, parent, _ := obs.ParseTraceParent(req.Trace)
	tr := obs.NewTrace(tid)
	// The span outlives the request in the trace ring: label it with the
	// table's string, not one that slices the request frame.
	root := tr.SpanUnder(parent, "server", o.name)
	resp := s.admit(ctx, o, req, root)
	root.End()
	resp.TraceID = tr.ID().String()
	s.eng.Opts.Obs.ObserveTrace(tr)
	return resp
}

// admit runs one op, passing gated ops through admission control first.
// A request that finds a free slot runs at once; one that has to wait is
// visible in the live query table (state "queued") and cancelable by id,
// and its wait rides the context into per-statement accounting.
func (s *Service) admit(ctx context.Context, o op, req *Request, root *obs.Span) *Response {
	if !o.gated {
		return o.run(s, ctx, req, root)
	}
	if s.Gate.TryAcquire() {
		defer s.Gate.Release()
		return o.run(s, ctx, req, root)
	}
	qctx, qcancel := context.WithCancel(ctx)
	defer qcancel()
	label := req.Script
	switch req.Op {
	case "execir":
		label = "(compiled ir)"
	case "execute":
		label = "(unknown prepared statement)"
		if p := s.Prepared.Get(req.Stmt); p != nil {
			label = p.Text()
		}
	}
	fp, text := obs.Fingerprint(label)
	lq := s.eng.Opts.Obs.StartQueuedQuery(fp, text, qcancel)
	waitStart := time.Now()
	err := s.Gate.Acquire(qctx)
	lq.Finish()
	switch {
	case err == nil:
	case errors.Is(err, ErrOverloaded):
		return fail(CodeOverloaded, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		// A deadline that expired while queued reports the same code
		// execution would.
		return fail(CodeDeadline, "query deadline exceeded while queued for admission")
	default:
		return fail(CodeCanceled, "query canceled while queued for admission")
	}
	defer s.Gate.Release()
	return o.run(s, exec.WithQueueWait(qctx, time.Since(waitStart)), req, root)
}

// engine returns the engine a request's statements execute on: the base
// engine, or for a traced request a fork whose statement and operator
// spans nest under the root span. Handlers call it themselves rather
// than receiving the fork, which keeps it on their stack.
func (s *Service) engine(root *obs.Span) *exec.Engine {
	if root == nil {
		return s.eng
	}
	return s.eng.WithTrace(root.Trace(), root)
}

// execScript runs script text through the engine's script cache: a
// repeated read-only text skips the whole front end.
func (s *Service) execScript(ctx context.Context, req *Request, root *obs.Span) *Response {
	params, err := decodeParams(req.Params)
	if err != nil {
		return fail(CodeBadRequest, "%v", err)
	}
	return execResponse(s.engine(root).ExecScriptContext(ctx, req.Script, params))
}

func (s *Service) execIR(ctx context.Context, req *Request, root *obs.Span) *Response {
	params, err := decodeParams(req.Params)
	if err != nil {
		return fail(CodeBadRequest, "%v", err)
	}
	blob, err := base64.StdEncoding.DecodeString(req.IR)
	if err != nil {
		return fail(CodeBadRequest, "bad IR base64: %v", err)
	}
	script, err := s.eng.DecodeIR(blob)
	if err != nil {
		return fail(CodeBadRequest, "%v", err)
	}
	return execResponse(s.engine(root).WithContext(ctx).ExecParsed(script, params))
}

// execPrepared runs a prepared handle, binding the request's parameters.
func (s *Service) execPrepared(ctx context.Context, req *Request, root *obs.Span) *Response {
	p := s.Prepared.Get(req.Stmt)
	if p == nil {
		return fail(CodeBadRequest, "unknown prepared statement %q", req.Stmt)
	}
	params, err := decodeParams(req.Params)
	if err != nil {
		return fail(CodeBadRequest, "%v", err)
	}
	return execResponse(s.engine(root).ExecPreparedContext(ctx, p, params))
}

// execResponse is the one response builder of the three execution ops.
// A failure keeps the results of the statements that ran before it; the
// engine's error already names the failing statement.
func execResponse(results []exec.Result, err error) *Response {
	resp := &Response{OK: err == nil}
	for _, r := range results {
		resp.Results = append(resp.Results, EncodeResult(r))
	}
	if err != nil {
		resp.Code, resp.Error = ErrorCode(err), err.Error()
	}
	return resp
}

// prepare compiles a script (or already-compiled IR) into a server-side
// handle; read-only scripts are analyzed now, so their first execute
// re-plans nothing. The assigned id comes back in Response.Stmt.
func (s *Service) prepare(_ context.Context, req *Request, _ *obs.Span) *Response {
	var p *exec.Prepared
	var err error
	switch {
	case req.Script != "":
		p, err = s.eng.Prepare(req.Script)
	case req.IR != "":
		var blob []byte
		if blob, err = base64.StdEncoding.DecodeString(req.IR); err != nil {
			return fail(CodeBadRequest, "bad IR base64: %v", err)
		}
		p, err = s.eng.PrepareIR(blob)
	default:
		return fail(CodeBadRequest, "prepare requires script or ir")
	}
	switch {
	case errors.Is(err, exec.ErrBadIR):
		return fail(CodeBadRequest, "%v", err)
	case err != nil:
		return fail(CodeParse, "%v", err)
	}
	id := s.Prepared.Add(p)
	resp := okMessage("prepared %d statement(s) as %s", p.NumStmts(), id)
	resp.Stmt = id
	return resp
}

func (s *Service) deallocate(_ context.Context, req *Request, _ *obs.Span) *Response {
	if req.Stmt == "" {
		return fail(CodeBadRequest, "deallocate requires stmt")
	}
	if !s.Prepared.Remove(req.Stmt) {
		return fail(CodeBadRequest, "unknown prepared statement %q", req.Stmt)
	}
	return okMessage("deallocated %s", req.Stmt)
}

// check statically vets a script, returning every diagnostic — errors
// and lint warnings — so clients can render positioned findings. Error
// keeps the summary form for older clients.
func (s *Service) check(_ context.Context, req *Request, _ *obs.Span) *Response {
	if req.Script == "" {
		return fail(CodeParse, "empty script")
	}
	diags := s.eng.VetScript(req.Script)
	if err := diags.Err(); err != nil {
		return &Response{Code: CodeParse, Error: err.Error(), Diagnostics: diags}
	}
	resp := okMessage("script is statically valid")
	resp.Diagnostics = diags
	return resp
}

func (s *Service) compile(_ context.Context, req *Request, _ *obs.Span) *Response {
	script, err := parser.Parse(req.Script)
	if err != nil {
		return fail(CodeParse, "%v", err)
	}
	blob, err := ir.Encode(script)
	if err != nil {
		return fail(CodeExec, "%v", err)
	}
	return &Response{OK: true, IR: base64.StdEncoding.EncodeToString(blob)}
}

func (s *Service) stats(context.Context, *Request, *obs.Span) *Response {
	s.eng.Cat.RLock()
	defer s.eng.Cat.RUnlock()
	resp := &Response{OK: true}
	for _, st := range s.eng.Cat.Stats() {
		resp.Catalog = append(resp.Catalog, CatalogEntry{
			Kind: st.Kind, Name: st.Name, Count: st.Count,
			AvgOutDegree: st.AvgOutDegree, AvgInDegree: st.AvgInDegree,
		})
	}
	return resp
}

func (s *Service) cancelQuery(_ context.Context, req *Request, _ *obs.Span) *Response {
	if req.QueryID == 0 {
		return fail(CodeBadRequest, "cancelq requires queryId")
	}
	if !s.eng.Opts.Obs.CancelQuery(req.QueryID) {
		return fail(CodeBadRequest, "no such query id %d", req.QueryID)
	}
	return okMessage("canceled query %d", req.QueryID)
}

// workers probes the engine's cluster transport when it has worker
// processes; a simulated cluster has none.
func (s *Service) workers(context.Context, *Request, *obs.Span) *Response {
	tp, ok := s.eng.Opts.Dist.(*cluster.TCPTransport)
	if !ok {
		return okMessage("not running distributed")
	}
	return &Response{OK: true, Workers: tp.Probe(2 * time.Second)}
}

// ErrorCode classifies an execution error: a script that did not parse
// is "parse", context aborts map to their structured codes, worker
// failures on the distributed path map to "partial", everything else is
// a plain exec failure.
func ErrorCode(err error) string {
	switch {
	case errors.Is(err, exec.ErrParse):
		return CodeParse
	case errors.Is(err, exec.ErrDeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, exec.ErrCanceled):
		return CodeCanceled
	case errors.Is(err, exec.ErrPartial):
		return CodePartial
	default:
		return CodeExec
	}
}

// EncodeResult converts an engine result to its wire form. The cells of
// a table share one backing slice, which every row slices.
func EncodeResult(r exec.Result) StmtResult {
	out := StmtResult{Message: r.Message}
	switch r.Kind {
	case exec.ResultTable:
		t := r.Table
		out.Columns = t.Schema().Names()
		nr, nc := t.NumRows(), t.NumCols()
		if nr == 0 {
			break
		}
		cells := make([]string, nr*nc)
		out.Rows = make([][]string, nr)
		for row := range out.Rows {
			rec := cells[row*nc : (row+1)*nc : (row+1)*nc]
			for c := range rec {
				if v := t.Value(uint32(row), c); !v.IsNull() {
					rec[c] = v.String()
				}
			}
			out.Rows[row] = rec
		}
	case exec.ResultSubgraph:
		out.SubgraphName = r.Subgraph.Name
		out.SubgraphVertices = r.Subgraph.NumVertices()
		out.SubgraphEdges = r.Subgraph.NumEdges()
	}
	return out
}

func decodeParams(raw map[string]Param) (map[string]value.Value, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(map[string]value.Value, len(raw))
	for name, p := range raw {
		t, err := value.ParseType(p.Type)
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %v", name, err)
		}
		v, err := value.Parse(p.Value, t)
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %v", name, err)
		}
		out[name] = v
	}
	return out, nil
}

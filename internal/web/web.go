// Package web is the HTTP wire adapter over server.Service — the paper's
// second client class: "clients can range from a simple command-line
// interface to web-based front-ends" (§III). It is a codec, not a second
// front-end: each op route maps its body and headers ("Authorization:
// Bearer <token>", "traceparent") onto a server.Request, calls
// Service.Do, and maps the Response back to a status, headers and a JSON
// body. Authentication, deadlines, admission, tracing, execution and the
// request log all happen in the service, exactly as they do for a TCP
// request. To expose an op over HTTP, add one route line in New.
//
// Besides the op routes the handler serves what only HTTP has: the
// liveness/readiness probes, the Prometheus scrape endpoint, pprof, the
// slow-query ring and a minimal self-contained HTML console.
package web

import (
	"encoding/json"
	"errors"
	"html/template"
	"net/http"
	_ "net/http/pprof"
	"strconv"
	"strings"
	"time"

	"graql/internal/cluster"
	"graql/internal/diag"
	"graql/internal/exec"
	"graql/internal/server"
)

// Handler serves the HTTP wire for one service. The embedded Service's
// fields (Limits, Gate, Prepared, Log) configure it; New installs
// a private Service, and a process that also serves TCP replaces it with
// the TCP server's (gems-server does) so both wires share one gate, one
// set of deadlines and one registry of prepared handles. Set before
// serving.
type Handler struct {
	*server.Service
	eng *exec.Engine // for the probes and scrape endpoints, which are not ops
	mux *http.ServeMux
}

// New returns the HTTP handler over a fresh Service for the engine.
//
//	GET  /             the HTML console
//	POST /query        {"script": "...", "params": {"P": {"type": "varchar", "value": "x"}}} (op exec;
//	                   with "check": true, op check)
//	POST /prepare      {"script": "..."} → {"stmt": "s1"} (op prepare)
//	POST /execute      {"stmt": "s1", "params": {...}} → results (op execute)
//	POST /vet          {"script": "..."} → every static-analysis finding with counts (op check)
//	GET  /catalog      the catalog snapshot as a JSON array (op stats)
//	GET  /workers      distributed worker health, actively probed (op workers)
//	GET  /debug/traces retained trace trees, oldest first (op trace)
//	GET  /debug/statements  per-statement-shape statistics (op statements)
//	GET  /debug/queries     in-flight query table (op ps)
//	DELETE /debug/queries/{id}  cancel the in-flight query with that id (op cancelq)
//	GET  /debug/slow   retained slow queries as JSON
//	GET  /debug/pprof/ the standard Go profiling endpoints
//	GET  /metrics      Prometheus text exposition of the engine registry
//	GET  /healthz      liveness probe (200 once serving)
//	GET  /readyz       readiness probe (catalog reachable + worker pool responsive
//	                   + every distributed worker answering, when running distributed)
//
// The op routes answer with the server.Response body the TCP wire sends
// (the GET routes wrap the one field they serve in a small envelope).
// Failures are 200 with the structured code in the body, except: code
// auth → 401, overloaded → 503 + Retry-After, an undecodable body → 400
// and an oversized one → 413 (both code bad_request). When the service
// has a token, everything but the console page, /healthz, /readyz and
// /metrics requires it. Wrong methods are rejected with 405 by the
// route patterns.
func New(eng *exec.Engine) *Handler {
	h := &Handler{Service: server.NewService(eng, ""), eng: eng, mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /{$}", h.console)
	h.mux.HandleFunc("POST /query", h.post("exec"))
	h.mux.HandleFunc("POST /prepare", h.post("prepare"))
	h.mux.HandleFunc("POST /execute", h.post("execute"))
	h.mux.HandleFunc("POST /vet", h.vet)
	h.mux.HandleFunc("GET /catalog", h.get("stats", func(r *server.Response) any { return r.Catalog }))
	h.mux.HandleFunc("GET /workers", h.get("workers", func(r *server.Response) any {
		return map[string]any{"distributed": r.Workers != nil, "workers": orEmpty(r.Workers)}
	}))
	h.mux.HandleFunc("GET /debug/traces", h.get("trace", func(r *server.Response) any {
		reg := h.eng.Opts.Obs
		return map[string]any{"enabled": reg.TracingEnabled(), "total": reg.TraceCount(), "traces": orEmpty(r.Traces)}
	}))
	h.mux.HandleFunc("GET /debug/statements", h.get("statements", func(r *server.Response) any {
		return map[string]any{"evicted": h.eng.Opts.Obs.StatementsEvicted(), "statements": orEmpty(r.Statements)}
	}))
	h.mux.HandleFunc("GET /debug/queries", h.get("ps", func(r *server.Response) any {
		return map[string]any{"queries": orEmpty(r.Queries)}
	}))
	h.mux.HandleFunc("DELETE /debug/queries/{id}", h.cancelQuery)
	h.mux.HandleFunc("GET /debug/slow", h.guard(h.slow))
	// Importing net/http/pprof registers its handlers on the default mux.
	h.mux.HandleFunc("/debug/pprof/", h.guard(http.DefaultServeMux.ServeHTTP))
	h.mux.HandleFunc("GET /metrics", h.metrics)
	h.mux.HandleFunc("GET /healthz", h.healthz)
	h.mux.HandleFunc("GET /readyz", h.readyz)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// call runs one op for an HTTP request. Credentials and trace context
// come from the headers, never the body; the request context ties the
// execution to the connection, so a client that disconnects mid-query
// cancels it.
func (h *Handler) call(r *http.Request, req *server.Request) *server.Response {
	req.Auth, _ = strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	req.Trace = r.Header.Get("traceparent")
	return h.Do(r.Context(), req)
}

// write sends a Response as the body, mapping its code to the status
// and headers HTTP clients and proxies act on.
func write(w http.ResponseWriter, resp *server.Response) {
	status := http.StatusOK
	switch resp.Code {
	case server.CodeAuth:
		status = http.StatusUnauthorized
		w.Header().Set("WWW-Authenticate", "Bearer")
	case server.CodeOverloaded:
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	if resp.TraceID != "" {
		w.Header().Set("X-Trace-Id", resp.TraceID)
	}
	writeResponse(w, status, resp)
}

// writeResponse sends a Response body: the TCP wire's frame.
func writeResponse(w http.ResponseWriter, status int, resp *server.Response) {
	body, err := server.AppendResponse(nil, resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err == nil {
		_, _ = w.Write(body)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// requestBody is the JSON body of the POST routes: the Request fields
// (script, params, stmt, ir, timeoutMs) plus the /query check switch.
type requestBody struct {
	server.Request
	// Check runs static analysis only.
	Check bool `json:"check,omitempty"`
}

// decode reads a JSON body bounded by server.MaxFrameBytes, answering
// 400 (or 413) itself when it cannot.
func decode(w http.ResponseWriter, r *http.Request, body *requestBody) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, server.MaxFrameBytes)).Decode(body)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeResponse(w, status, &server.Response{Code: server.CodeBadRequest, Error: "bad request: " + err.Error()})
	return false
}

// post serves a body-carrying op route.
func (h *Handler) post(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body requestBody
		if !decode(w, r, &body) {
			return
		}
		body.Op = op
		if op == "exec" && body.Check {
			body.Op = "check"
		}
		write(w, h.call(r, &body.Request))
	}
}

// get serves a read-only op route whose body is an envelope around the
// one Response field it reads; a failure is written as the Response.
func (h *Handler) get(op string, envelope func(*server.Response) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		resp := h.call(r, &server.Request{Op: op})
		if !resp.OK {
			write(w, resp)
			return
		}
		writeJSON(w, http.StatusOK, envelope(resp))
	}
}

// guard applies the service's authentication to a route that reads
// process state without being an op.
func (h *Handler) guard(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if resp := h.call(r, &server.Request{Op: "ping"}); !resp.OK {
			write(w, resp)
			return
		}
		next(w, r)
	}
}

// orEmpty keeps a field a JSON array even when empty.
func orEmpty[S ~[]E, E any](s S) S {
	if s == nil {
		return S{}
	}
	return s
}

// vetResponse is the /vet body: every static-analysis finding, sorted
// by source position, plus severity counts. ok means "no errors"
// (warnings alone do not fail a vet).
type vetResponse struct {
	OK          bool      `json:"ok"`
	Errors      int       `json:"errors"`
	Warnings    int       `json:"warnings"`
	Diagnostics diag.List `json:"diagnostics"`
}

// vet runs op check and reports every finding with its stable code and
// line:col position. A failure that is not a finding (authentication,
// an empty script) is written as the Response.
func (h *Handler) vet(w http.ResponseWriter, r *http.Request) {
	var body requestBody
	if !decode(w, r, &body) {
		return
	}
	body.Op = "check"
	resp := h.call(r, &body.Request)
	if !resp.OK && resp.Diagnostics == nil {
		write(w, resp)
		return
	}
	nerr := len(resp.Diagnostics.Errors())
	writeJSON(w, http.StatusOK, vetResponse{
		OK:          resp.OK,
		Errors:      nerr,
		Warnings:    len(resp.Diagnostics) - nerr,
		Diagnostics: orEmpty(resp.Diagnostics),
	})
}

// cancelQuery cooperatively cancels one in-flight query by id: 400 for
// an id that does not parse, 404 for one that names no live query.
func (h *Handler) cancelQuery(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil || id == 0 {
		writeResponse(w, http.StatusBadRequest, &server.Response{Code: server.CodeBadRequest, Error: "bad query id"})
		return
	}
	resp := h.call(r, &server.Request{Op: "cancelq", QueryID: id})
	if resp.Code == server.CodeBadRequest {
		writeResponse(w, http.StatusNotFound, resp)
		return
	}
	write(w, resp)
}

// metrics renders the engine's observability registry in the Prometheus
// text exposition format (version 0.0.4).
func (h *Handler) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.eng.Opts.Obs.WritePrometheus(w)
}

// slow dumps the retained slow-query ring as JSON, newest last.
func (h *Handler) slow(w http.ResponseWriter, _ *http.Request) {
	reg := h.eng.Opts.Obs
	writeJSON(w, http.StatusOK, map[string]any{
		"total":   reg.SlowQueryCount(),
		"queries": reg.SlowQueries(),
	})
}

// healthz is the liveness probe: the process serves HTTP.
func (h *Handler) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// readyz is the readiness probe: the catalog answers a statistics
// snapshot of its current version, the engine's worker pool completes a
// trivial sweep within the probe budget, and — when running distributed —
// every cluster worker answers a ping. A degraded worker set reports 503
// with the failing partitions so orchestrators stop routing to this
// coordinator.
func (h *Handler) readyz(w http.ResponseWriter, _ *http.Request) {
	ready := map[string]any{"ok": true, "catalogObjects": len(h.eng.Cat.Stats())}
	if !h.eng.Ready(2 * time.Second) {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ok": false, "reason": "worker pool unresponsive"})
		return
	}
	if tp, ok := h.eng.Opts.Dist.(*cluster.TCPTransport); ok {
		status := tp.Probe(2 * time.Second)
		var degraded []cluster.WorkerStatus
		for _, ws := range status {
			if !ws.Healthy {
				degraded = append(degraded, ws)
			}
		}
		if len(degraded) > 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"ok": false, "reason": "degraded distributed workers",
				"degradedWorkers": degraded,
			})
			return
		}
		ready["workers"] = len(status)
	}
	writeJSON(w, http.StatusOK, ready)
}

var consoleTmpl = template.Must(template.New("console").Parse(`<!DOCTYPE html>
<html><head><title>GraQL console</title><style>
body{font-family:monospace;margin:2em;max-width:72em}
textarea{width:100%;height:14em;font-family:inherit}
table{border-collapse:collapse;margin-top:1em}
td,th{border:1px solid #999;padding:2px 8px;text-align:left}
.err{color:#b00}
</style></head><body>
<h1>GraQL console</h1>
<p>Enter a GraQL script (create / ingest / select / explain / output).</p>
<textarea id="script">select * from graph [ ] --[ ]--> [ ] into subgraph everything</textarea><br>
<button onclick="run(false)">Run</button>
<button onclick="run(true)">Check only</button>
<div id="out"></div>
<script>
async function run(check) {
  const resp = await fetch('/query', {method:'POST',
    body: JSON.stringify({script: document.getElementById('script').value, check})});
  const data = await resp.json();
  const out = document.getElementById('out');
  out.innerHTML = '';
  if (data.error) {
    out.innerHTML = '<p class="err">' + esc(data.error) + '</p>';
  }
  for (const r of data.results || []) {
    if (r.message) out.innerHTML += '<p>' + esc(r.message) + '</p>';
    if (r.subgraphName) out.innerHTML += '<p>subgraph ' + esc(r.subgraphName) + ': ' +
      r.subgraphVertices + ' vertices, ' + r.subgraphEdges + ' edges</p>';
    if (r.columns) {
      let t = '<table><tr>' + r.columns.map(c => '<th>'+esc(c)+'</th>').join('') + '</tr>';
      for (const row of r.rows || []) {
        t += '<tr>' + row.map(c => '<td>'+esc(c)+'</td>').join('') + '</tr>';
      }
      out.innerHTML += t + '</table>';
    }
  }
}
function esc(s){const d=document.createElement('div');d.innerText=s;return d.innerHTML;}
</script></body></html>`))

func (h *Handler) console(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = consoleTmpl.Execute(w, nil)
}

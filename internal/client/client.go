// Package client is the line client for the GEMS front-end server: it
// speaks the newline-delimited JSON protocol of internal/server over TCP,
// with that package's frame codec (server.AppendRequest,
// server.FrameReader, server.ParseResponse).
//
// The client owns the session's failure handling: dial and per-request
// read deadlines, propagation of the per-query timeout to the server
// (Request.TimeoutMs), and retries with capped exponential backoff plus
// jitter. Network-level failures are retried (with a redial) only for
// idempotent operations; "overloaded" rejections are retried for every
// operation, because admission control rejects before execution starts.
package client

import (
	"errors"
	"math/rand"
	"net"
	"time"

	"graql/internal/cluster"
	"graql/internal/obs"
	"graql/internal/server"
)

// Options configures a session's timeouts and retry policy. The zero
// value means: 5s dial timeout, no request deadline, no retries.
type Options struct {
	// DialTimeout bounds the TCP connect plus the initial ping.
	// Zero means 5 seconds.
	DialTimeout time.Duration
	// RequestTimeout is the default per-request deadline. It is sent to
	// the server as timeoutMs on execution requests (so the server
	// aborts the query) and enforced locally as a read deadline with a
	// small grace period. Zero disables both.
	RequestTimeout time.Duration
	// MaxRetries is how many times a failed request is retried:
	// network failures redial and retry idempotent operations only;
	// "overloaded" rejections retry every operation. Zero disables
	// retries.
	MaxRetries int
	// RetryBackoff is the base delay before the first retry; each
	// subsequent attempt doubles it (capped at 1s) with up to 50%
	// random jitter. Zero means 50ms.
	RetryBackoff time.Duration
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

func (o Options) baseBackoff() time.Duration {
	if o.RetryBackoff <= 0 {
		return 50 * time.Millisecond
	}
	return o.RetryBackoff
}

// readGrace pads the local read deadline past the server-side query
// deadline, so the structured "deadline" response wins the race against
// the client's own timeout.
const readGrace = 2 * time.Second

// maxBackoff caps the exponential retry delay.
const maxBackoff = time.Second

// Client is one authenticated session with a GEMS server.
type Client struct {
	conn  net.Conn
	fr    *server.FrameReader
	buf   []byte // the request frame being sent
	addr  string
	auth  string
	opts  Options
	trace bool
}

// Dial connects to a GEMS server with default options. token may be
// empty when the server runs without authentication.
func Dial(addr, token string) (*Client, error) {
	return DialOptions(addr, token, Options{})
}

// DialOptions connects with explicit timeout and retry configuration.
func DialOptions(addr, token string, opts Options) (*Client, error) {
	c := &Client{addr: addr, auth: token, opts: opts}
	if err := c.redial(); err != nil {
		return nil, err
	}
	if _, err := c.roundTrip(&server.Request{Op: "ping"}); err != nil {
		c.conn.Close()
		return nil, err
	}
	return c, nil
}

// redial (re)establishes the TCP session.
func (c *Client) redial() error {
	if c.conn != nil {
		c.conn.Close()
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.dialTimeout())
	if err != nil {
		return err
	}
	c.conn = conn
	c.fr = server.NewFrameReader(conn, 0)
	return nil
}

// Close terminates the session.
func (c *Client) Close() error { return c.conn.Close() }

// SetRequestTimeout changes the default per-request deadline for
// subsequent requests (see Options.RequestTimeout).
func (c *Client) SetRequestTimeout(d time.Duration) { c.opts.RequestTimeout = d }

// EnableTracing makes every subsequent request originate a trace: the
// client generates a fresh W3C traceparent per request and sends it in
// the request's traceId field, so the server's span tree (when the
// server retains traces) joins a trace the client owns. The assigned
// trace id comes back in Response.TraceID.
func (c *Client) EnableTracing(on bool) { c.trace = on }

// Ping checks server liveness over the session.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&server.Request{Op: "ping"})
	return err
}

// Traces fetches the server's retained trace trees (oldest first; empty
// unless the server was started with trace retention).
func (c *Client) Traces() ([]obs.TraceTree, error) {
	resp, err := c.roundTrip(&server.Request{Op: "trace"})
	if err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// executionOp reports whether an operation runs statements (and so
// should carry the session's default per-query deadline).
func executionOp(op string) bool {
	return op == "exec" || op == "execir" || op == "execute"
}

// idempotentOp reports whether an operation may be blindly re-sent
// after a network failure (it cannot have changed server state).
func idempotentOp(op string) bool {
	switch op {
	case "ping", "stats", "metrics", "trace", "check", "compile", "statements", "ps", "workers":
		return true
	}
	return false
}

// roundTrip sends one request, retrying per the session's policy.
func (c *Client) roundTrip(req *server.Request) (*server.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.once(req)
		if err == nil || attempt >= c.opts.MaxRetries {
			return resp, err
		}
		switch {
		case resp != nil && resp.Code == server.CodeOverloaded:
			// Rejected before execution: safe to retry any op after
			// backing off.
		case resp == nil && idempotentOp(req.Op):
			// Network failure mid-frame: the session framing is gone,
			// re-establish it and re-send.
			if derr := c.redial(); derr != nil {
				return nil, err
			}
		default:
			return resp, err
		}
		time.Sleep(backoff(c.opts.baseBackoff(), attempt))
	}
}

// backoff computes the capped exponential delay with up to 50% jitter.
func backoff(base time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// once performs a single request/response exchange.
func (c *Client) once(req *server.Request) (*server.Response, error) {
	req.Auth = c.auth
	if c.trace && req.Trace == "" && req.Op != "ping" && req.Op != "trace" && req.Op != "metrics" {
		req.Trace = obs.NewTraceParent()
	}
	// Propagate the default deadline to the server on execution ops, so
	// the query is aborted there rather than only abandoned here.
	if req.TimeoutMs == 0 && c.opts.RequestTimeout > 0 && executionOp(req.Op) {
		req.TimeoutMs = int(c.opts.RequestTimeout / time.Millisecond)
	}
	if d := c.readBudget(req); d > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(d))
		defer c.conn.SetDeadline(time.Time{})
	}
	c.buf = server.AppendRequest(c.buf, req)
	_, err := c.conn.Write(c.buf)
	c.buf = server.ReuseBuffer(c.buf)
	if err != nil {
		return nil, err
	}
	frame, err := c.fr.Next()
	if err != nil {
		return nil, err
	}
	var resp server.Response
	if err := server.ParseResponse(frame, &resp); err != nil {
		return nil, err
	}
	if !resp.OK {
		return &resp, errors.New(resp.Error)
	}
	return &resp, nil
}

// readBudget resolves how long once may wait for the response frame:
// the request's server-side deadline plus grace, else the session
// default plus grace, else unbounded.
func (c *Client) readBudget(req *server.Request) time.Duration {
	if req.TimeoutMs > 0 {
		return time.Duration(req.TimeoutMs)*time.Millisecond + readGrace
	}
	if c.opts.RequestTimeout > 0 {
		return c.opts.RequestTimeout + readGrace
	}
	return 0
}

// RoundTrip sends one arbitrary request frame synchronously, applying
// the session's retry policy (for callers assembling raw requests, e.g.
// load generators).
func (c *Client) RoundTrip(req *server.Request) (*server.Response, error) {
	return c.roundTrip(req)
}

// Exec runs a GraQL script with optional typed parameters.
func (c *Client) Exec(script string, params map[string]server.Param) (*server.Response, error) {
	return c.roundTrip(&server.Request{Op: "exec", Script: script, Params: params})
}

// ExecTimeout runs a script with an explicit per-query deadline,
// propagated to the server as timeoutMs (the server clamps it to its
// configured maximum).
func (c *Client) ExecTimeout(script string, params map[string]server.Param, timeout time.Duration) (*server.Response, error) {
	return c.roundTrip(&server.Request{
		Op: "exec", Script: script, Params: params,
		TimeoutMs: int(timeout / time.Millisecond),
	})
}

// Check statically analyses a script on the server.
func (c *Client) Check(script string) (*server.Response, error) {
	return c.roundTrip(&server.Request{Op: "check", Script: script})
}

// Compile asks the front-end to compile a script to binary IR (base64).
func (c *Client) Compile(script string) (string, error) {
	resp, err := c.roundTrip(&server.Request{Op: "compile", Script: script})
	if err != nil {
		return "", err
	}
	return resp.IR, nil
}

// ExecIR executes previously compiled IR.
func (c *Client) ExecIR(irB64 string, params map[string]server.Param) (*server.Response, error) {
	return c.roundTrip(&server.Request{Op: "execir", IR: irB64, Params: params})
}

// Prepare compiles a script into a server-side prepared statement and
// returns its handle id. The server parses and compiles to binary IR
// once; Execute then binds parameters and runs the cached artifact.
func (c *Client) Prepare(script string) (string, error) {
	resp, err := c.roundTrip(&server.Request{Op: "prepare", Script: script})
	if err != nil {
		return "", err
	}
	return resp.Stmt, nil
}

// Execute runs a prepared statement handle with bound parameters.
func (c *Client) Execute(stmt string, params map[string]server.Param) (*server.Response, error) {
	return c.roundTrip(&server.Request{Op: "execute", Stmt: stmt, Params: params})
}

// Deallocate releases a prepared statement handle on the server.
func (c *Client) Deallocate(stmt string) error {
	_, err := c.roundTrip(&server.Request{Op: "deallocate", Stmt: stmt})
	return err
}

// Stats fetches the catalog snapshot.
func (c *Client) Stats() (*server.Response, error) {
	return c.roundTrip(&server.Request{Op: "stats"})
}

// Metrics fetches the server's metrics in Prometheus text format.
func (c *Client) Metrics() (string, error) {
	resp, err := c.roundTrip(&server.Request{Op: "metrics"})
	if err != nil {
		return "", err
	}
	return resp.Metrics, nil
}

// Statements fetches the per-statement-shape statistics, most expensive
// shape first.
func (c *Client) Statements() ([]obs.StmtStat, error) {
	resp, err := c.roundTrip(&server.Request{Op: "statements"})
	if err != nil {
		return nil, err
	}
	return resp.Statements, nil
}

// Workers fetches the distributed cluster's per-worker health (actively
// probed by the server). Empty when the server runs single-process.
func (c *Client) Workers() ([]cluster.WorkerStatus, error) {
	resp, err := c.roundTrip(&server.Request{Op: "workers"})
	if err != nil {
		return nil, err
	}
	return resp.Workers, nil
}

// LiveQueries fetches the server's in-flight query table.
func (c *Client) LiveQueries() ([]obs.QueryInfo, error) {
	resp, err := c.roundTrip(&server.Request{Op: "ps"})
	if err != nil {
		return nil, err
	}
	return resp.Queries, nil
}

// CancelQuery cooperatively cancels the in-flight query with the given
// id (from LiveQueries). The canceled query's own caller receives the
// structured "canceled" code.
func (c *Client) CancelQuery(id uint64) error {
	_, err := c.roundTrip(&server.Request{Op: "cancelq", QueryID: id})
	return err
}

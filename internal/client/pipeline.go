package client

import (
	"bufio"
	"errors"
	"sync"
	"time"

	"graql/internal/server"
)

// Pipelining overlaps request submission with response reading on one
// TCP session: request frames are appended to a buffered writer (many
// frames per syscall) and a background goroutine resolves responses in
// FIFO order, so up to `window` requests are in flight at once. On a
// high-latency link this turns N round trips into roughly one, and even
// on loopback it amortizes the per-frame write syscalls.
//
// The protocol needs no framing changes: internal/server answers
// requests on a session strictly in order, so the k-th response frame
// belongs to the k-th request frame.

// DefaultPipelineWindow bounds in-flight requests when Pipeline is
// given a window <= 0.
const DefaultPipelineWindow = 32

// Pipeline is an in-order asynchronous request stream over one client
// session. Obtain one with Client.Pipeline; submit with Exec / Execute
// / Send, each returning a Future; finish with Close.
//
// While a Pipeline is open the owning Client's synchronous methods must
// not be used — the pipeline owns the session's framing. Submissions
// are safe from multiple goroutines.
type Pipeline struct {
	c  *Client
	bw *bufio.Writer

	window  chan struct{} // in-flight slots
	pending chan *Future  // FIFO, reader resolves in order
	done    chan struct{} // reader exited

	mu     sync.Mutex // serializes submit/flush/close
	closed bool

	// The poison error has its own lock: the reader goroutine must be
	// able to record/check it while a submitter holds mu blocked on a
	// full window (the reader's progress is what frees the slot).
	emu sync.Mutex
	err error // transport poison: session is dead past this point
}

// Future is the pending result of one pipelined request.
type Future struct {
	p    *Pipeline
	ch   chan struct{}
	resp *server.Response
	err  error
}

// Pipeline starts a pipelined request stream with at most window
// requests in flight (window <= 0 uses DefaultPipelineWindow).
func (c *Client) Pipeline(window int) *Pipeline {
	if window <= 0 {
		window = DefaultPipelineWindow
	}
	// Pipelined sessions carry no per-request read deadline: responses
	// stream back asynchronously. Clear any deadline a prior synchronous
	// call left behind.
	_ = c.conn.SetDeadline(time.Time{})
	p := &Pipeline{
		c:       c,
		bw:      bufio.NewWriter(c.conn),
		window:  make(chan struct{}, window),
		pending: make(chan *Future, window),
		done:    make(chan struct{}),
	}
	go p.read()
	return p
}

// Exec submits a script execution, returning immediately.
func (p *Pipeline) Exec(script string, params map[string]server.Param) (*Future, error) {
	return p.Send(&server.Request{Op: "exec", Script: script, Params: params})
}

// Execute submits an execution of a prepared statement handle.
func (p *Pipeline) Execute(stmt string, params map[string]server.Param) (*Future, error) {
	return p.Send(&server.Request{Op: "execute", Stmt: stmt, Params: params})
}

// Send submits an arbitrary request frame. It blocks only when the
// in-flight window is full (after flushing buffered frames, so the
// server can drain the window).
func (p *Pipeline) Send(req *server.Request) (*Future, error) {
	req.Auth = p.c.auth
	if req.TimeoutMs == 0 && p.c.opts.RequestTimeout > 0 && executionOp(req.Op) {
		req.TimeoutMs = int(p.c.opts.RequestTimeout / time.Millisecond)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("graql: pipeline is closed")
	}
	if err := p.poisoned(); err != nil {
		return nil, err
	}
	select {
	case p.window <- struct{}{}:
	default:
		// Window full. The outstanding requests may still be sitting in
		// our write buffer — flush so the server sees them (and can
		// produce the responses that free a slot), then wait.
		if err := p.bw.Flush(); err != nil {
			p.poison(err)
			return nil, err
		}
		p.window <- struct{}{}
	}
	if _, err := p.bw.Write(server.AppendRequest(p.bw.AvailableBuffer(), req)); err != nil {
		p.poison(err)
		<-p.window
		return nil, err
	}
	fut := &Future{p: p, ch: make(chan struct{})}
	p.pending <- fut // capacity == window: never blocks while holding mu
	return fut, nil
}

// Flush pushes all buffered request frames to the server.
func (p *Pipeline) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.poisoned(); err != nil {
		return err
	}
	if err := p.bw.Flush(); err != nil {
		p.poison(err)
		return err
	}
	return nil
}

// Close flushes outstanding requests, waits for every response, and
// returns the first transport error (per-request failures are reported
// by each Future instead). The Client is usable synchronously again
// after Close returns.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return p.poisoned()
	}
	p.closed = true
	if p.poisoned() == nil {
		if err := p.bw.Flush(); err != nil {
			p.poison(err)
		}
	}
	close(p.pending)
	p.mu.Unlock()
	<-p.done
	return p.poisoned()
}

// read resolves responses in FIFO request order. A transport-level
// decode failure poisons the pipeline: the session framing is gone, so
// every later future fails with the same error.
func (p *Pipeline) read() {
	defer close(p.done)
	for fut := range p.pending {
		perr := p.poisoned()
		if perr != nil {
			fut.err = perr
			close(fut.ch)
			<-p.window
			continue
		}
		var resp server.Response
		frame, err := p.c.fr.Next()
		if err == nil {
			err = server.ParseResponse(frame, &resp)
		}
		if err != nil {
			p.poison(err)
			fut.err = err
		} else if !resp.OK {
			fut.resp = &resp
			fut.err = errors.New(resp.Error)
		} else {
			fut.resp = &resp
		}
		close(fut.ch)
		<-p.window
	}
}

func (p *Pipeline) poisoned() error {
	p.emu.Lock()
	defer p.emu.Unlock()
	return p.err
}

func (p *Pipeline) poison(err error) {
	p.emu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.emu.Unlock()
}

// Wait blocks until this request's response arrives (flushing the write
// buffer first, in case the frame is still local) and returns it. Like
// the synchronous methods, a structured failure returns both the
// response and a non-nil error.
func (f *Future) Wait() (*server.Response, error) {
	_ = f.p.Flush()
	<-f.ch
	return f.resp, f.err
}

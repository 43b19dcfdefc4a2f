package server

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"graql/internal/exec"
)

// Server is the TCP wire adapter over a Service: newline-delimited JSON,
// one Request frame in, one Response frame out, in order (wire.go's
// codec; there is no length prefix), plus the connection lifecycle.
// Everything a request does happens in Service.Do; the embedded
// Service's fields (Limits, Gate, Prepared, Log, Dist) configure it. Set
// all fields before Serve.
type Server struct {
	*Service

	// IdleTimeout bounds how long a connection may sit idle between
	// requests; WriteTimeout bounds the write of one response frame.
	// Zero disables the respective deadline.
	IdleTimeout  time.Duration
	WriteTimeout time.Duration

	// baseCtx parents every request context; Shutdown cancels it to
	// abort in-flight queries after the drain window.
	baseCtx   context.Context
	cancelAll context.CancelFunc
	active    atomic.Int64 // requests currently being handled

	mu        sync.Mutex
	closed    bool
	conns     map[net.Conn]bool
	listeners map[net.Listener]bool
}

// New returns a TCP server over a fresh Service for the engine. A
// non-empty token enables authentication: every request must carry it.
func New(eng *exec.Engine, token string) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		Service:   NewService(eng, token),
		conns:     make(map[net.Conn]bool),
		listeners: make(map[net.Listener]bool),
		baseCtx:   ctx, cancelAll: cancel,
	}
}

// Serve accepts connections on ln until Close (or a permanent accept
// error) and serves each connection on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.listeners[ln] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close terminates all active connections and cancels in-flight
// queries immediately. The listener passed to Serve must be closed by
// the caller (Serve then returns nil). For a graceful stop use Shutdown.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancelAll()
}

// Shutdown stops the server gracefully: it closes the listeners (no new
// connections), waits up to drain for in-flight requests to finish,
// cancels whatever is still running (those requests fail with
// CodeCanceled), and finally closes the remaining connections. It
// returns true when everything drained within the window.
func (s *Server) Shutdown(drain time.Duration) bool {
	s.mu.Lock()
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()
	// Queries still running during the drain window show as "draining" in
	// the live query table.
	s.eng.Opts.Obs.MarkDraining()

	drained := s.awaitIdle(drain)
	s.cancelAll()
	if !drained {
		// Give canceled requests a moment to write their error frames
		// before the connections go away.
		s.awaitIdle(time.Second)
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if s.Log != nil {
		s.Log.Info("server shutdown", "drained", drained)
	}
	return drained
}

// awaitIdle polls until no request is being handled or the window
// elapses.
func (s *Server) awaitIdle(window time.Duration) bool {
	deadline := time.Now().Add(window)
	for s.active.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

func (s *Server) serveConn(conn net.Conn) {
	if s.Log != nil {
		s.Log.Debug("connection accepted", "remote", conn.RemoteAddr().String())
	}
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if s.Log != nil {
			s.Log.Debug("connection closed", "remote", conn.RemoteAddr().String())
		}
	}()
	fr := NewFrameReader(conn, MaxFrameBytes)
	var out []byte // responses not yet written
	var held int64 // requests whose responses are in out
	flush := func() (err error) {
		if len(out) > 0 {
			if s.WriteTimeout > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
			}
			_, err = conn.Write(out)
		}
		// A request counts as active until its response is on the wire, so
		// a graceful drain never closes the connection between handling
		// and writing.
		s.active.Add(-held)
		held = 0
		out = ReuseBuffer(out)
		return err
	}
	defer func() { _ = flush() }()
	for {
		if s.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		frame, err := fr.Next()
		var req Request
		if err == nil {
			err = ParseRequest(frame, &req)
		}
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				out, _ = AppendResponse(out, fail(CodeBadRequest, "bad request: frame exceeds %d bytes", MaxFrameBytes))
				// Answer, half-close, and let the rest of the frame drain for
				// a moment: closing with it unread would reset the
				// connection, which can discard the answer at the client.
				if flush() == nil {
					if hc, ok := conn.(interface{ CloseWrite() error }); ok {
						_ = hc.CloseWrite()
					}
					_ = conn.SetReadDeadline(time.Now().Add(time.Second))
					_, _ = io.Copy(io.Discard, conn)
				}
			}
			return // EOF, timeout, broken or oversized frame: drop the session
		}
		s.active.Add(1)
		held++
		if out, err = AppendResponse(out, s.Do(s.baseCtx, &req)); err != nil {
			return
		}
		// Write when no further request is waiting: a synchronous client
		// gets one write per response, a pipelining one batched writes.
		// Write too once the batch fills half the kept buffer, so large
		// responses stream one by one under the write deadline and the
		// buffer of small ones is kept.
		if (!fr.Ready() || len(out) >= maxKeptBuffer/2) && flush() != nil {
			return
		}
	}
}

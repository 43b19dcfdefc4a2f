package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"

	"graql/internal/graph"
	"graql/internal/obs"
)

// Worker serves one partition of the graph over the length-prefixed
// frame protocol (cmd/gems-server -worker runs exactly one of these).
// The worker holds a full local copy of the graph — GEMS partitions the
// *vertex id spaces*, not the storage: ownership (which frontier slice a
// node expands) is what the partition index decides, and the handshake
// fingerprint guarantees every worker expands over the same graph the
// coordinator plans against.
type Worker struct {
	g           *graph.Graph
	part        int
	parts       int
	strategy    Strategy
	fingerprint string
	log         *slog.Logger
	obs         *obs.Registry

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewWorker builds a worker owning partition part of parts over g.
func NewWorker(g *graph.Graph, part, parts int, strategy Strategy) (*Worker, error) {
	if parts < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 partition, got %d", parts)
	}
	if part < 0 || part >= parts {
		return nil, fmt.Errorf("cluster: partition index %d out of range [0,%d)", part, parts)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Worker{
		g:           g,
		part:        part,
		parts:       parts,
		strategy:    strategy,
		fingerprint: fingerprintString(GraphFingerprint(g)),
		ctx:         ctx,
		cancel:      cancel,
		conns:       make(map[net.Conn]struct{}),
	}, nil
}

// SetLogger attaches a structured logger for connection and superstep
// debug lines. nil (the default) disables logging.
func (w *Worker) SetLogger(l *slog.Logger) { w.log = l }

// SetObs attaches an observability registry; the worker then counts
// served supersteps and wire traffic under graql_worker_* metrics.
func (w *Worker) SetObs(reg *obs.Registry) { w.obs = reg }

// Part returns the partition index this worker owns.
func (w *Worker) Part() int { return w.part }

// Serve accepts coordinator connections on ln until Close. Each
// connection is served by its own goroutine; frames within a connection
// are processed strictly in order (the protocol is request/response).
func (w *Worker) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		go w.handle(conn)
	}
}

// Close stops the worker: in-flight expansions drain, and every open
// connection is torn down.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	w.cancel()
	for _, c := range conns {
		c.Close()
	}
}

func (w *Worker) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	if w.log != nil {
		w.log.Debug("worker connection open", "part", w.part, "remote", conn.RemoteAddr().String())
	}
	// Both buffers live as long as the connection: a request is answered
	// before the next one is read into the same storage.
	r := bufio.NewReader(conn)
	var in, out []byte
	for {
		var err error
		if in, err = readFrame(r, in); err != nil {
			if w.log != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				w.log.Debug("worker connection closed", "part", w.part, "err", err.Error())
			}
			return
		}
		dst, err := w.dispatch(in)
		out = appendResp(out, dst, err)
		if _, err := conn.Write(out); err != nil {
			return
		}
		if w.obs != nil {
			w.obs.Counter("graql_worker_frames_total", "frames served by this worker").Inc()
			w.obs.Counter("graql_worker_bytes_in_total", "frame bytes received by this worker").Add(int64(4 + len(in)))
			w.obs.Counter("graql_worker_bytes_out_total", "frame bytes sent by this worker").Add(int64(len(out)))
		}
	}
}

// dispatch parses one request body and answers it: a step's buckets, or
// the error that refuses the request.
func (w *Worker) dispatch(payload []byte) ([][]uint32, error) {
	req, err := parseReq(payload)
	if err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	switch req.Op {
	case opHello:
		return nil, w.hello(req)
	case opStep:
		return w.step(req)
	}
	return nil, nil // ping
}

// hello verifies the coordinator and worker agree on partition layout,
// placement, and graph content before any superstep runs.
func (w *Worker) hello(req *workerReq) error {
	switch {
	case req.Part != w.part:
		return fmt.Errorf("worker owns partition %d, coordinator expects %d", w.part, req.Part)
	case req.Parts != w.parts:
		return fmt.Errorf("worker configured for %d partitions, coordinator has %d", w.parts, req.Parts)
	case req.Strategy != w.strategy.String():
		return fmt.Errorf("worker placement is %s, coordinator uses %s", w.strategy, req.Strategy)
	case req.Fingerprint != w.fingerprint:
		return fmt.Errorf("graph fingerprint mismatch: worker %s, coordinator %s (different datasets)", w.fingerprint, req.Fingerprint)
	}
	if w.log != nil {
		w.log.Info("worker handshake ok", "part", w.part, "parts", w.parts,
			"strategy", w.strategy.String(), "fingerprint", w.fingerprint)
	}
	return nil
}

// step runs one superstep over this worker's owned slice of the frontier.
// The step's sizes are checked against the worker's own edge type before
// the frontier they size is decoded.
func (w *Worker) step(req *workerReq) ([][]uint32, error) {
	sreq := &SuperstepReq{
		Graph:   w.g,
		Edge:    req.Edge,
		Forward: req.Forward,
		Pass:    req.Pass,
		Round:   req.Round,
		InSize:  req.InSize,
		OutSize: req.OutSize,
		TraceID: req.TraceID,
	}
	et, err := stepEdge(sreq)
	if err != nil {
		return nil, err
	}
	if sreq.Frontier, err = frontier(req); err != nil {
		return nil, err
	}
	bufs := expandOwned(w.ctx, et, w.part, w.parts, w.strategy, sreq)
	sent := 0
	for d, buf := range bufs {
		if d != w.part {
			sent += len(buf)
		}
	}
	if w.obs != nil {
		w.obs.Counter("graql_worker_steps_total", "supersteps served by this worker").Inc()
		w.obs.Counter("graql_worker_vertices_sent_total", "vertex ids this worker sent to remote partitions").Add(int64(sent))
	}
	if w.log != nil {
		w.log.Debug("worker superstep",
			"part", w.part, "pass", req.Pass, "round", req.Round, "edge", req.Edge,
			"trace_id", req.TraceID, "sent", sent)
	}
	return bufs, nil
}

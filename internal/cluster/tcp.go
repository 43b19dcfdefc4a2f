package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"graql/internal/obs"
)

// DialOptions configures a TCPTransport.
type DialOptions struct {
	// Strategy is the placement strategy the coordinator plans with;
	// every worker must agree (verified in the handshake).
	Strategy Strategy
	// Fingerprint is the coordinator graph's fingerprint
	// (GraphFingerprint); every worker must hold an identical graph.
	Fingerprint uint64
	// Timeout bounds each per-worker superstep RPC (default 5s). A
	// worker that misses the deadline is retried, then reported failed.
	Timeout time.Duration
	// Retries is how many times a failed superstep RPC is re-attempted
	// against the same worker after redialing (default 1; supersteps are
	// pure functions of the frame, so retry is always safe).
	Retries int
	// DialWindow bounds the initial connect+handshake per worker
	// (default 10s), absorbing worker-process boot races in CI.
	DialWindow time.Duration
	// Obs, when set, receives graql_dist_* metrics.
	Obs *obs.Registry
	// Log, when set, receives connection lifecycle and failure lines.
	Log *slog.Logger
}

// WorkerStatus reports one worker's last-known health.
type WorkerStatus struct {
	Part    int    `json:"part"`
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	Err     string `json:"err,omitempty"`
}

// TCPTransport scatters supersteps to worker processes over sockets —
// the networked realization of the Transport seam. One connection per
// worker, strict request/response framing, per-superstep deadlines with
// capped retry, and a cached health view for /readyz.
type TCPTransport struct {
	addrs    []string
	strategy Strategy
	fp       string
	timeout  time.Duration
	retries  int
	obs      *obs.Registry
	log      *slog.Logger

	mu     sync.Mutex
	conns  []*workerLink
	health []WorkerStatus
	closed bool
}

// workerLink is one coordinator→worker connection. Its mutex serializes
// RPCs: within a connection the protocol is strictly request/response,
// and concurrent supersteps from parallel queries must not interleave
// frames.
type workerLink struct {
	addr string
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	in   []byte // the last answer's body, storage reused by the next
}

// DialTCP connects to one worker per address (address index = partition
// index), performs the hello handshake with each, and returns a ready
// transport. Dialing retries inside DialWindow so workers still booting
// are absorbed; a handshake *mismatch* (wrong partition, strategy, or
// graph fingerprint) fails immediately — that is a configuration error,
// not a race.
func DialTCP(addrs []string, opts DialOptions) (*TCPTransport, error) {
	if len(addrs) < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 worker address")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.DialWindow <= 0 {
		opts.DialWindow = 10 * time.Second
	}
	t := &TCPTransport{
		addrs:    append([]string(nil), addrs...),
		strategy: opts.Strategy,
		fp:       fingerprintString(opts.Fingerprint),
		timeout:  opts.Timeout,
		retries:  opts.Retries,
		obs:      opts.Obs,
		log:      opts.Log,
		conns:    make([]*workerLink, len(addrs)),
		health:   make([]WorkerStatus, len(addrs)),
	}
	for p, addr := range addrs {
		t.conns[p] = &workerLink{addr: addr}
		t.health[p] = WorkerStatus{Part: p, Addr: addr, Healthy: true}
	}
	var firstErr error
	for p := range t.conns {
		if err := t.connect(p, opts.DialWindow); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("worker p%d (%s): %w", p, addrs[p], err)
			}
		}
	}
	if firstErr != nil {
		t.Close()
		return nil, firstErr
	}
	t.setHealthyGauge()
	if t.log != nil {
		t.log.Info("distributed transport ready", "workers", len(addrs),
			"strategy", t.strategy.String(), "fingerprint", t.fp)
	}
	return t, nil
}

// connect dials worker p and runs the handshake, retrying connection
// refusals inside window. The caller holds no locks.
func (t *TCPTransport) connect(p int, window time.Duration) error {
	link := t.conns[p]
	deadline := time.Now().Add(window)
	for {
		conn, err := net.DialTimeout("tcp", link.addr, time.Until(deadline))
		if err == nil {
			err = t.handshake(conn, p)
			if err == nil {
				link.mu.Lock()
				link.conn = conn
				link.r = bufio.NewReader(conn)
				link.mu.Unlock()
				return nil
			}
			conn.Close()
			// A completed-but-mismatched handshake is terminal.
			if errors.As(err, new(refusal)) {
				return err
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dial window exhausted: %w", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (t *TCPTransport) handshake(conn net.Conn, p int) error {
	conn.SetDeadline(time.Now().Add(t.timeout))
	defer conn.SetDeadline(time.Time{})
	frame, err := encodeReq(&workerReq{
		Op:          opHello,
		Part:        p,
		Parts:       len(t.addrs),
		Strategy:    t.strategy.String(),
		Fingerprint: t.fp,
	})
	if err == nil {
		_, err = conn.Write(frame)
	}
	if err != nil {
		return err
	}
	answer, err := readFrame(conn, nil)
	if err != nil {
		return err
	}
	if _, err := parseResp(answer); err != nil {
		return fmt.Errorf("handshake rejected: %w", err)
	}
	return nil
}

// Parts returns the number of workers.
func (t *TCPTransport) Parts() int { return len(t.addrs) }

// Strategy returns the placement strategy.
func (t *TCPTransport) Strategy() Strategy { return t.strategy }

// Addrs returns the worker addresses in partition order.
func (t *TCPTransport) Addrs() []string { return append([]string(nil), t.addrs...) }

// Superstep scatters the round to every worker concurrently and gathers
// their partition results. Workers that fail (after the per-RPC deadline
// and capped retry) are reported together in one *PartialError; a dead
// context preempts that and surfaces as the context's error so
// cancellation keeps its own code.
func (t *TCPTransport) Superstep(ctx context.Context, req *SuperstepReq) ([]PartResult, error) {
	// One frame serves every worker: the frontier is encoded once.
	frame, err := encodeReq(&workerReq{
		Op:       opStep,
		Edge:     req.Edge,
		Forward:  req.Forward,
		Pass:     req.Pass,
		Round:    req.Round,
		TraceID:  req.TraceID,
		InSize:   req.InSize,
		OutSize:  req.OutSize,
		Frontier: wordBytes(req.Frontier.Words()),
	})
	if err != nil {
		return nil, err
	}
	results := make([]PartResult, len(t.addrs))
	errs := make([]error, len(t.addrs))
	var wg sync.WaitGroup
	for p := range t.addrs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], errs[p] = t.rpcStep(ctx, p, frame)
		}(p)
	}
	wg.Wait()
	if t.obs != nil {
		t.obs.Counter("graql_dist_supersteps_total", "distributed supersteps scattered to workers").Inc()
	}
	var failures []WorkerFailure
	for p, err := range errs {
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("cluster: traversal aborted: %w", ctx.Err())
			}
			failures = append(failures, WorkerFailure{Part: p, Addr: t.addrs[p], Err: err.Error()})
		}
	}
	t.setHealthyGauge()
	if len(failures) > 0 {
		sort.Slice(failures, func(i, j int) bool { return failures[i].Part < failures[j].Part })
		return nil, &PartialError{Failures: failures}
	}
	return results, nil
}

// rpcStep runs one worker's share of a superstep: frame out, frame back,
// under a deadline, with capped redial-and-retry. Supersteps are pure
// functions of the request frame, so retrying after any failure is safe.
func (t *TCPTransport) rpcStep(ctx context.Context, p int, frame []byte) (PartResult, error) {
	var lastErr error
	retries := 0
	for attempt := 0; attempt <= t.retries; attempt++ {
		if ctx.Err() != nil {
			return PartResult{}, ctx.Err()
		}
		if attempt > 0 {
			retries++
			if t.obs != nil {
				t.obs.Counter("graql_dist_retries_total", "superstep RPC retries after worker failure").Inc()
			}
			if err := t.redial(p); err != nil {
				lastErr = err
				continue
			}
		}
		start := time.Now()
		dst, wire, err := t.roundTrip(ctx, p, frame)
		elapsed := time.Since(start)
		if t.obs != nil {
			t.obs.HistogramL("graql_dist_rpc_latency_seconds", "per-worker superstep RPC latency",
				obs.LatencyBuckets(), map[string]string{"worker": fmt.Sprintf("p%d", p)}).Observe(elapsed.Seconds())
		}
		if err == nil {
			if t.obs != nil {
				t.obs.Counter("graql_dist_exchange_bytes_total", "frame bytes exchanged with workers").Add(wire)
			}
			t.setHealth(p, true, "")
			return PartResult{
				Part: p, Dst: dst,
				RPCMicros: elapsed.Microseconds(), WireBytes: wire,
				Retries: retries, Addr: t.addrs[p],
			}, nil
		}
		lastErr = err
		if t.log != nil {
			t.log.Warn("worker superstep RPC failed", "worker", p, "addr", t.addrs[p],
				"attempt", attempt+1, "err", err.Error())
		}
	}
	if t.obs != nil {
		t.obs.CounterL("graql_dist_worker_failures_total", "superstep RPCs abandoned after retries, by worker",
			map[string]string{"worker": fmt.Sprintf("p%d", p)}).Inc()
	}
	t.setHealth(p, false, lastErr.Error())
	return PartResult{}, fmt.Errorf("superstep RPC failed after %d attempt(s): %w", t.retries+1, lastErr)
}

// roundTrip sends one whole frame on worker p's connection and parses
// the answer, under the per-RPC deadline or ctx's if sooner, reporting
// total wire bytes.
func (t *TCPTransport) roundTrip(ctx context.Context, p int, frame []byte) ([][]uint32, int64, error) {
	link := t.conns[p]
	link.mu.Lock()
	defer link.mu.Unlock()
	if link.conn == nil {
		return nil, 0, fmt.Errorf("no connection")
	}
	conn := link.conn
	deadline := time.Now().Add(t.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	// A cancelled context snaps the deadline to now so a blocked read
	// returns immediately instead of running out the full timeout.
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Now())
	})
	defer stop()
	if _, err := conn.Write(frame); err != nil {
		link.teardown()
		return nil, 0, err
	}
	answer, err := readFrame(link.r, link.in)
	conn.SetDeadline(time.Time{})
	if err != nil {
		link.teardown()
		return nil, 0, err
	}
	link.in = answer
	dst, err := parseResp(answer)
	return dst, int64(len(frame) + 4 + len(answer)), err
}

// teardown drops a failed connection (caller holds link.mu).
func (l *workerLink) teardown() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
		l.r = nil
	}
}

// redial re-establishes worker p's connection and re-runs the handshake.
func (t *TCPTransport) redial(p int) error {
	link := t.conns[p]
	link.mu.Lock()
	defer link.mu.Unlock()
	link.teardown()
	conn, err := net.DialTimeout("tcp", link.addr, t.timeout)
	if err != nil {
		return err
	}
	if err := t.handshake(conn, p); err != nil {
		conn.Close()
		return err
	}
	link.conn = conn
	link.r = bufio.NewReader(conn)
	return nil
}

// setHealth updates worker p's cached status.
func (t *TCPTransport) setHealth(p int, healthy bool, errMsg string) {
	t.mu.Lock()
	t.health[p].Healthy = healthy
	t.health[p].Err = errMsg
	t.mu.Unlock()
}

// setHealthyGauge publishes the current healthy-worker count.
func (t *TCPTransport) setHealthyGauge() {
	if t.obs == nil {
		return
	}
	n := 0
	t.mu.Lock()
	for _, h := range t.health {
		if h.Healthy {
			n++
		}
	}
	t.mu.Unlock()
	t.obs.Gauge("graql_dist_workers_healthy", "workers currently considered healthy").Set(int64(n))
}

// Health returns the cached per-worker status (updated by superstep
// RPCs and Probe).
func (t *TCPTransport) Health() []WorkerStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]WorkerStatus(nil), t.health...)
}

// Probe actively pings every worker within timeout, updates the cached
// health view, and returns it. Used by /readyz so a crashed worker shows
// up without waiting for a query to fail.
func (t *TCPTransport) Probe(timeout time.Duration) []WorkerStatus {
	if timeout <= 0 {
		timeout = time.Second
	}
	var wg sync.WaitGroup
	for p := range t.conns {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			err := t.ping(p, timeout)
			if err != nil {
				// One reconnect attempt: a worker that restarted is
				// healthy again even though its old connection died.
				if rerr := t.redial(p); rerr == nil {
					err = t.ping(p, timeout)
				}
			}
			if err != nil {
				t.setHealth(p, false, err.Error())
			} else {
				t.setHealth(p, true, "")
			}
		}(p)
	}
	wg.Wait()
	t.setHealthyGauge()
	return t.Health()
}

// pingFrame is the whole ping request frame.
var pingFrame = []byte{0, 0, 0, 1, opPing}

// ping runs one ping RPC on worker p's connection.
func (t *TCPTransport) ping(p int, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	_, _, err := t.roundTrip(ctx, p, pingFrame)
	return err
}

// Close tears down every worker connection.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()
	for _, link := range t.conns {
		link.mu.Lock()
		link.teardown()
		link.mu.Unlock()
	}
}

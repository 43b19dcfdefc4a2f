// Command gems-server runs the GEMS front-end server (paper §III): it
// owns the catalog and the in-memory database, statically checks incoming
// GraQL, compiles it to the binary IR, and executes it on the parallel
// backend. Clients connect with cmd/gems-client.
//
// Usage:
//
//	gems-server -addr :7687 [-token secret] [-data dir] [-berlin 1]
//	gems-server -store dir [-fsync=false] ...
//	gems-server -worker -partition 0 -partitions 3 -berlin 1 -addr :7700
//	gems-server -dist :7700,:7701,:7702 -berlin 1 ...
//
// With -berlin N the server preloads a generated Berlin dataset at scale
// factor N, ready for the query suite. With -store the database is
// durable: state is recovered from the directory's snapshot +
// write-ahead log before listening, every committed mutation is logged
// (fsynced per -fsync), and graceful shutdown writes a checkpoint.
//
// With -worker the process is one shard of a distributed cluster: it
// owns partition -partition of -partitions and serves BSP supersteps on
// -addr over the cluster's length-prefixed frame protocol. With -dist the server
// is the cluster's coordinator: it scatters the supersteps of path
// queries (every expansion across a concrete edge type with no edge
// condition) to the listed worker processes (address order = partition
// order) instead of simulating -partitions in-process; a worker that
// fails a superstep after -dist-timeout and -dist-retries yields the
// structured "partial" error code.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graql/internal/bsbm"
	"graql/internal/cluster"
	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/server"
	"graql/internal/storage"
	"graql/internal/web"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7687", "listen address")
		httpAddr     = flag.String("http", "", "also serve the web console on this address (e.g. 127.0.0.1:8087)")
		token        = flag.String("token", "", "require this auth token from clients")
		dataDir      = flag.String("data", ".", "base directory for ingest file paths")
		storeDir     = flag.String("store", "", "durable store directory: recover on start, write-ahead-log every mutation")
		fsync        = flag.Bool("fsync", true, "fsync the write-ahead log on every commit (with -store)")
		berlin       = flag.Int("berlin", 0, "preload a generated Berlin dataset at this scale factor")
		workers      = flag.Int("workers", 0, "parallelism degree (0 = GOMAXPROCS)")
		metrics      = flag.Bool("metrics", true, "enable the metrics registry (the \"metrics\" op and GET /metrics)")
		slowQuery    = flag.Duration("slow-query", 0, "log statements slower than this (e.g. 250ms; 0 disables)")
		queryLog     = flag.Bool("query-log", false, "emit one structured wide-event log line per completed statement")
		traces       = flag.Int("traces", 64, "retain this many complete request traces (0 disables tracing)")
		partitions   = flag.Int("partitions", 0, "simulate a GEMS cluster with this many partitions for path-query expansions (0-1 = off); with -worker, the cluster's total partition count")
		placement    = flag.String("placement", "hash", "cluster placement strategy: hash | block")
		workerMode   = flag.Bool("worker", false, "run as a distributed worker shard: own one partition, serve supersteps on -addr over the framed protocol")
		partition    = flag.Int("partition", 0, "partition index this worker owns (with -worker; 0-based, < -partitions)")
		distWorkers  = flag.String("dist", "", "comma-separated worker addresses: scatter path-query supersteps to these worker processes (address order = partition order)")
		distTimeout  = flag.Duration("dist-timeout", 5*time.Second, "per-superstep per-worker RPC deadline (with -dist)")
		distRetries  = flag.Int("dist-retries", 1, "retries per failed superstep RPC before reporting the worker failed (with -dist)")
		logLevel     = flag.String("log-level", "info", "structured log level: off | error | warn | info | debug")
		logFormat    = flag.String("log-format", "json", "structured log format: json | text")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "drop TCP sessions idle longer than this (0 = no limit)")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-response TCP write deadline (0 = no limit)")
		queryTimeout = flag.Duration("default-timeout", 0, "default per-query execution deadline when the client sends no timeoutMs (0 = none)")
		maxTimeout   = flag.Duration("max-timeout", 5*time.Minute, "cap on the per-query deadline; client timeoutMs values are clamped to it (0 = no cap)")
		planCache    = flag.Int("plan-cache", 0, "script cache capacity in compiled read-only scripts (0 = default 256, negative disables all plan reuse)")
		irVerify     = flag.String("ir-verify", exec.IRVerifySample, "IR/plan verifier mode: always | sample | off (serving default samples every 64th)")
		maxInFlight  = flag.Int("max-inflight", 0, "admission control: max queries executing concurrently (0 = unlimited)")
		maxQueue     = flag.Int("max-queue", 16, "admission control: queries waiting for a slot beyond -max-inflight before rejection")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown window for in-flight queries on SIGINT/SIGTERM")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gems-server:", err)
		os.Exit(1)
	}

	opts := exec.DefaultOptions()
	opts.BaseDir = *dataDir
	opts.Workers = *workers
	simStrategy, _ := cluster.ParseStrategy(*placement) // hash unless "block"; -dist replaces it below
	opts.Dist = cluster.Simulated(*partitions, simStrategy)
	opts.PlanCache = *planCache
	opts.IRVerify = *irVerify
	opts.Log = logger
	if *metrics || *slowQuery > 0 || *traces > 0 || *queryLog {
		opts.Obs = obs.New()
		opts.Obs.SetSlowQueryThreshold(*slowQuery)
		if *slowQuery > 0 {
			opts.Obs.SetSlowQueryWriter(os.Stderr)
		}
		if *queryLog {
			opts.Obs.SetQueryLogWriter(os.Stderr)
		}
		opts.Obs.EnableTracing(*traces)
	}
	eng := exec.New(opts)

	var store *storage.Store
	if *storeDir != "" {
		st, err := storage.Open(*storeDir, *fsync, opts.Obs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gems-server:", err)
			os.Exit(1)
		}
		if err := eng.AttachStore(st); err != nil {
			fmt.Fprintln(os.Stderr, "gems-server: recovery:", err)
			os.Exit(1)
		}
		store = st
		eng.Cat.RLock()
		recovered := len(eng.Cat.Tables())
		eng.Cat.RUnlock()
		fmt.Printf("durable store %s: recovered %d table(s), wal seq %d\n", *storeDir, recovered, st.LastSeq())
		if recovered > 0 && *berlin > 0 {
			fmt.Println("store already populated; skipping -berlin preload")
			*berlin = 0
		}
	}

	if *berlin > 0 {
		ds := bsbm.Generate(bsbm.Config{ScaleFactor: *berlin, Seed: 42})
		eng.Opts.FileOpener = func(path string) (io.ReadCloser, error) {
			if body, ok := ds.Files[path]; ok {
				return io.NopCloser(strings.NewReader(body)), nil
			}
			return nil, fmt.Errorf("no generated file %s", path)
		}
		if _, err := eng.ExecScript(bsbm.FullDDL, nil); err != nil {
			fmt.Fprintln(os.Stderr, "gems-server: Berlin preload:", err)
			os.Exit(1)
		}
		eng.Opts.FileOpener = nil
		fmt.Printf("preloaded Berlin dataset (sf=%d)\n", *berlin)
	}

	// Worker mode: this process is one shard of a distributed cluster. It
	// holds the full graph (partitioning divides the vertex id spaces, not
	// the storage), owns partition -partition of -partitions, and serves
	// supersteps over the framed protocol until signaled.
	if *workerMode {
		strategy, err := cluster.ParseStrategy(*placement)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gems-server:", err)
			os.Exit(1)
		}
		wk, err := cluster.NewWorker(eng.Cat.Graph(), *partition, *partitions, strategy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gems-server:", err)
			os.Exit(1)
		}
		wk.SetLogger(logger)
		wk.SetObs(opts.Obs)
		wln, err := net.Listen("tcp", *addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gems-server:", err)
			os.Exit(1)
		}
		fmt.Printf("gems-worker p%d/%d (%s placement) listening on %s\n",
			*partition, *partitions, strategy, wln.Addr())
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			<-sigs
			wk.Close()
			wln.Close()
		}()
		if err := wk.Serve(wln); err != nil {
			fmt.Fprintln(os.Stderr, "gems-server: worker:", err)
			os.Exit(1)
		}
		if logger != nil {
			logger.Info("worker stopped", "partition", *partition)
		}
		return
	}

	// Coordinator mode: connect to the worker shards before listening —
	// the handshake verifies partition layout, placement, and graph
	// fingerprint, so a coordinator never serves queries it would scatter
	// to workers holding a different dataset.
	var dist *cluster.TCPTransport
	if *distWorkers != "" {
		addrs := strings.Split(*distWorkers, ",")
		strategy, err := cluster.ParseStrategy(*placement)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gems-server:", err)
			os.Exit(1)
		}
		dist, err = cluster.DialTCP(addrs, cluster.DialOptions{
			Strategy:    strategy,
			Fingerprint: cluster.GraphFingerprint(eng.Cat.Graph()),
			Timeout:     *distTimeout,
			Retries:     *distRetries,
			Obs:         opts.Obs,
			Log:         logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gems-server: dist:", err)
			os.Exit(1)
		}
		eng.Opts.Dist = dist
		fmt.Printf("distributed: %d worker shard(s), %s placement\n", len(addrs), strategy)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gems-server:", err)
		os.Exit(1)
	}
	fmt.Printf("gems-server listening on %s\n", ln.Addr())

	// One Service sits behind both wires: one admission gate bounds the
	// process, one Limits value gives identical deadline semantics, and a
	// statement prepared over TCP is executable over HTTP and vice versa.
	srv := server.New(eng, *token)
	srv.IdleTimeout = *idleTimeout
	srv.WriteTimeout = *writeTimeout
	srv.Limits = server.Limits{DefaultTimeout: *queryTimeout, MaxTimeout: *maxTimeout}
	srv.Gate = server.NewGate(*maxInFlight, *maxQueue, opts.Obs)
	srv.Log = logger

	var hs *http.Server
	if *httpAddr != "" {
		fmt.Printf("web console on http://%s/\n", *httpAddr)
		wh := web.New(eng)
		wh.Service = srv.Service
		hs = &http.Server{
			Addr:              *httpAddr,
			Handler:           wh,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       *idleTimeout,
		}
		go func() {
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "gems-server: web:", err)
			}
		}()
	}
	if logger != nil {
		logger.Info("listening", "addr", ln.Addr().String(), "traces", *traces, "partitions", *partitions,
			"default_timeout", queryTimeout.String(), "max_inflight", *maxInFlight)
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting, drain
	// in-flight queries for the -drain window, cancel stragglers, then
	// exit. A second signal aborts immediately. srv.Shutdown closes the
	// TCP listener itself, which makes Serve below return nil.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		sig := <-sigs
		if logger != nil {
			logger.Info("shutting down", "signal", sig.String(), "drain", drain.String())
		}
		go func() {
			<-sigs
			os.Exit(1)
		}()
		httpDone := make(chan struct{})
		go func() {
			defer close(httpDone)
			if hs != nil {
				ctx, cancel := context.WithTimeout(context.Background(), *drain)
				_ = hs.Shutdown(ctx)
				cancel()
			}
		}()
		srv.Shutdown(*drain)
		<-httpDone
		if dist != nil {
			dist.Close()
		}
		if store != nil {
			// In-flight queries have drained: compact the log so the next
			// start recovers from a snapshot instead of replaying the WAL.
			if err := eng.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "gems-server: checkpoint:", err)
			}
			store.Close()
		}
		close(done)
	}()

	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "gems-server:", err)
		os.Exit(1)
	}
	// Serve returns nil only after Shutdown marked the server closed;
	// wait for the drain to finish before exiting (flushes the final
	// structured log lines).
	<-done
	if logger != nil {
		logger.Info("server stopped")
	}
}

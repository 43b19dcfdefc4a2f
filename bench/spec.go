package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
)

// This file is the benchmark's contract in code: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// ledger. BENCHMARK.json at the repository root is generated from it
// (`bench -spec`) and a test keeps the two in step.

// runSeconds is the measured window the driver asks for; it is also
// the default of -seconds.
const runSeconds = 10

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// meaning is the glossary line of bench/README.md.
	meaning string
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// layer names the module measured; moves names the end-to-end
	// metric and workload the number is predicted to move. Everywhere
	// else the prediction is no change.
	layer, moves string
}

const (
	lower  = "lower"
	higher = "higher"
)

// Client counts and scale factors are constants of the benchmark, never
// derived from the host.
var workloads = []workloadSpec{
	{"bi_graph", "Berlin SF60, in-process, 1 client, prepared: one pass of BQ1-BQ8; path matching (exec expand/cull, graph CSR, bitmap) does the work, front end and wire do none"},
	{"rel_ops", "Berlin SF20, in-process, 1 client, prepared: four table-space selects over Reviews/Offers; table/expr/value operators do the work, graph does none"},
	{"serve_text", "Berlin SF10 behind server.Server on loopback TCP, 2 clients: text exec of point lookups, 900 distinct texts > plan cache 256; front end and wire dominate"},
	{"serve_prepared", "same server, data and requests as serve_text through prepared handles: front end bypassed, leaves framing, JSON and dispatch; control for front-end changes"},
	{"write_mixed", "durable engine (WAL, fsync=true), 1 client: insert 20 + update 1 + delete 20 + 4 one-hop reads per op at constant size; ends with checkpoint, reopen, replay and checksum"},
	{"dist_chain", "Berlin SF60, chain subgraph query scattered over cluster.TCPTransport to 2 loopback workers, 1 client; superstep exchange and bitmap framing dominate"},
}

var endToEnd = []e2eSpec{
	{"setup_s", "s", lower, 0.25, "median of the set-ups: data generation + ingest + view build + prepare (+ server, store or worker start)"},
	{"ops_per_s", "1/s", higher, 0.25, "correct ops completed in the measured window / window"},
	{"op_p50_us", "us", lower, 0.25, "median op latency"},
	{"op_p95_us", "us", lower, 0.25, "95th percentile op latency; every workload yields >= 200 samples so >= 10 lie beyond it"},
	{"allocs_per_op", "count", lower, 0.05, "MemStats.Mallocs delta / ops, client and checker included"},
	{"alloc_kb_per_op", "KiB", lower, 0.10, "MemStats.TotalAlloc delta / ops"},
	{"cpu_ms_per_op", "ms", lower, 0.25, "getrusage user+sys delta / ops; shows a latency win bought with more cores"},
	{"heap_live_mb", "MiB", lower, 0.05, "HeapAlloc after set-up and a forced GC, at the stated scale factor"},
}

var perLayer = []layerSpec{
	{"bsbm.generate_ms", "ms", lower, "bsbm", "setup_s, Berlin workloads"},
	{"table.loadcsv_ns_per_row", "ns", lower, "table", "setup_s, all"},
	{"graph.build_ms", "ms", lower, "graph", "setup_s, all"},
	{"exec.oracle_ms", "ms", lower, "exec", "none (the checker's own cost)"},
	{"graph.bytes_per_edge", "B", lower, "graph", "heap_live_mb, bi_graph"},

	{"lexer.lex_us", "us", lower, "lexer", "op_p50_us, serve_text"},
	{"lexer.tokens_per_stmt", "count", lower, "lexer", "op_p50_us, serve_text"},
	{"parser.parse_us", "us", lower, "parser", "op_p50_us, serve_text"},
	{"parser.allocs_per_stmt", "count", lower, "parser", "allocs_per_op, serve_text"},
	{"sema.analyze_us", "us", lower, "sema", "op_p50_us, serve_text"},
	{"exec.plan_us", "us", lower, "exec", "op_p50_us, serve_text"},
	{"obs.fingerprint_ns", "ns", lower, "obs", "op_p50_us, serve_text"},
	{"exec.plancache_hit_ratio", "ratio", higher, "exec", "op_p50_us, serve_text"},

	{"exec.prepare_us", "us", lower, "exec", "setup_s, serve_prepared"},
	{"ir.encode_us", "us", lower, "ir", "setup_s, serve_prepared"},
	{"ir.decode_us", "us", lower, "ir", "setup_s, serve_prepared"},
	{"ir.bytes_per_stmt", "B", lower, "ir", "setup_s, serve_prepared"},

	{"exec.execute_us", "us", lower, "exec", "op_p50_us, every read workload"},
	{"server.exec_share", "ratio", lower, "server", "op_p50_us, serve_*"},

	{"exec.match_us", "us", lower, "exec", "op_p50_us, bi_graph"},
	{"exec.relops_us", "us", lower, "exec", "op_p50_us, rel_ops"},
	{"exec.bq1_p50_us", "us", lower, "exec", "op_p50_us, bi_graph"},
	{"exec.bq2_p50_us", "us", lower, "exec", "op_p50_us, bi_graph"},
	{"exec.bq3_p50_us", "us", lower, "exec", "op_p50_us, bi_graph"},
	{"exec.bq4_p50_us", "us", lower, "exec", "op_p50_us, bi_graph"},
	{"exec.bq5_p50_us", "us", lower, "exec", "op_p50_us, bi_graph"},
	{"exec.bq6_p50_us", "us", lower, "exec", "op_p50_us, bi_graph"},
	{"exec.bq7_p50_us", "us", lower, "exec", "op_p50_us, bi_graph"},
	{"exec.bq8_p50_us", "us", lower, "exec", "op_p50_us, bi_graph"},
	{"exec.edges_traversed_per_op", "count", lower, "exec", "ops_per_s, bi_graph"},
	{"exec.rows_scanned_per_result", "count", lower, "exec", "ops_per_s, bi_graph"},
	{"exec.parallel_sweeps_per_op", "count", lower, "exec", "cpu_ms_per_op, bi_graph"},

	{"graph.neighbors_ns_per_edge", "ns", lower, "graph", "op_p50_us, bi_graph and dist_chain"},
	{"bitmap.and_ns_per_kword", "ns", lower, "bitmap", "op_p50_us, bi_graph and dist_chain"},
	{"bitmap.foreach_ns_per_bit", "ns", lower, "bitmap", "op_p50_us, bi_graph and dist_chain"},

	{"exec.rq1_p50_us", "us", lower, "exec", "op_p50_us, rel_ops"},
	{"exec.rq2_p50_us", "us", lower, "exec", "op_p50_us, rel_ops"},
	{"exec.rq3_p50_us", "us", lower, "exec", "op_p50_us, rel_ops"},
	{"exec.rq4_p50_us", "us", lower, "exec", "op_p50_us, rel_ops"},
	{"table.filter_ns_per_row", "ns", lower, "table", "op_p50_us, rel_ops"},
	{"table.groupby_ns_per_row", "ns", lower, "table", "op_p50_us, rel_ops"},
	{"table.orderby_ns_per_row", "ns", lower, "table", "op_p50_us, rel_ops"},
	{"table.distinct_ns_per_row", "ns", lower, "table", "op_p50_us, rel_ops"},
	{"table.hashjoin_ns_per_row", "ns", lower, "table", "setup_s (edge view joins), all"},
	{"table.groupby_par_ratio", "ratio", lower, "table", "op_p50_us, rel_ops"},
	{"table.orderby_par_ratio", "ratio", lower, "table", "op_p50_us, rel_ops"},
	{"expr.eval_ns_per_row", "ns", lower, "expr", "op_p50_us and allocs_per_op, rel_ops"},

	{"server.ping_us", "us", lower, "server", "op_p50_us, serve_*"},
	{"server.wire_us", "us", lower, "server", "op_p50_us, serve_*"},
	{"server.encode_result_us", "us", lower, "server", "op_p50_us, serve_*"},
	{"server.req_bytes_per_op", "B", lower, "server", "op_p50_us, serve_*"},
	{"server.resp_bytes_per_op", "B", lower, "server", "op_p50_us, serve_*"},
	{"server.rejected_ops", "count", lower, "server", "ops_per_s, serve_*"},
	{"client.pipeline_ops_per_s", "1/s", higher, "client", "ops_per_s, serve_prepared"},
	{"web.exec_p50_us", "us", lower, "web", "none (HTTP twin of server.wire_us)"},

	{"exec.dml_insert_p50_us", "us", lower, "exec", "op_p50_us, write_mixed"},
	{"exec.dml_update_p50_us", "us", lower, "exec", "op_p50_us, write_mixed"},
	{"exec.dml_delete_p50_us", "us", lower, "exec", "op_p50_us, write_mixed"},
	{"exec.dml_read_p50_us", "us", lower, "exec", "op_p50_us, write_mixed"},
	{"storage.append_us", "us", lower, "storage", "op_p50_us, write_mixed"},
	{"storage.fsync_share", "ratio", lower, "storage", "ops_per_s, write_mixed"},
	{"storage.wal_bytes_per_row", "B", lower, "storage", "ops_per_s, write_mixed"},
	{"storage.wal_records_per_op", "count", lower, "storage", "ops_per_s, write_mixed"},
	{"storage.checkpoint_ms", "ms", lower, "storage", "op_p95_us, write_mixed"},
	{"storage.snapshot_bytes_per_row", "B", lower, "storage", "none (space on disk)"},
	{"storage.recover_ms", "ms", lower, "storage", "none (restart time)"},
	{"catalog.epoch_bumps_per_op", "count", lower, "catalog", "op_p50_us, write_mixed"},

	{"cluster.net_traverse_us", "us", lower, "cluster", "op_p50_us, dist_chain"},
	{"cluster.sim_traverse_us", "us", lower, "cluster", "none (control)"},
	{"cluster.wire_ratio", "ratio", lower, "cluster", "op_p50_us, dist_chain"},
	{"cluster.exchange_bytes_per_op", "B", lower, "cluster", "op_p50_us, dist_chain"},
	{"cluster.supersteps_per_op", "count", lower, "cluster", "op_p50_us, dist_chain"},
	{"cluster.messages_per_op", "count", lower, "cluster", "op_p50_us, dist_chain"},
	{"cluster.retries", "count", lower, "cluster", "op_p95_us, dist_chain"},

	{"bench.samples", "count", higher, "bench", "-"},
	{"bench.failed_ops_ratio", "ratio", lower, "bench", "-"},
	{"bench.op_p99_us", "us", lower, "bench", "-"},
	{"bench.op_max_us", "us", lower, "bench", "-"},
	{"bench.trace_overhead_ratio", "ratio", lower, "bench", "-"},
	{"bench.peak_rss_mb", "MiB", lower, "bench", "-"},
	{"bench.gc_cycles", "count", lower, "bench", "-"},
	{"bench.gc_pause_ms", "ms", lower, "bench", "-"},
	{"bench.gomaxprocs", "count", higher, "bench", "-"},
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

func specFile() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func specJSON() ([]byte, error) {
	if err := validateSpec(specFile()); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(specFile()); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateSpec applies the driver's naming and count limits, so a spec
// the driver would refuse fails here first.
func validateSpec(f benchmarkFile) error {
	if n := len(f.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("spec: %d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("spec: %d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("spec: %d per-layer metrics, want 1..128", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		return fmt.Errorf("spec: run_seconds %d, want 1..60", f.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("spec: bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("spec: name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	unit := func(n, u, better string) error {
		if !unitRE.MatchString(u) {
			return fmt.Errorf("spec: metric %s: bad unit %q", n, u)
		}
		if better != lower && better != higher {
			return fmt.Errorf("spec: metric %s: better is %q", n, better)
		}
		return nil
	}
	for _, w := range f.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("spec: workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		if err := name(m.Name); err != nil {
			return err
		}
		if err := unit(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("spec: metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
		}
	}
	if !setup {
		return fmt.Errorf("spec: end-to-end metrics need setup_s in s, lower is better")
	}
	for _, m := range f.PerLayer {
		if err := name(m.Name); err != nil {
			return err
		}
		if err := unit(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}

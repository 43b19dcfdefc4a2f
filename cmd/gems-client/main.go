// Command gems-client is the command-line client for gems-server: it
// submits GraQL scripts, static checks, IR compilations and catalog
// queries over the JSON/TCP protocol.
//
// Usage:
//
//	gems-client -addr host:7687 [-token secret] exec script.graql [name:type=value ...]
//	gems-client -addr host:7687 check script.graql
//	gems-client -addr host:7687 stats
//	gems-client -addr host:7687 trace
//	gems-client -addr host:7687 statements
//	gems-client -addr host:7687 ps
//	gems-client -addr host:7687 cancelq 42
//	gems-client -addr host:7687 ping
//	gems-client loadgen -addr host:7687 -qps 200 -duration 5s -conns 4 [-pipeline 8] [-report r.json]
//	echo 'select ...' | gems-client -addr host:7687 exec -
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"graql/internal/client"
	"graql/internal/obs"
	"graql/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7687", "server address")
		token       = flag.String("token", "", "auth token")
		trace       = flag.Bool("trace", false, "originate a trace per request and print its id")
		logLevel    = flag.String("log-level", "off", "structured log level: off | error | warn | info | debug")
		logFormat   = flag.String("log-format", "json", "structured log format: json | text")
		dialTimeout = flag.Duration("dial-timeout", 5*time.Second, "TCP connect timeout")
		timeout     = flag.Duration("timeout", 0, "per-query deadline, propagated to the server as timeoutMs (0 = server default)")
		retries     = flag.Int("retries", 2, "retries for idempotent requests and overloaded rejections (capped exponential backoff)")
		pipeline    = flag.Int("pipeline", 0, "pipeline exec/execute requests with this in-flight window (0 = synchronous)")
		repeat      = flag.Int("repeat", 1, "send the exec/execute request this many times (with -pipeline: overlapped)")
	)
	flag.Parse()
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	if flag.NArg() < 1 {
		usage()
	}
	if flag.Arg(0) == "loadgen" { // dials its own connections
		loadgenMain(flag.Args()[1:], addr, token, pipeline)
		return
	}

	cl, err := client.DialOptions(*addr, *token, client.Options{
		DialTimeout:    *dialTimeout,
		RequestTimeout: *timeout,
		MaxRetries:     *retries,
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	cl.EnableTracing(*trace)

	switch flag.Arg(0) {
	case "exec":
		if flag.NArg() < 2 {
			usage()
		}
		script := readScript(flag.Arg(1))
		params, err := parseParams(flag.Args()[2:])
		if err != nil {
			fatal(err)
		}
		if *pipeline > 0 || *repeat > 1 {
			runRepeated(cl, *pipeline, *repeat, func() *server.Request {
				return &server.Request{Op: "exec", Script: script, Params: params}
			})
			break
		}
		resp, err := cl.Exec(script, params)
		printResults(resp)
		if logger != nil && resp != nil {
			logger.Info("exec", "trace_id", resp.TraceID, "code", resp.Code, "elapsed_us", resp.ElapsedUs)
		}
		if err != nil {
			fatal(err)
		}
	case "prepare":
		if flag.NArg() < 2 {
			usage()
		}
		stmt, err := cl.Prepare(readScript(flag.Arg(1)))
		if err != nil {
			fatal(err)
		}
		fmt.Println(stmt)
	case "execute":
		if flag.NArg() < 2 {
			usage()
		}
		stmt := flag.Arg(1)
		params, err := parseParams(flag.Args()[2:])
		if err != nil {
			fatal(err)
		}
		if *pipeline > 0 || *repeat > 1 {
			runRepeated(cl, *pipeline, *repeat, func() *server.Request {
				return &server.Request{Op: "execute", Stmt: stmt, Params: params}
			})
			break
		}
		resp, err := cl.Execute(stmt, params)
		printResults(resp)
		if err != nil {
			fatal(err)
		}
	case "deallocate":
		if flag.NArg() < 2 {
			usage()
		}
		if err := cl.Deallocate(flag.Arg(1)); err != nil {
			fatal(err)
		}
		fmt.Printf("deallocated %s\n", flag.Arg(1))
	case "check":
		if flag.NArg() < 2 {
			usage()
		}
		resp, err := cl.Check(readScript(flag.Arg(1)))
		printResults(resp)
		if err != nil {
			fatal(err)
		}
	case "trace":
		traces, err := cl.Traces()
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(traces); err != nil {
			fatal(err)
		}
	case "ping":
		if err := cl.Ping(); err != nil {
			fatal(err)
		}
		fmt.Println("pong")
	case "stats":
		resp, err := cl.Stats()
		if err != nil {
			fatal(err)
		}
		for _, e := range resp.Catalog {
			fmt.Printf("%-8s %-20s %10d", e.Kind, e.Name, e.Count)
			if e.Kind == "edge" {
				fmt.Printf("   out-deg %.2f  in-deg %.2f", e.AvgOutDegree, e.AvgInDegree)
			}
			fmt.Println()
		}
	case "statements":
		stats, err := cl.Statements()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-16s %8s %6s %10s %10s %10s  %s\n",
			"FINGERPRINT", "CALLS", "ERRS", "ROWS", "MEAN_US", "TOTAL_US", "QUERY")
		for _, st := range stats {
			fmt.Printf("%-16s %8d %6d %10d %10d %10d  %s\n",
				st.Fingerprint, st.Calls, st.Errors, st.Rows, st.MeanUs, st.TotalUs, clip(st.Query, 60))
		}
	case "ps":
		qs, err := cl.LiveQueries()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-6s %-16s %-8s %12s %12s  %s\n",
			"ID", "FINGERPRINT", "STATE", "ELAPSED_US", "ROWS", "QUERY")
		for _, q := range qs {
			fmt.Printf("%-6d %-16s %-8s %12d %12d  %s\n",
				q.ID, q.Fingerprint, q.State, q.ElapsedUs, q.Rows, clip(q.Query, 60))
		}
	case "workers":
		ws, err := cl.Workers()
		if err != nil {
			fatal(err)
		}
		if len(ws) == 0 {
			fmt.Println("not running distributed")
			break
		}
		fmt.Printf("%-6s %-22s %-9s  %s\n", "PART", "ADDR", "STATE", "ERROR")
		for _, w := range ws {
			state := "healthy"
			if !w.Healthy {
				state = "down"
			}
			fmt.Printf("p%-5d %-22s %-9s  %s\n", w.Part, w.Addr, state, w.Err)
		}
	case "cancelq":
		if flag.NArg() < 2 {
			usage()
		}
		id, err := strconv.ParseUint(flag.Arg(1), 10, 64)
		if err != nil {
			fatal(fmt.Errorf("cancelq: bad query id %q", flag.Arg(1)))
		}
		if err := cl.CancelQuery(id); err != nil {
			fatal(err)
		}
		fmt.Printf("canceled query %d\n", id)
	default:
		usage()
	}
}

// runRepeated sends the same request repeat times — pipelined with the
// given in-flight window when window > 0, else synchronously — and
// prints the last response plus a throughput summary.
func runRepeated(cl *client.Client, window, repeat int, mk func() *server.Request) {
	if repeat < 1 {
		repeat = 1
	}
	var (
		last   *server.Response
		errs   int
		lastEE error
		start  = time.Now()
	)
	if window > 0 {
		p := cl.Pipeline(window)
		futs := make([]*client.Future, 0, repeat)
		for i := 0; i < repeat; i++ {
			fut, err := p.Send(mk())
			if err != nil {
				fatal(err)
			}
			futs = append(futs, fut)
		}
		for _, fut := range futs {
			resp, err := fut.Wait()
			if err != nil {
				errs++
				lastEE = err
			}
			if resp != nil {
				last = resp
			}
		}
		if err := p.Close(); err != nil {
			fatal(err)
		}
	} else {
		for i := 0; i < repeat; i++ {
			resp, err := cl.RoundTrip(mk())
			if err != nil {
				errs++
				lastEE = err
			}
			if resp != nil {
				last = resp
			}
		}
	}
	elapsed := time.Since(start)
	printResults(last)
	fmt.Printf("%d request(s), %d error(s) in %v (%.0f req/s, pipeline window %d)\n",
		repeat, errs, elapsed.Round(time.Microsecond),
		float64(repeat)/elapsed.Seconds(), window)
	if errs > 0 {
		fatal(lastEE)
	}
}

func readScript(arg string) string {
	if arg == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		return string(data)
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		fatal(err)
	}
	return string(data)
}

func parseParams(args []string) (map[string]server.Param, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make(map[string]server.Param, len(args))
	for _, a := range args {
		name, val, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("parameter %q: want name[:type]=value", a)
		}
		typ := "varchar"
		if n, t, hasType := strings.Cut(name, ":"); hasType {
			name, typ = n, t
		}
		out[name] = server.Param{Type: typ, Value: val}
	}
	return out, nil
}

func printResults(resp *server.Response) {
	if resp == nil {
		return
	}
	for _, r := range resp.Results {
		switch {
		case len(r.Columns) > 0:
			fmt.Println(strings.Join(r.Columns, " | "))
			for _, row := range r.Rows {
				fmt.Println(strings.Join(row, " | "))
			}
			fmt.Printf("(%d rows)\n", len(r.Rows))
		case r.SubgraphName != "":
			fmt.Printf("subgraph %s: %d vertices, %d edges\n",
				r.SubgraphName, r.SubgraphVertices, r.SubgraphEdges)
		default:
			fmt.Println(r.Message)
		}
	}
	if resp.Error != "" {
		if resp.Code != "" {
			fmt.Fprintf(os.Stderr, "server error (%s): %s\n", resp.Code, resp.Error)
		} else {
			fmt.Fprintln(os.Stderr, "server error:", resp.Error)
		}
	}
	if resp.TraceID != "" {
		fmt.Fprintln(os.Stderr, "trace:", resp.TraceID)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gems-client [-addr host:port] [-token t] [-pipeline N] [-repeat N] exec <script.graql|-> [name[:type]=value ...]
  gems-client [-addr host:port] [-token t] prepare <script.graql|->
  gems-client [-addr host:port] [-token t] [-pipeline N] [-repeat N] execute <stmt-id> [name[:type]=value ...]
  gems-client [-addr host:port] [-token t] deallocate <stmt-id>
  gems-client [-addr host:port] [-token t] check <script.graql|->
  gems-client [-addr host:port] [-token t] stats
  gems-client [-addr host:port] [-token t] trace
  gems-client [-addr host:port] [-token t] statements
  gems-client [-addr host:port] [-token t] ps
  gems-client [-addr host:port] [-token t] workers
  gems-client [-addr host:port] [-token t] cancelq <id>
  gems-client [-addr host:port] [-token t] ping
  gems-client loadgen [-addr host:port] [-token t] [-pipeline N] [-qps R] [-duration D] [-conns N] [-report file.json]`)
	os.Exit(2)
}

// clip truncates a normalized query for one-line table output.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gems-client:", err)
	os.Exit(1)
}

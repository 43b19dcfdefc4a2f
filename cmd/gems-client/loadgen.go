package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"graql/internal/bsbm"
	"graql/internal/client"
	"graql/internal/server"
)

// loadgenMain is `gems-client loadgen`: the connection flags the binary
// already has (accepted before or after the subcommand) plus the four
// that describe the load.
func loadgenMain(args []string, addr, token *string, pipeline *int) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	fs.StringVar(addr, "addr", *addr, "server address")
	fs.StringVar(token, "token", *token, "auth token")
	fs.IntVar(pipeline, "pipeline", *pipeline, "pipeline window per connection (0 = synchronous)")
	qps := fs.Float64("qps", 200, "target request rate")
	duration := fs.Duration("duration", 5*time.Second, "how long to drive the server")
	conns := fs.Int("conns", 4, "TCP connections")
	report := fs.String("report", "", "write the result as JSON to this file")
	_ = fs.Parse(args) // ExitOnError
	runLoadgen(*addr, *token, *qps, *duration, *conns, *pipeline, *report)
}

// The open-loop load generator drives a running gems-server at a fixed
// request rate over the TCP protocol, through the server's admission
// gate — the serving path a real deployment exercises. Open loop means
// the schedule never waits for responses: every request has an intended
// send time fixed up front, and its latency is measured from that
// intended time, so a stalling server accumulates visible queueing
// delay instead of silently slowing the generator down (the
// coordinated-omission trap of closed-loop harnesses).
//
// Each connection prepares the workload script once and then executes
// the prepared handle with bound parameters — the serving pattern the
// prepared-statement tentpole exists for.

// loadgenScript is the default workload: the paper's Fig. 6 similarity
// query (Berlin Q2) with its product parameter bound per request.
var loadgenScript = bsbm.Q2.Script

var loadgenParams = map[string]server.Param{
	"Product1": {Type: "varchar", Value: "p1"},
}

type loadgenResult struct {
	Addr       string  `json:"addr"`
	TargetQPS  float64 `json:"targetQps"`
	DurationS  float64 `json:"durationS"`
	Conns      int     `json:"conns"`
	Pipeline   int     `json:"pipeline"`
	Total      int     `json:"total"`
	OK         int     `json:"ok"`
	Overloaded int     `json:"overloaded"`
	Errors     int     `json:"errors"`
	// SustainedQPS is completed-OK requests over the measured window.
	SustainedQPS float64 `json:"sustainedQps"`
	P50Us        int64   `json:"p50Us"`
	P95Us        int64   `json:"p95Us"`
	P99Us        int64   `json:"p99Us"`
	MaxUs        int64   `json:"maxUs"`
	// LastError aids postmortems of nonzero error counts.
	LastError string `json:"lastError,omitempty"`
}

// runLoadgen drives addr at qps for duration across conns connections
// and prints a one-line greppable summary plus a markdown table. When
// pipelineW > 0 each connection pipelines its requests with that
// in-flight window. reportPath, when non-empty, receives the result as
// JSON.
func runLoadgen(addr, token string, qps float64, duration time.Duration, conns, pipelineW int, reportPath string) loadgenResult {
	if conns < 1 {
		conns = 1
	}
	total := int(qps * duration.Seconds())
	if total < 1 {
		total = 1
	}

	// The schedule: request i is due at start + i/qps, interleaved
	// across connections through one shared channel.
	ticks := make(chan time.Time, total)
	start := time.Now().Add(100 * time.Millisecond) // dial/prepare headroom below
	for i := 0; i < total; i++ {
		ticks <- start.Add(time.Duration(float64(i) * float64(time.Second) / qps))
	}
	close(ticks)

	var (
		mu               sync.Mutex
		latencies        []time.Duration
		okN, overN, errN int
		lastErr          string
	)
	record := func(lat time.Duration, resp *server.Response, err error) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			okN++
			latencies = append(latencies, lat)
		case resp != nil && resp.Code == server.CodeOverloaded:
			overN++
		default:
			errN++
			lastErr = err.Error()
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		// Dial and prepare before the clock starts: connection setup is
		// not part of the serving-path latency under test.
		cl, err := client.DialOptions(addr, token, client.Options{MaxRetries: 0})
		if err != nil {
			fatal(fmt.Errorf("loadgen: dial %s: %w", addr, err))
		}
		stmt, err := cl.Prepare(loadgenScript)
		if err != nil {
			fatal(fmt.Errorf("loadgen: prepare: %w", err))
		}
		wg.Add(1)
		go func(cl *client.Client, stmt string) {
			defer wg.Done()
			defer cl.Close()
			if pipelineW > 0 {
				p := cl.Pipeline(pipelineW)
				var futWG sync.WaitGroup
				for t := range ticks {
					if d := time.Until(t); d > 0 {
						time.Sleep(d)
					}
					fut, err := p.Send(&server.Request{Op: "execute", Stmt: stmt, Params: loadgenParams})
					if err != nil {
						record(0, nil, err)
						continue
					}
					futWG.Add(1)
					go func(t time.Time, fut *client.Future) {
						defer futWG.Done()
						resp, err := fut.Wait()
						record(time.Since(t), resp, err)
					}(t, fut)
				}
				futWG.Wait()
				_ = p.Close()
				return
			}
			for t := range ticks {
				if d := time.Until(t); d > 0 {
					time.Sleep(d)
				}
				resp, err := cl.Execute(stmt, loadgenParams)
				record(time.Since(t), resp, err)
			}
		}(cl, stmt)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) int64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i].Microseconds()
	}
	res := loadgenResult{
		Addr: addr, TargetQPS: qps, DurationS: duration.Seconds(),
		Conns: conns, Pipeline: pipelineW,
		Total: total, OK: okN, Overloaded: overN, Errors: errN,
		SustainedQPS: float64(okN) / elapsed.Seconds(),
		P50Us:        pct(0.50), P95Us: pct(0.95), P99Us: pct(0.99), MaxUs: pct(1.0),
		LastError: lastErr,
	}

	row("metric", "value")
	row("---", "---")
	row("target QPS", fmt.Sprintf("%.0f", res.TargetQPS))
	row("sustained QPS (ok)", fmt.Sprintf("%.1f", res.SustainedQPS))
	row("requests ok / overloaded / error",
		fmt.Sprintf("%d / %d / %d", res.OK, res.Overloaded, res.Errors))
	row("p50 latency", dur(time.Duration(res.P50Us)*time.Microsecond))
	row("p95 latency", dur(time.Duration(res.P95Us)*time.Microsecond))
	row("p99 latency", dur(time.Duration(res.P99Us)*time.Microsecond))
	row("max latency", dur(time.Duration(res.MaxUs)*time.Microsecond))
	if res.LastError != "" {
		row("last error", res.LastError)
	}
	// One stable greppable line for CI gating.
	fmt.Printf("\nLOADGEN total=%d ok=%d overloaded=%d errors=%d qps=%.1f p50_us=%d p95_us=%d p99_us=%d\n",
		res.Total, res.OK, res.Overloaded, res.Errors, res.SustainedQPS,
		res.P50Us, res.P95Us, res.P99Us)

	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote loadgen report to %s\n", reportPath)
	}
	return res
}

func row(cells ...string) {
	fmt.Println("| " + strings.Join(cells, " | ") + " |")
}

func dur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1f µs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2f ms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2f s", d.Seconds())
	}
}

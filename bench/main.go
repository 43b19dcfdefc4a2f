// Command bench is the repository's benchmark: six closed-loop
// workloads over generated Berlin (BSBM) data, eight end-to-end metrics
// per workload, and a per-layer ledger from a separate traced run. See
// README.md in this directory.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-out runs.jsonl]
//	bench -all [-seed <n>] [-seconds <s>]
//	bench -compare A.jsonl B.jsonl
//	bench -spec
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// runRecord is one line of an -out file, the input of -compare.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Result     result  `json:"result"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -spec)")
		seed    = flag.Int64("seed", 42, "seed of the generated data and of the op sequence")
		seconds = flag.Float64("seconds", runSeconds, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of the end-to-end metrics")
		all     = flag.Bool("all", false, "run every workload, untraced then traced, and print every metric")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare A.jsonl B.jsonl")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json")
		out     = flag.String("out", "", "append this run's result to the file as one JSON line")
		spans   = flag.String("spans", "", "span file of a traced run (default: under the temporary directory)")
		smoke   = flag.Bool("smoke", false, "scale factor 1 and one set-up: checks the harness, measures nothing")
	)
	flag.Parse()

	switch {
	case *spec:
		b, err := specJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// Worker counts default to GOMAXPROCS; more of them than processors
	// would measure the scheduler.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatal(fmt.Errorf("GOMAXPROCS %d exceeds the %d processors of this host", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	cfg := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		warmup: 1500 * time.Millisecond,
		smoke:  *smoke,
		out:    os.Stdout,
		tmp:    os.TempDir(),
		spans:  *spans,
	}
	if cfg.smoke {
		cfg.warmup = 50 * time.Millisecond
	}

	var names []string
	switch {
	case *all:
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	case *name != "":
		names = []string{*name}
	default:
		flag.Usage()
		os.Exit(2)
	}
	traces := []bool{*trace != 0}
	if *all {
		traces = []bool{false, true}
	}
	correct := true
	var last result
	for _, n := range names {
		for _, tr := range traces {
			cfg.workload, cfg.trace = n, tr
			res, err := runWorkload(cfg)
			if err != nil {
				fatal(err)
			}
			printMetrics(n, tr, res)
			if *out != "" {
				rec := runRecord{
					Workload: n, Seed: *seed, Seconds: *seconds, Trace: tr,
					GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
					Result: res,
				}
				if err := appendRecord(*out, rec); err != nil {
					fatal(err)
				}
			}
			correct = correct && res.Correct
			last = res
		}
	}
	if !*all {
		// The driver reads the last line of standard output.
		b, err := json.Marshal(last)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: some ops failed or returned wrong results")
		if *all {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// printMetrics prints every metric of a run by name and unit.
func printMetrics(workload string, traced bool, res result) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
	}
	fmt.Printf("# %s: %s metrics (attempted %d, failed %d)\n", workload, kind, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("# %-14s %-30s %16.4f %s\n", workload, n, m.Value, m.Unit)
	}
}

func appendRecord(path string, rec runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig is one invocation of the benchmark on one workload.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration // measured window
	warmup   time.Duration
	trace    bool
	smoke    bool      // scale factor 1 and a single set-up: the harness's own test
	out      io.Writer // where a traced run prints its span summary
	tmp      string    // scratch directory for stores and span files
	spans    string    // span file of a traced run ("" = under tmp)
}

// An untraced run sets the workload up at least minSetups times, and
// more often — up to maxSetups — while all of them together have taken
// less than setupBudget: a set-up of a few milliseconds needs more
// repetitions for a steady median. setup_s is the median, and the last
// instance is the one measured.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// setupConfig is what a workload's set-up sees: generated inputs only.
type setupConfig struct {
	seed  int64
	smoke bool
	tmp   string
	// phases, when non-nil, receives the durations of the set-up steps
	// the per-layer ledger reports (generate, load).
	phases map[string]time.Duration
}

// setupFunc builds an instance of a workload: the program under test,
// opened and loaded, plus the pooled parameters and expected digests.
type setupFunc func(cfg setupConfig) (instance, error)

// setups has one entry per workload of spec.go.
var setups = map[string]setupFunc{
	"bi_graph":       setupBiGraph,
	"rel_ops":        setupRelOps,
	"serve_text":     setupServeText,
	"serve_prepared": setupServePrepared,
	"write_mixed":    setupWriteMixed,
	"dist_chain":     setupDistChain,
}

type instance interface {
	// oracle computes the expected digest of every pooled op through a
	// route independent of the one measured.
	oracle() error
	// newClient returns closed-loop client c (0-based).
	newClient(c int) (client, error)
	// clients is the workload's fixed client count.
	clients() int
	// counters reads the program's public counters the ledger needs
	// deltas of.
	counters() map[string]float64
	// finish runs after the measured window: checks that span the whole
	// run (write_mixed's reopen-and-verify). lc is nil on untraced runs.
	finish(lc *layerCtx) error
	// layers fills the per-layer metrics of a traced run.
	layers(lc *layerCtx) error
	close()
}

// A client performs the ops of its own seeded sequence, one at a time:
// the next request leaves only when the previous reply has arrived.
type client interface {
	// do performs op i. The returned latency covers the request alone;
	// the reply's digest is checked after the timer stops, and a
	// mismatch, an error or an overloaded reply is returned as an error.
	do(i int64, tr *tracer, parent int) (time.Duration, error)
	close()
}

// layerCtx carries a traced run's measurements to the layer probes.
type layerCtx struct {
	m             map[string]float64 // per-layer metric values by name
	tr            *tracer
	ops           int64 // ops completed in the traced window
	window        time.Duration
	before, after map[string]float64 // instance counters around the traced window
	phases        map[string]time.Duration
}

func (lc *layerCtx) delta(name string) float64 { return lc.after[name] - lc.before[name] }

func (lc *layerCtx) perOp(name string) float64 {
	if lc.ops == 0 {
		return 0
	}
	return lc.delta(name) / float64(lc.ops)
}

// spanP50 is the median duration in µs of the traced spans of a name.
func (lc *layerCtx) spanP50(span string) float64 {
	return us(medianDuration(lc.tr.durations(span)))
}

// windowStats is what one closed-loop window measured.
type windowStats struct {
	samples   []time.Duration // latencies of correct ops, sorted
	attempted int64
	failed    int64
	elapsed   time.Duration
	mallocs   uint64
	allocated uint64
	cpu       time.Duration
	gcCycles  uint32
	gcPause   time.Duration
	firstErr  error
}

// rusage returns the process's user+system CPU time and its peak
// resident set in MiB (Linux reports KiB).
func rusage() (cpu time.Duration, peakRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// opCounter numbers ops across windows so spans of one op share an id.
var opCounter atomic.Int64

// runWindow drives every client in a closed loop for d.
func runWindow(clients []client, d time.Duration, tr *tracer) windowStats {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, _ := rusage()
	start := time.Now()
	deadline := start.Add(d)

	type part struct {
		samples           []time.Duration
		attempted, failed int64
		firstErr          error
	}
	parts := make([]part, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for time.Now().Before(deadline) {
				op := opCounter.Add(1)
				sp := tr.begin("op", noSpan, op)
				lat, err := clients[c].do(op, tr, sp)
				tr.end(sp)
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.samples = append(p.samples, lat)
			}
		}(c)
	}
	wg.Wait()
	ws := windowStats{elapsed: time.Since(start)}
	cpu1, _ := rusage()
	ws.cpu = cpu1 - cpu0
	runtime.ReadMemStats(&after)
	ws.mallocs = after.Mallocs - before.Mallocs
	ws.allocated = after.TotalAlloc - before.TotalAlloc
	ws.gcCycles = after.NumGC - before.NumGC
	ws.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for _, p := range parts {
		ws.samples = append(ws.samples, p.samples...)
		ws.attempted += p.attempted
		ws.failed += p.failed
		if ws.firstErr == nil {
			ws.firstErr = p.firstErr
		}
	}
	sortDurations(ws.samples)
	return ws
}

func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// timeBatched returns the median per-call time of fn over samples
// batches of batch calls: single calls at the microsecond scale are
// mostly timer and scheduler noise.
func timeBatched(samples, batch int, fn func()) time.Duration {
	fn() // warm
	ds := make([]time.Duration, samples)
	for s := range ds {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		ds[s] = time.Since(t0) / time.Duration(batch)
	}
	return medianDuration(ds)
}

// result is the object the driver reads from the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload performs one run: an untraced run yields the end-to-end
// metrics, a traced run the per-layer ledger.
func runWorkload(cfg runConfig) (result, error) {
	setup, ok := setups[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.trace {
		return runTraced(setup, cfg)
	}
	return runUntraced(setup, cfg)
}

func startClients(inst instance) ([]client, error) {
	cs := make([]client, 0, inst.clients())
	for c := 0; c < inst.clients(); c++ {
		cl, err := inst.newClient(c)
		if err != nil {
			closeClients(cs)
			return nil, err
		}
		cs = append(cs, cl)
	}
	return cs, nil
}

func closeClients(cs []client) {
	for _, c := range cs {
		c.close()
	}
}

func runUntraced(setup setupFunc, cfg runConfig) (result, error) {
	name := cfg.workload
	var inst instance
	var setupTimes []float64
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if cfg.smoke && i > 0 {
			break
		}
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC() // the discarded instance must not weigh on the next set-up
		}
		t0 := time.Now()
		in, err := setup(setupConfig{seed: cfg.seed, smoke: cfg.smoke, tmp: cfg.tmp})
		if err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", name, err)
		}
		d := time.Since(t0)
		spent += d
		setupTimes = append(setupTimes, d.Seconds())
		inst = in
	}
	defer inst.close()
	if err := inst.oracle(); err != nil {
		return result{}, fmt.Errorf("%s: oracle: %w", name, err)
	}
	heap := heapLiveMiB()
	clients, err := startClients(inst)
	if err != nil {
		return result{}, fmt.Errorf("%s: clients: %w", name, err)
	}
	defer closeClients(clients)

	warm := runWindow(clients, cfg.warmup, nil)
	runtime.GC() // start the window from a collected heap, not mid-cycle
	ws := runWindow(clients, cfg.window, nil)
	ws.attempted += warm.attempted
	ws.failed += warm.failed
	if ws.firstErr == nil {
		ws.firstErr = warm.firstErr
	}
	if err := inst.finish(nil); err != nil {
		// A check over the whole run failed (a lost acknowledged write):
		// no op of the run can be trusted.
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		ws.failed = ws.attempted
	}
	if ws.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed op: %v\n", name, ws.firstErr)
	}
	ok := int64(len(ws.samples))
	if ok == 0 {
		return result{}, fmt.Errorf("%s: no op succeeded (%d attempted): %v", name, ws.attempted, ws.firstErr)
	}
	p50, _ := percentile(ws.samples, 50)
	p95, beyond := percentile(ws.samples, 95)
	if beyond < minBeyond && !cfg.smoke {
		fmt.Fprintf(os.Stderr, "%s: only %d samples beyond p95 (%d samples); lengthen the window\n", name, beyond, ok)
	}
	vals := map[string]float64{
		"setup_s":         median(setupTimes),
		"ops_per_s":       float64(ok) / ws.elapsed.Seconds(),
		"op_p50_us":       us(p50),
		"op_p95_us":       us(p95),
		"allocs_per_op":   float64(ws.mallocs) / float64(ok),
		"alloc_kb_per_op": float64(ws.allocated) / 1024 / float64(ok),
		"cpu_ms_per_op":   ms(ws.cpu) / float64(ok),
		"heap_live_mb":    heap,
	}
	res := result{Correct: ws.failed == 0, Attempted: ws.attempted, Failed: ws.failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return res, nil
}

func runTraced(setup setupFunc, cfg runConfig) (result, error) {
	name := cfg.workload
	lc := &layerCtx{m: map[string]float64{}, phases: map[string]time.Duration{}}
	inst, err := setup(setupConfig{seed: cfg.seed, smoke: cfg.smoke, tmp: cfg.tmp, phases: lc.phases})
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", name, err)
	}
	defer inst.close()
	t0 := time.Now()
	if err := inst.oracle(); err != nil {
		return result{}, fmt.Errorf("%s: oracle: %w", name, err)
	}
	lc.m["exec.oracle_ms"] = ms(time.Since(t0))
	clients, err := startClients(inst)
	if err != nil {
		return result{}, fmt.Errorf("%s: clients: %w", name, err)
	}
	defer closeClients(clients)

	// The same loop untraced, then traced: the ratio of the two medians
	// is what recording spans costs.
	warm := runWindow(clients, cfg.warmup, nil)
	plain := runWindow(clients, cfg.window/4, nil)
	runtime.GC()
	lc.tr = newTracer()
	lc.before = inst.counters()
	ws := runWindow(clients, cfg.window/2, lc.tr)
	lc.after = inst.counters()
	lc.ops = int64(len(ws.samples))
	lc.window = ws.elapsed

	attempted := warm.attempted + plain.attempted + ws.attempted
	failed := warm.failed + plain.failed + ws.failed
	for _, e := range []error{warm.firstErr, plain.firstErr, ws.firstErr} {
		if e != nil {
			fmt.Fprintf(os.Stderr, "%s: first failed op: %v\n", name, e)
			break
		}
	}
	if err := inst.finish(lc); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		failed = attempted
	}
	if lc.ops == 0 {
		return result{}, fmt.Errorf("%s: no op succeeded in the traced window: %v", name, ws.firstErr)
	}
	if err := inst.layers(lc); err != nil {
		return result{}, fmt.Errorf("%s: layer probes: %w", name, err)
	}

	p50, _ := percentile(ws.samples, 50)
	p99, _ := percentile(ws.samples, 99)
	plainP50, _ := percentile(plain.samples, 50)
	lc.m["bench.samples"] = float64(lc.ops)
	lc.m["bench.failed_ops_ratio"] = float64(failed) / float64(attempted)
	lc.m["bench.op_p99_us"] = us(p99)
	lc.m["bench.op_max_us"] = us(ws.samples[len(ws.samples)-1])
	if plainP50 > 0 {
		lc.m["bench.trace_overhead_ratio"] = float64(p50) / float64(plainP50)
	}
	_, lc.m["bench.peak_rss_mb"] = rusage()
	lc.m["bench.gc_cycles"] = float64(ws.gcCycles)
	lc.m["bench.gc_pause_ms"] = ms(ws.gcPause)
	lc.m["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	spans := cfg.spans
	if spans == "" {
		spans = fmt.Sprintf("%s/graql-bench-%s-spans.jsonl", cfg.tmp, name)
	}
	if err := lc.tr.writeJSONL(spans); err != nil {
		return result{}, fmt.Errorf("%s: span file: %w", name, err)
	}
	fmt.Fprintf(cfg.out, "# %s: %d spans written to %s\n", name, len(lc.tr.spans), spans)
	printSelfTimes(cfg.out, name, lc.tr.selfTimes())

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{Value: lc.m[m.Name], Unit: m.Unit}
	}
	return res, nil
}

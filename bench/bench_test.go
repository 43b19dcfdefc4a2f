package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graql/internal/exec"
	"graql/internal/server"
	"graql/internal/table"
	"graql/internal/value"
)

func TestPercentileTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []time.Duration {
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = time.Duration(i+1) * time.Microsecond
		}
		return d
	}
	// 200 samples is the smallest window whose p95 has ten beyond it.
	v, beyond := percentile(mk(200), 95)
	if v != 190*time.Microsecond || beyond != minBeyond {
		t.Errorf("p95 of 200 = %v with %d beyond, want 190µs with %d", v, beyond, minBeyond)
	}
	if _, beyond := percentile(mk(199), 95); beyond >= minBeyond {
		t.Errorf("p95 of 199 samples has %d beyond, want fewer than %d", beyond, minBeyond)
	}
	if v, beyond := percentile(mk(1000), 99); v != 990*time.Microsecond || beyond != 10 {
		t.Errorf("p99 of 1000 = %v with %d beyond", v, beyond)
	}
	if v, _ := percentile(mk(7), 50); v != 4*time.Microsecond {
		t.Errorf("p50 of 7 = %v, want 4µs", v)
	}
	if v, beyond := percentile(nil, 95); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, beyond)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v median %v, want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	// statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
	if q1, q3 := quartiles([]float64{10, 20, 40, 80, 160}); q1 != 15 || q3 != 120 {
		t.Errorf("quartiles = %v, %v, want 15, 120", q1, q3)
	}
}

func sampleTable(t *testing.T, rows [][]value.Value) *table.Table {
	t.Helper()
	tb := table.MustNew("R", table.Schema{
		{Name: "id", Type: value.Varchar(8)},
		{Name: "n", Type: value.Int},
		{Name: "x", Type: value.Float},
		{Name: "d", Type: value.Date},
	})
	for _, r := range rows {
		if err := tb.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestDigestStability(t *testing.T) {
	rows := [][]value.Value{
		{value.NewString("a"), value.NewInt(1), value.NewFloat(1.5), value.DateFromYMD(2008, 2, 29)},
		{value.NewString("b"), value.NewNull(value.KindInt), value.NewFloat(-2), value.DateFromYMD(2006, 1, 1)},
		{value.NewString(""), value.NewInt(3), value.NewFloat(1e21), value.NewNull(value.KindDate)},
	}
	fwd := exec.Result{Kind: exec.ResultTable, Table: sampleTable(t, rows)}
	rev := exec.Result{Kind: exec.ResultTable, Table: sampleTable(t, [][]value.Value{rows[2], rows[1], rows[0]})}
	msg := exec.Result{Message: "inserted 20 row(s) into Node"}

	// The in-process digest is the digest of the wire form.
	for _, r := range []exec.Result{fwd, rev, msg} {
		for _, ordered := range []bool{false, true} {
			if a, b := digestResult(r, ordered), digestWire(server.EncodeResult(r), ordered); a != b {
				t.Errorf("ordered=%v: digestResult %x != digestWire %x", ordered, a, b)
			}
		}
	}
	// Row order matters exactly when the statement orders its output.
	if digestResult(fwd, false) != digestResult(rev, false) {
		t.Error("unordered digest depends on row order")
	}
	if digestResult(fwd, true) == digestResult(rev, true) {
		t.Error("ordered digest ignores row order")
	}
	// A changed cell, a moved cell boundary and a dropped row all show.
	changed := exec.Result{Kind: exec.ResultTable, Table: sampleTable(t, [][]value.Value{
		rows[0], rows[1], {value.NewString(""), value.NewInt(4), value.NewFloat(1e21), value.NewNull(value.KindDate)}})}
	if digestResult(fwd, false) == digestResult(changed, false) {
		t.Error("digest misses a changed cell")
	}
	if digestWire(server.StmtResult{Rows: [][]string{{"ab", "c"}}}, true) == digestWire(server.StmtResult{Rows: [][]string{{"a", "bc"}}}, true) {
		t.Error("digest ignores cell boundaries")
	}
	if digestResult(fwd, false) == digestResult(exec.Result{Kind: exec.ResultTable, Table: sampleTable(t, rows[:2])}, false) {
		t.Error("digest misses a dropped row")
	}
	// The value itself is fixed: expected digests recorded by one build
	// of the benchmark stay comparable with the next.
	const want = "bb76fe22a914cb58"
	if got := hex(digestResults([]exec.Result{fwd, msg}, []bool{true, false})); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

func TestSameSeedSameOpSequence(t *testing.T) {
	draw := func(seed int64, client int) []byte {
		rng := seqRNG(seed, client)
		var b bytes.Buffer
		for i := 0; i < 4096; i++ {
			fmt.Fprintf(&b, "%d,%d;", rng.Intn(3), rng.Intn(poolSize))
		}
		return b.Bytes()
	}
	if !bytes.Equal(draw(42, 0), draw(42, 0)) {
		t.Error("same seed and client gave different op sequences")
	}
	if bytes.Equal(draw(42, 0), draw(43, 0)) {
		t.Error("different seeds gave the same op sequence")
	}
	if bytes.Equal(draw(42, 0), draw(42, 1)) {
		t.Error("two clients of one run share an op sequence")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	texts := func(seed int64) string {
		in, err := setupServeText(setupConfig{seed: seed, smoke: true, tmp: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		return fmt.Sprint(in.(*serveInstance).texts)
	}
	if a, b := texts(7), texts(7); a != b {
		t.Error("same seed generated different request texts")
	}
	if texts(7) == texts(8) {
		t.Error("different seeds generated the same request texts")
	}
}

func TestSpecValidation(t *testing.T) {
	if err := validateSpec(specFile()); err != nil {
		t.Fatal(err)
	}
	bad := func(name string, mutate func(*benchmarkFile)) {
		f := specFile()
		f.Workloads = append([]workloadSpec(nil), f.Workloads...)
		f.EndToEnd = append([]e2eSpec(nil), f.EndToEnd...)
		f.PerLayer = append([]layerSpec(nil), f.PerLayer...)
		mutate(&f)
		if validateSpec(f) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	bad("name with a space", func(f *benchmarkFile) { f.EndToEnd[1].Name = "ops per s" })
	bad("name with a slash", func(f *benchmarkFile) { f.PerLayer[0].Name = "bsbm/generate" })
	bad("name of 65 characters", func(f *benchmarkFile) { f.PerLayer[0].Name = strings.Repeat("x", 65) })
	bad("name used twice", func(f *benchmarkFile) { f.PerLayer[0].Name = "setup_s" })
	bad("unit with a space", func(f *benchmarkFile) { f.EndToEnd[1].Unit = "per s" })
	bad("unit of 17 characters", func(f *benchmarkFile) { f.EndToEnd[1].Unit = strings.Repeat("u", 17) })
	bad("bound above a quarter", func(f *benchmarkFile) { f.EndToEnd[1].Bound = 0.3 })
	bad("no setup_s", func(f *benchmarkFile) { f.EndToEnd = f.EndToEnd[1:] })
	bad("nine workloads", func(f *benchmarkFile) {
		for i := 0; len(f.Workloads) < 9; i++ {
			f.Workloads = append(f.Workloads, workloadSpec{fmt.Sprintf("w%d", i), "x"})
		}
	})
	bad("seventeen end-to-end metrics", func(f *benchmarkFile) {
		for i := 0; len(f.EndToEnd) < 17; i++ {
			f.EndToEnd = append(f.EndToEnd, e2eSpec{Name: fmt.Sprintf("m%d", i), Unit: "s", Better: lower, Bound: 0.1})
		}
	})
	bad("129 per-layer metrics", func(f *benchmarkFile) {
		for i := 0; len(f.PerLayer) < 129; i++ {
			f.PerLayer = append(f.PerLayer, layerSpec{Name: fmt.Sprintf("m%d", i), Unit: "s", Better: lower})
		}
	})
	bad("why of 201 characters", func(f *benchmarkFile) { f.Workloads[0].Why = strings.Repeat("y", 201) })
	bad("run of 61 seconds", func(f *benchmarkFile) { f.RunSeconds = 61 })
}

// TestBenchmarkFileInStep keeps BENCHMARK.json at the repository root
// equal to what `bench -spec` prints.
func TestBenchmarkFileInStep(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `bench -spec`; regenerate it")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, above the 64 KiB limit", len(got))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(got, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6", len(keys))
	}
}

func TestEveryWorkloadHasASetup(t *testing.T) {
	for _, w := range workloads {
		if setups[w.Name] == nil {
			t.Errorf("workload %s has no set-up", w.Name)
		}
	}
	if len(setups) != len(workloads) {
		t.Errorf("%d set-ups for %d workloads", len(setups), len(workloads))
	}
}

// TestSmoke runs every workload at scale factor 1 for 300 ms, untraced
// and traced, through the same code as a measured run — including
// write_mixed's checkpoint, reopen and verify.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke pass skipped with -short")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				tmp := t.TempDir()
				res, err := runWorkload(runConfig{
					workload: w.Name, seed: 42, window: 300 * time.Millisecond, warmup: 50 * time.Millisecond,
					trace: traced, smoke: true, tmp: tmp, out: io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if traced {
					if len(res.Metrics) != len(perLayer) {
						t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
					}
					for _, m := range perLayer {
						if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
							t.Errorf("metric %s: got %+v", m.Name, got)
						}
					}
					if res.Metrics["bench.samples"].Value < 1 || res.Metrics["exec.execute_us"].Value <= 0 {
						t.Errorf("traced run measured nothing: %+v", res.Metrics["bench.samples"])
					}
					if fi, err := os.Stat(filepath.Join(tmp, "graql-bench-"+w.Name+"-spans.jsonl")); err != nil || fi.Size() == 0 {
						t.Errorf("span file: %v", err)
					}
					return
				}
				if len(res.Metrics) != len(endToEnd) {
					t.Errorf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
				}
				for _, m := range endToEnd {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
						t.Errorf("metric %s: got %+v, want a positive value in %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}

func TestLayerSplitIsVisible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two traced workloads")
	}
	traced := func(name string) map[string]metricValue {
		res, err := runWorkload(runConfig{workload: name, seed: 42, window: 300 * time.Millisecond,
			warmup: 50 * time.Millisecond, trace: true, smoke: true, tmp: t.TempDir(), out: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	g, r := traced("bi_graph"), traced("rel_ops")
	if g["exec.match_us"].Value <= g["exec.relops_us"].Value {
		t.Errorf("bi_graph: match %v <= relops %v", g["exec.match_us"].Value, g["exec.relops_us"].Value)
	}
	if r["exec.relops_us"].Value <= r["exec.match_us"].Value {
		t.Errorf("rel_ops: relops %v <= match %v", r["exec.relops_us"].Value, r["exec.match_us"].Value)
	}
}

// TestLostWriteFailsTheRun alters one acknowledged row behind the
// model's back and expects the reopen-and-verify step to notice.
func TestLostWriteFailsTheRun(t *testing.T) {
	inst, err := setupWriteMixed(setupConfig{seed: 1, smoke: true, tmp: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	in := inst.(*writeInstance)
	for i := 0; i < 5; i++ {
		if _, err := in.do(int64(i), nil, noSpan); err != nil {
			t.Fatal(err)
		}
	}
	r := in.model[in.hi-1]
	r.val++
	in.model[in.hi-1] = r
	if err := in.finish(nil); err == nil || !strings.Contains(err.Error(), "lost or altered") {
		t.Errorf("finish = %v, want a recovery mismatch", err)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []spanRec{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "exec", ID: 1, Parent: 0, Start: 10, End: 50},
		{Name: "exec", ID: 2, Parent: 0, Start: 50, End: 80},
		{Name: "scan", ID: 3, Parent: 1, Start: 20, End: 30},
	}
	got := map[string]selfRow{}
	for _, r := range tr.selfTimes() {
		got[r.name] = r
	}
	if r := got["op"]; r.self != 30 || r.total != 100 || r.count != 1 {
		t.Errorf("op: %+v", r)
	}
	if r := got["exec"]; r.self != 60 || r.total != 70 || r.count != 2 {
		t.Errorf("exec: %+v", r)
	}
	if r := got["scan"]; r.self != 10 {
		t.Errorf("scan: %+v", r)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", noSpan, 1)) // a nil tracer records nothing and does not panic
}

func TestCompareVerdicts(t *testing.T) {
	m := e2eSpec{Name: "op_p50_us", Unit: "us", Better: lower, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	if _, v := verdict(m, steady, []float64{104, 105, 103, 104, 106}); v != "ok" {
		t.Errorf("4%% slower: %s, want ok", v)
	}
	if w, v := verdict(m, steady, []float64{120, 121, 119, 120, 122}); v != "regressed" || w < 0.19 {
		t.Errorf("20%% slower: %s (%v), want regressed", v, w)
	}
	if _, v := verdict(m, steady, []float64{80, 120, 100, 140, 60}); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", v)
	}
	up := e2eSpec{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	if _, v := verdict(up, steady, []float64{80, 81, 79, 80, 82}); v != "regressed" {
		t.Errorf("20%% fewer ops: %s, want regressed", v)
	}
	if _, v := verdict(up, steady, []float64{120, 121, 119, 120, 122}); v != "ok" {
		t.Errorf("20%% more ops: %s, want ok", v)
	}

	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			rec := runRecord{Workload: "rel_ops", Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"op_p50_us": {Value: p50 + float64(i), Unit: "us"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	var out bytes.Buffer
	ok, err := compareFiles(&out, write("a.jsonl", 100), write("b.jsonl", 150))
	if err != nil || ok || !strings.Contains(out.String(), "regressed") {
		t.Errorf("compare: ok=%v err=%v\n%s", ok, err, out.String())
	}
}

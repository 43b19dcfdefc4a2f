package web_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graql/internal/exec"
)

// tracedServer is obsServer with trace retention enabled.
func tracedServer(t *testing.T) (*httptest.Server, *exec.Engine) {
	t.Helper()
	ts, eng := obsServer(t)
	eng.Opts.Obs.EnableTracing(8)
	return ts, eng
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestWebHealthz(t *testing.T) {
	ts, _ := testServer(t)
	code, out := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || out["ok"] != true {
		t.Fatalf("healthz: %d %v", code, out)
	}
}

func TestWebReadyz(t *testing.T) {
	ts, _ := obsServer(t)
	code, out := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK || out["ok"] != true {
		t.Fatalf("readyz: %d %v", code, out)
	}
	// The catalog holds Cities, Roads, City and road.
	if n, ok := out["catalogObjects"].(float64); !ok || n != 4 {
		t.Fatalf("catalogObjects = %v, want 4", out["catalogObjects"])
	}
}

// TestReadyzRunsNoSweep: a readiness probe reads the catalog and runs
// nothing on the shard pool, so probing does not move the parallel-sweep
// counters that price query work.
func TestReadyzRunsNoSweep(t *testing.T) {
	ts, eng := obsServer(t)
	counters := func() [2]any {
		snap := eng.Opts.Obs.Snapshot()
		return [2]any{snap["graql_parallel_sweeps_total"], snap["graql_parallel_shards_total"]}
	}
	before := counters()
	for i := 0; i < 5; i++ {
		if code, out := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK || out["ok"] != true {
			t.Fatalf("probe %d: %d %v", i, code, out)
		}
	}
	if after := counters(); after != before {
		t.Fatalf("5 probes moved sweeps/shards from %v to %v", before, after)
	}
}

// TestWebDebugTraces drives a traced query through /query and reads it
// back from /debug/traces, checking the X-Trace-Id header matches.
func TestWebDebugTraces(t *testing.T) {
	ts, _ := tracedServer(t)

	// Empty but enabled before any query; the traces field must be a JSON
	// array, not null.
	code, out := getJSON(t, ts.URL+"/debug/traces")
	if code != http.StatusOK || out["enabled"] != true {
		t.Fatalf("debug/traces: %d %v", code, out)
	}
	if _, ok := out["traces"].([]any); !ok {
		t.Fatalf("traces is %T, want array", out["traces"])
	}

	body := `{"script": "select B.id from graph City (id = 'p') --road--> def B: City ( )"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	tid := resp.Header.Get("X-Trace-Id")
	if tid == "" {
		t.Fatal("no X-Trace-Id header on a traced /query")
	}
	var qr map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr["ok"] != true || qr["traceId"] != tid {
		t.Fatalf("query response: %v (header %s)", qr, tid)
	}

	_, out = getJSON(t, ts.URL+"/debug/traces")
	if out["total"].(float64) != 1 {
		t.Fatalf("total = %v, want 1", out["total"])
	}
	traces := out["traces"].([]any)
	if len(traces) != 1 {
		t.Fatalf("retained %d traces", len(traces))
	}
	tree := traces[0].(map[string]any)
	if tree["traceId"] != tid {
		t.Fatalf("retained trace %v, want %s", tree["traceId"], tid)
	}
	roots := tree["roots"].([]any)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	root := roots[0].(map[string]any)
	if root["action"] != "server" || root["detail"] != "exec" {
		t.Fatalf("root = %v", root)
	}
	if _, ok := root["children"].([]any); !ok {
		t.Fatalf("server root has no children: %v", root)
	}
}

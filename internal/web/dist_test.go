package web_test

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graql/internal/cluster"
	"graql/internal/exec"
	"graql/internal/web"
)

// bootDist attaches a real 2-worker loopback cluster to a fresh web
// handler over the engine's graph and returns the test server plus the
// handles needed to kill a worker mid-test.
func bootDist(t *testing.T, eng *exec.Engine) (*httptest.Server, []*cluster.Worker, []net.Listener) {
	t.Helper()
	g := eng.Cat.Graph()
	const parts = 2
	addrs := make([]string, parts)
	workers := make([]*cluster.Worker, parts)
	listeners := make([]net.Listener, parts)
	for p := 0; p < parts; p++ {
		wk, err := cluster.NewWorker(g, p, parts, cluster.Hash)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go wk.Serve(ln) //nolint:errcheck // torn down by Close below
		t.Cleanup(func() { wk.Close(); ln.Close() })
		addrs[p], workers[p], listeners[p] = ln.Addr().String(), wk, ln
	}
	tp, err := cluster.DialTCP(addrs, cluster.DialOptions{
		Strategy:    cluster.Hash,
		Fingerprint: cluster.GraphFingerprint(g),
		Timeout:     time.Second,
		DialWindow:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.Close)
	eng.Opts.Dist = tp
	ts := httptest.NewServer(web.New(eng))
	t.Cleanup(ts.Close)
	return ts, workers, listeners
}

func TestWorkersEndpointNotDistributed(t *testing.T) {
	ts, _ := testServer(t)
	code, out := getJSON(t, ts.URL+"/workers")
	if code != http.StatusOK || out["distributed"] != false {
		t.Fatalf("single-node /workers must report distributed=false, got %d %v", code, out)
	}
}

// TestSimulatedClusterHasNoWorkers: an engine whose cluster is simulated
// has no worker processes to probe, so /readyz is ready without a workers
// count and /workers reports distributed=false.
func TestSimulatedClusterHasNoWorkers(t *testing.T) {
	_, eng := testServer(t)
	eng.Opts.Dist = cluster.Simulated(2, cluster.Hash)
	ts := httptest.NewServer(web.New(eng))
	t.Cleanup(ts.Close)
	code, out := getJSON(t, ts.URL+"/readyz")
	if _, has := out["workers"]; code != http.StatusOK || out["ok"] != true || has {
		t.Fatalf("simulated-cluster /readyz must be 200 without workers, got %d %v", code, out)
	}
	code, out = getJSON(t, ts.URL+"/workers")
	if code != http.StatusOK || out["distributed"] != false {
		t.Fatalf("simulated-cluster /workers must report distributed=false, got %d %v", code, out)
	}
}

func TestWorkersEndpointAndDegradedReadyz(t *testing.T) {
	_, eng := testServer(t)
	ts, workers, listeners := bootDist(t, eng)

	code, out := getJSON(t, ts.URL+"/workers")
	if code != http.StatusOK || out["distributed"] != true {
		t.Fatalf("/workers must report distributed=true, got %d %v", code, out)
	}
	ws := out["workers"].([]any)
	if len(ws) != 2 {
		t.Fatalf("/workers must list 2 workers, got %v", out)
	}
	for _, w := range ws {
		if w.(map[string]any)["healthy"] != true {
			t.Fatalf("all workers must probe healthy, got %v", out)
		}
	}

	code, out = getJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK || out["ok"] != true || out["workers"] != float64(2) {
		t.Fatalf("healthy distributed /readyz must be 200 with workers=2, got %d %v", code, out)
	}

	// Kill worker 1: readiness must degrade to 503 naming the partition,
	// and /workers must show it down.
	workers[1].Close()
	listeners[1].Close()

	code, out = getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || out["reason"] != "degraded distributed workers" {
		t.Fatalf("degraded /readyz must be 503, got %d %v", code, out)
	}
	degraded := out["degradedWorkers"].([]any)
	if len(degraded) != 1 || degraded[0].(map[string]any)["part"] != float64(1) {
		t.Fatalf("degraded set must name partition 1, got %v", out)
	}

	code, out = getJSON(t, ts.URL+"/workers")
	if code != http.StatusOK {
		t.Fatalf("/workers stays 200 while degraded, got %d", code)
	}
	healthy := 0
	for _, w := range out["workers"].([]any) {
		if w.(map[string]any)["healthy"] == true {
			healthy++
		}
	}
	if healthy != 1 {
		t.Fatalf("exactly one worker must stay healthy, got %v", out)
	}
}

// TestWebVet covers the POST /vet static-analysis endpoint: a clean
// script, a script with a diagnostic, and a malformed request body.
func TestWebVet(t *testing.T) {
	ts, _ := testServer(t)
	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/vet", "application/json", strings.NewReader(body))
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

	code, out := post(`{"script": "create table T(id varchar(8))\nselect id from table T"}`)
	if code != http.StatusOK || out["ok"] != true || out["errors"] != float64(0) {
		t.Fatalf("clean script must vet ok, got %d %v", code, out)
	}
	code, out = post(`{"script": "select nope from table Missing"}`)
	if code != http.StatusOK || out["ok"] != false || out["errors"] == float64(0) {
		t.Fatalf("bad column must produce vet errors, got %d %v", code, out)
	}
	if diags := out["diagnostics"].([]any); len(diags) == 0 {
		t.Fatalf("diagnostics must be reported, got %v", out)
	}
	if code, out = post(`{not json`); code != http.StatusBadRequest {
		t.Fatalf("malformed body must be 400, got %d %v", code, out)
	}
}

package web_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/web"
)

// obsServer is testServer with a metrics registry on the engine.
func obsServer(t *testing.T) (*httptest.Server, *exec.Engine) {
	t.Helper()
	opts := exec.DefaultOptions()
	opts.Obs = obs.New()
	eng := exec.New(opts)
	if _, err := eng.ExecScript(`
create table Cities(id varchar(8), country varchar(2))
create table Roads(src varchar(8), dst varchar(8))
create vertex City(id) from table Cities
create edge road with vertices (City as A, City as B)
from table Roads
where Roads.src = A.id and Roads.dst = B.id
`, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestReader("Cities", strings.NewReader("p,US\nq,US\nr,CA\n")); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestReader("Roads", strings.NewReader("p,q\nq,r\n")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(web.New(eng))
	t.Cleanup(ts.Close)
	return ts, eng
}

func TestWebMetricsEndpoint(t *testing.T) {
	ts, _ := obsServer(t)
	out := postQuery(t, ts, `{"script": "select B.id from graph City (id = 'p') --road--> def B: City ( )"}`)
	if out["ok"] != true {
		t.Fatalf("query response: %v", out)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %s", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE graql_queries_total counter",
		"graql_queries_total 1",
		"graql_edges_traversed_total",
		"graql_statement_latency_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestWebSlowQueryLog(t *testing.T) {
	ts, eng := obsServer(t)
	// Threshold 0 with an explicit opt-in flag is not supported; use 1ns so
	// every statement qualifies as slow.
	eng.Opts.Obs.SetSlowQueryThreshold(1)
	out := postQuery(t, ts, `{"script": "select id from table Cities"}`)
	if out["ok"] != true {
		t.Fatalf("query response: %v", out)
	}

	resp, err := http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Total   int             `json:"total"`
		Queries []obs.SlowQuery `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Total == 0 || len(payload.Queries) == 0 {
		t.Fatalf("slow query log empty: %+v", payload)
	}
	if !strings.Contains(payload.Queries[len(payload.Queries)-1].Script, "Cities") {
		t.Errorf("slow query script = %q", payload.Queries[len(payload.Queries)-1].Script)
	}
}

func TestWebPprofServed(t *testing.T) {
	ts, _ := obsServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline status = %d", resp.StatusCode)
	}
}

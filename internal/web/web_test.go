package web_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graql/internal/exec"
	"graql/internal/server"
	"graql/internal/web"
)

func testServer(t *testing.T) (*httptest.Server, *exec.Engine) {
	t.Helper()
	eng := exec.New(exec.DefaultOptions())
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

func postQuery(t *testing.T, ts *httptest.Server, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWebCatalog(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []server.CatalogEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.Kind == "edge" && e.Name == "road" && e.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("catalog entries: %+v", entries)
	}
}

func TestWebConsoleServed(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "GraQL console") {
		t.Errorf("console page missing: %.200s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("content type = %s", ct)
	}
}

package web_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graql/internal/exec"
	"graql/internal/server"
	"graql/internal/web"
)

// What a request does is asserted once for every wire by the service
// conformance suite (internal/server/conformance_test.go). The tests
// here pin only what is HTTP's own: statuses, headers, methods, body
// limits and which routes the token guards.

// do sends one request and returns the status, headers and body.
func do(t *testing.T, method, url, token, body string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// TestStatusMapping: a structured failure is 200 with its code in the
// body, except the codes HTTP clients and proxies must act on.
func TestStatusMapping(t *testing.T) {
	eng := exec.New(exec.DefaultOptions())
	h := web.New(eng)
	h.Gate = server.NewGate(1, 0, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	for _, tc := range []struct {
		method, path, body string
		status             int
		contains           string
	}{
		{"POST", "/query", `{"script": "select from from"}`, http.StatusOK, `"code":"parse"`},
		{"POST", "/query", `{"script": "select x from table Missing"}`, http.StatusOK, `"code":"exec"`},
		{"POST", "/execute", `{"stmt": "s999"}`, http.StatusOK, `"code":"bad_request"`},
		{"POST", "/query", `{`, http.StatusBadRequest, `"code":"bad_request"`},
		{"POST", "/vet", `{not json`, http.StatusBadRequest, `"code":"bad_request"`},
		{"DELETE", "/debug/queries/notanumber", ``, http.StatusBadRequest, `"code":"bad_request"`},
		{"DELETE", "/debug/queries/99999", ``, http.StatusNotFound, `no such query id 99999`},
		{"GET", "/query", ``, http.StatusMethodNotAllowed, ``},
		{"GET", "/prepare", ``, http.StatusMethodNotAllowed, ``},
		{"POST", "/catalog", ``, http.StatusMethodNotAllowed, ``},
	} {
		status, _, body := do(t, tc.method, ts.URL+tc.path, "", tc.body)
		if status != tc.status || !strings.Contains(body, tc.contains) {
			t.Errorf("%s %s: status %d body %s, want %d containing %s", tc.method, tc.path, status, body, tc.status, tc.contains)
		}
	}

	// A saturated gate is 503 with a Retry-After hint.
	if err := h.Gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	status, hdr, body := do(t, "POST", ts.URL+"/query", "", `{"script": "select 1"}`)
	h.Gate.Release()
	if status != http.StatusServiceUnavailable || !strings.Contains(body, `"code":"overloaded"`) || hdr.Get("Retry-After") == "" {
		t.Errorf("overloaded: status %d Retry-After %q body %s", status, hdr.Get("Retry-After"), body)
	}
}

// TestTokenGuardsRoutes: with a token on the service, every route that
// reads or runs anything needs "Authorization: Bearer <token>"; the
// console page, the probes and the scrape endpoint stay open.
func TestTokenGuardsRoutes(t *testing.T) {
	eng := exec.New(exec.DefaultOptions())
	h := web.New(eng)
	h.Service = server.NewService(eng, "sekrit")
	ts := httptest.NewServer(h)
	defer ts.Close()

	guarded := []struct{ method, path, body string }{
		{"POST", "/query", `{"script": "create table T(a integer)"}`},
		{"POST", "/query", `{"script": "create table T(a integer)", "check": true}`},
		{"POST", "/prepare", `{"script": "select a from table T"}`},
		{"POST", "/execute", `{"stmt": "s1"}`},
		{"POST", "/vet", `{"script": "create table U(a integer)"}`},
		{"GET", "/catalog", ``},
		{"GET", "/workers", ``},
		{"GET", "/debug/queries", ``},
		{"GET", "/debug/statements", ``},
		{"GET", "/debug/traces", ``},
		{"GET", "/debug/slow", ``},
		{"GET", "/debug/pprof/cmdline", ``},
		{"DELETE", "/debug/queries/1", ``},
	}
	for _, rt := range guarded {
		for _, token := range []string{"", "wrong"} {
			status, hdr, body := do(t, rt.method, ts.URL+rt.path, token, rt.body)
			if status != http.StatusUnauthorized || !strings.Contains(body, `"code":"auth"`) || hdr.Get("WWW-Authenticate") == "" {
				t.Errorf("%s %s with token %q: status %d body %s, want 401 with code auth", rt.method, rt.path, token, status, body)
			}
		}
		if status, _, body := do(t, rt.method, ts.URL+rt.path, "sekrit", rt.body); status == http.StatusUnauthorized {
			t.Errorf("%s %s with the token: 401 %s", rt.method, rt.path, body)
		}
	}
	// A token in the body is not a credential.
	if status, _, _ := do(t, "POST", ts.URL+"/query", "", `{"script": "select 1", "auth": "sekrit"}`); status != http.StatusUnauthorized {
		t.Errorf("body-supplied auth accepted: status %d", status)
	}
	for _, path := range []string{"/", "/healthz", "/readyz", "/metrics"} {
		if status, _, _ := do(t, "GET", ts.URL+path, "", ""); status != http.StatusOK {
			t.Errorf("GET %s without a token: status %d, want it open", path, status)
		}
	}
}

// TestBodyLimit: a body past the limit is refused with 413 instead of
// being buffered.
func TestBodyLimit(t *testing.T) {
	ts := httptest.NewServer(web.New(exec.New(exec.DefaultOptions())))
	defer ts.Close()
	huge := `{"script": "` + strings.Repeat("x", 16<<20) + `"}`
	for _, path := range []string{"/query", "/prepare", "/execute", "/vet"} {
		status, _, body := do(t, "POST", ts.URL+path, "", huge)
		if status != http.StatusRequestEntityTooLarge || !strings.Contains(body, `"code":"bad_request"`) {
			t.Errorf("POST %s with a body past 16 MiB: status %d body %.120s, want 413 with code bad_request", path, status, body)
		}
	}
}

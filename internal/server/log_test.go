package server

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"graql/internal/obs"
)

// TestRequestLogLine pins the per-request log line, field for field, for
// an answered and a failed request (the time stamp aside).
func TestRequestLogLine(t *testing.T) {
	var buf bytes.Buffer
	log, err := obs.NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	s := &Service{Log: log}
	s.logRequest(&Request{Op: "execute"}, &Response{OK: true, ElapsedUs: 42, TraceID: "0af7651916cd43dd8448eb211c80319c"})
	s.logRequest(&Request{Op: "exec"}, &Response{Code: CodeParse, Error: `line 1: unexpected "from" <here>`, ElapsedUs: 7})
	got := regexp.MustCompile(`"time":"[^"]*",`).ReplaceAllString(buf.String(), "")
	want := strings.Join([]string{
		`{"level":"INFO","msg":"request","trace_id":"0af7651916cd43dd8448eb211c80319c","op":"execute","code":"","elapsed_us":42}`,
		`{"level":"WARN","msg":"request failed","trace_id":"","op":"exec","code":"parse","elapsed_us":7,"error":"line 1: unexpected \"from\" <here>"}`,
	}, "\n") + "\n"
	if got != want {
		t.Errorf("log lines:\n%s\nwant:\n%s", got, want)
	}
}

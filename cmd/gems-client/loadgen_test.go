package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graql/internal/bsbm"
	"graql/internal/exec"
	"graql/internal/server"
)

// startLoadgenServer boots a real GEMS server over the Berlin sf=1
// dataset on an ephemeral port — the target runLoadgen drives.
func startLoadgenServer(t *testing.T) (addr string, shutdown func()) {
	t.Helper()
	ds := bsbm.Generate(bsbm.Config{ScaleFactor: 1, Seed: 42})
	opts := exec.DefaultOptions()
	opts.FileOpener = func(path string) (io.ReadCloser, error) {
		if body, ok := ds.Open(path); ok {
			return io.NopCloser(strings.NewReader(body)), nil
		}
		return nil, fmt.Errorf("no generated file %s", path)
	}
	eng := exec.New(opts)
	if _, err := eng.ExecScript(bsbm.FullDDL, nil); err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), func() {
		srv.Close()
		ln.Close()
		<-done
	}
}

func TestRunLoadgenPipelined(t *testing.T) {
	addr, shutdown := startLoadgenServer(t)
	defer shutdown()

	report := filepath.Join(t.TempDir(), "report.json")
	res := runLoadgen(addr, "", 200, 300*time.Millisecond, 2, 2, report)

	if res.Total != 60 {
		t.Errorf("total = %d, want 60 (200 qps x 0.3s)", res.Total)
	}
	if res.OK != res.Total || res.Errors != 0 || res.Overloaded != 0 {
		t.Errorf("ok/overloaded/errors = %d/%d/%d (last error %q), want %d/0/0",
			res.OK, res.Overloaded, res.Errors, res.LastError, res.Total)
	}
	if res.SustainedQPS <= 0 || res.P50Us <= 0 || res.P99Us < res.P50Us {
		t.Errorf("implausible latency summary: qps=%.1f p50=%dus p99=%dus",
			res.SustainedQPS, res.P50Us, res.P99Us)
	}

	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var back loadgenResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.OK != res.OK || back.TargetQPS != 200 {
		t.Errorf("report round trip: %+v", back)
	}
}

func TestRunLoadgenSynchronous(t *testing.T) {
	addr, shutdown := startLoadgenServer(t)
	defer shutdown()

	res := runLoadgen(addr, "", 100, 200*time.Millisecond, 1, 0, "")
	if res.Total != 20 || res.OK != res.Total || res.Errors != 0 {
		t.Errorf("sync loadgen: total=%d ok=%d errors=%d (last %q)",
			res.Total, res.OK, res.Errors, res.LastError)
	}
}

// `gems-client loadgen` takes the connection flags after the subcommand
// too: they land in the binary's own flag variables.
func TestLoadgenMainFlags(t *testing.T) {
	addr, shutdown := startLoadgenServer(t)
	defer shutdown()

	report := filepath.Join(t.TempDir(), "report.json")
	gotAddr, token, pipeline := "127.0.0.1:1", "", 0 // as if left at main's defaults
	loadgenMain([]string{"-addr", addr, "-pipeline", "2", "-qps", "100", "-duration", "100ms", "-conns", "2", "-report", report},
		&gotAddr, &token, &pipeline)
	if gotAddr != addr || pipeline != 2 {
		t.Errorf("flags after the subcommand: addr %q pipeline %d, want %q 2", gotAddr, pipeline, addr)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var res loadgenResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Total != 10 || res.OK != 10 || res.Conns != 2 || res.Pipeline != 2 {
		t.Errorf("report %+v, want 10 ok requests over 2 pipelined connections", res)
	}
}

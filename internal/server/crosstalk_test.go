package server_test

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graql/internal/bsbm"
	"graql/internal/client"
	"graql/internal/exec"
	"graql/internal/server"
)

// TestExecResultCrossTalk sends BQ6 as exec text from two clients of one
// server, one with Country1 = US and one with DE. The server runs every
// exec on one engine, and BQ6 writes its reviewers into table T6, then
// counts them from table T6: each count must be its own script's, never
// the other client's.
func TestExecResultCrossTalk(t *testing.T) {
	total := 40000
	if raceEnabled {
		total = 2000
	}
	ds := bsbm.Generate(bsbm.Config{ScaleFactor: 10, Seed: 42})
	opts := exec.DefaultOptions()
	opts.Workers = 1
	opts.FileOpener = func(path string) (io.ReadCloser, error) {
		body, ok := ds.Open(path)
		if !ok {
			return nil, fmt.Errorf("no such file %s", path)
		}
		return io.NopCloser(strings.NewReader(body)), nil
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
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		ln.Close()
		<-served
	}()

	count := func(cl *client.Client, country string) (string, error) {
		resp, err := cl.Exec(bsbm.Q6.Script, map[string]server.Param{"Country1": {Type: "varchar", Value: country}})
		if err != nil {
			return "", err
		}
		if !resp.OK {
			return "", fmt.Errorf("%s: %s", resp.Code, resp.Error)
		}
		return resp.Results[1].Rows[0][0], nil
	}
	countries := []string{"US", "DE"}
	clients := make([]*client.Client, len(countries))
	want := make([]string, len(countries))
	for i, c := range countries {
		if clients[i], err = client.Dial(ln.Addr().String(), ""); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
		if want[i], err = count(clients[i], c); err != nil {
			t.Fatal(err)
		}
	}
	if want[0] == want[1] {
		t.Fatalf("both countries count %s reviewers; the test cannot tell them apart", want[0])
	}
	var wrong, failed atomic.Int64
	var wg sync.WaitGroup
	for i, c := range countries {
		wg.Add(1)
		go func(i int, c string) {
			defer wg.Done()
			for n := 0; n < total/len(countries); n++ {
				got, err := count(clients[i], c)
				switch {
				case err != nil:
					failed.Add(1)
				case got != want[i]:
					wrong.Add(1)
				}
			}
		}(i, c)
	}
	wg.Wait()
	if wrong.Load() != 0 || failed.Load() != 0 {
		t.Fatalf("%d of %d scripts counted another client's T6, %d failed", wrong.Load(), total, failed.Load())
	}
}

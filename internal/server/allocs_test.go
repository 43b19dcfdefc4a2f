package server_test

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"graql/internal/bsbm"
	"graql/internal/client"
	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/server"
)

// TestServedOpAllocs counts what one served op allocates end to end —
// the client's request frame, the server's parse, execute and response
// frame, the client's parse — for the serving benchmark's three statement
// shapes through prepared handles, on Berlin SF1 behind a server set up
// as gems-server sets it up (metrics, the trace ring, the request log,
// an admission gate).
func TestServedOpAllocs(t *testing.T) {
	ds := bsbm.Generate(bsbm.Config{ScaleFactor: 1, Seed: 42})
	reg := obs.New()
	reg.EnableTracing(64)
	opts := exec.DefaultOptions()
	opts.Obs, opts.IRVerify = reg, exec.IRVerifySample
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
	var err error
	if srv.Log, err = obs.NewLogger(io.Discard, "info", "json"); err != nil {
		t.Fatal(err)
	}
	srv.Gate = server.NewGate(0, 16, reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		ln.Close()
		<-done
	})
	cl, err := client.Dial(ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	varchar := func(kv ...string) map[string]server.Param {
		m := map[string]server.Param{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = server.Param{Type: "varchar", Value: kv[i+1]}
		}
		return m
	}
	// Ceilings are this codec's counts (86, 106, 112) plus slack for -race;
	// json.Encoder and json.Decoder on both ends cost 126, 142 and 157.
	for _, tc := range []struct {
		name, script string
		params       map[string]server.Param
		ceiling      float64
	}{
		{"s1", `select id, label, country from table Producers where id = %Id% and publisher <> %Publisher%`,
			varchar("Id", "m3", "Publisher", "none"), 96},
		{"s2", `select top 10 id, label from table Vendors where country = %Country% and publisher <> %Publisher% order by label asc, id asc`,
			varchar("Country", "US", "Publisher", "none"), 116},
		{"s3", `select b.id from graph TypeVtx (id = %Id% and publisher <> %Publisher%) --subclass--> def b: TypeVtx`,
			varchar("Id", "t5", "Publisher", "none"), 122},
	} {
		stmt, err := cl.Prepare(tc.script)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Execute(stmt, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results[0].Rows) == 0 {
			t.Fatalf("%s: no rows", tc.name)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := cl.Execute(stmt, tc.params); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per served op", tc.name, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s: %.0f allocations per served op, want <= %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}

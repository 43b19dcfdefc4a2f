package server_test

import (
	"net"
	"strings"
	"testing"

	"graql/internal/client"
	"graql/internal/exec"
	"graql/internal/server"
)

func startServer(t *testing.T, token string) (addr string, eng *exec.Engine, shutdown func()) {
	t.Helper()
	eng = exec.New(exec.DefaultOptions())
	srv := server.New(eng, token)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), eng, func() {
		srv.Close()
		ln.Close()
		<-done
	}
}

const setupScript = `
create table Cities(id varchar(8), country varchar(2))
create table Roads(src varchar(8), dst varchar(8))
create vertex City(id) from table Cities
create edge road with vertices (City as A, City as B)
from table Roads
where Roads.src = A.id and Roads.dst = B.id
`

func TestAuthentication(t *testing.T) {
	addr, _, shutdown := startServer(t, "sekrit")
	defer shutdown()

	// Wrong token: Dial's ping must fail.
	if _, err := client.Dial(addr, "wrong"); err == nil {
		t.Error("wrong token accepted")
	}
	cl, err := client.Dial(addr, "sekrit")
	if err != nil {
		t.Fatalf("right token rejected: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Stats(); err != nil {
		t.Errorf("authenticated stats failed: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, eng, shutdown := startServer(t, "")
	defer shutdown()
	if _, err := eng.ExecScript(setupScript, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestReader("Cities", strings.NewReader("p,US\nq,US\n")); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestReader("Roads", strings.NewReader("p,q\n")); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			cl, err := client.Dial(addr, "")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for j := 0; j < 20; j++ {
				resp, err := cl.Exec(`select B.id from graph City (id = 'p') --road--> def B: City ( )`, nil)
				if err != nil {
					errs <- err
					return
				}
				if len(resp.Results[0].Rows) != 1 {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

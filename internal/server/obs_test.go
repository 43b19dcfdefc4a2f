package server_test

import (
	"strings"
	"testing"

	"graql/internal/client"
)

// TestConcurrentClientsWithMetrics hammers one obs-enabled server from
// several sessions mixing exec, stats and metrics ops; run under -race it
// checks the registry's lock-free counters and the per-connection state.
func TestConcurrentClientsWithMetrics(t *testing.T) {
	fx := newFixture(t, fixtureConfig{})
	addr, eng := serveTCP(t, fx), fx.eng

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
			for j := 0; j < 15; j++ {
				resp, err := cl.Exec(`select B.id from graph City (id = 'p') --road--> def B: City ( )`, nil)
				if err != nil {
					errs <- err
					return
				}
				if len(resp.Results[0].Rows) != 1 {
					errs <- err
					return
				}
				if _, err := cl.Stats(); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Metrics(); err != nil {
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

	cl, err := client.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	text, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"graql_statements_total", "graql_queries_total", "graql_statement_latency_seconds_bucket"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if c := eng.Opts.Obs.Counter("graql_queries_total", ""); c.Value() < clients*15 {
		t.Errorf("query counter = %d, want >= %d", c.Value(), clients*15)
	}
}

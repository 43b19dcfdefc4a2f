package exec_test

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"graql/internal/catalog"
	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/server"
	"graql/internal/value"
)

// Every route from a statement to its answer compiles through the same
// exec.Prepared, so they must agree byte for byte on the wire encoding:
// text execution cold, warm from the script cache and with reuse off
// (PlanCache -1, the reference), a handle prepared from text, and a
// handle prepared from that handle's IR — before and after a DML
// statement moves the catalog epoch under every stored plan.

// wire renders one route's outcome as the bytes a client would see.
func wire(results []exec.Result, err error) string {
	out := make([]server.StmtResult, len(results))
	for i, r := range results {
		out[i] = server.EncodeResult(r)
	}
	b, _ := json.Marshal(out)
	if err != nil {
		return string(b) + " error: " + err.Error()
	}
	return string(b)
}

// textExecRoutes runs one seeded trial and returns how many statements
// it compared.
func textExecRoutes(t *testing.T, seed int64) int {
	r := rand.New(rand.NewSource(seed))
	tb, gen := exec.NewSelGen(r, "P", r.Intn(60))
	opts := exec.DefaultOptions()
	opts.Workers = 1
	opts.Obs = obs.New()
	eng := exec.New(opts)
	eng.Cat.Publish(catalog.Change{Table: tb})
	opts.PlanCache, opts.Obs = -1, nil
	ref := exec.New(opts)
	ref.Cat = eng.Cat
	params := map[string]value.Value{"P": value.NewInt(int64(r.Intn(5)))}

	type routes struct {
		src          string
		fromText, ir *exec.Prepared
	}
	var kept []routes
	compare := func(rt routes, phase string) {
		want := wire(ref.ExecScript(rt.src, params))
		got := map[string]string{"text": wire(eng.ExecScript(rt.src, params))}
		if rt.fromText != nil {
			got["prepared"] = wire(eng.ExecPrepared(rt.fromText, params))
			got["prepared from IR"] = wire(eng.ExecPrepared(rt.ir, params))
		}
		for route, g := range got {
			if g != want {
				t.Fatalf("seed %d, %s, %s route:\n%s\n got %s\nwant %s", seed, phase, route, rt.src, g, want)
			}
		}
	}
	for i := 0; i < 12; i++ {
		rt := routes{src: gen.Select()}
		compare(rt, "cold")
		var err error
		if rt.fromText, err = eng.Prepare(rt.src); err != nil {
			// Statically rejected: text execution must fail the same way.
			if want := wire(ref.ExecScript(rt.src, params)); want != wire(nil, err) {
				t.Fatalf("seed %d: %s\nprepare: %v\nreference: %s", seed, rt.src, err, want)
			}
		} else if rt.ir, err = eng.PrepareIR(rt.fromText.IR()); err != nil {
			t.Fatalf("seed %d: %s: prepare from IR: %v", seed, rt.src, err)
		}
		compare(rt, "warm")
		kept = append(kept, rt)
	}
	// Move the epoch: every stored plan now binds a superseded table.
	dml := "delete from P where " + gen.Pred() // may fail at run time (division by zero): then nothing moved, also a case
	if r.Intn(2) == 0 {
		dml = "insert into P values (null" + strings.Repeat(", null", tb.NumCols()-1) + ")"
	}
	_, _ = eng.ExecScript(dml, params)
	for _, rt := range kept {
		compare(rt, "after "+dml)
	}
	return len(kept)
}

func TestTextExecRoutesAgree(t *testing.T) {
	n := 0
	for seed := int64(1); seed <= 60; seed++ {
		n += textExecRoutes(t, seed)
	}
	if n < 600 {
		t.Fatalf("corpus too thin: %d statements compared", n)
	}
}

func FuzzTextExecRoutes(f *testing.F) {
	f.Add(int64(7))
	f.Add(int64(1 << 40))
	f.Fuzz(func(t *testing.T, seed int64) { textExecRoutes(t, seed) })
}

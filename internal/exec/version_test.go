package exec

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestScriptReadsOneVersion: a script reads one catalog version between
// its own writes (DESIGN.md §10). One goroutine keeps inserting into X
// while another runs scripts of two identical counts of X, as text and
// through a prepared handle; each script's two counts must agree.
func TestScriptReadsOneVersion(t *testing.T) {
	const src = `select count(*) as c from table X
select count(*) as c from table X`
	scripts := 4000
	if raceEnabled {
		scripts = 2000
	}
	e := newTestEngine(nil)
	mustExec(t, e, `create table X(n integer)`, nil)
	p, err := e.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := e.ExecScript(`insert into X values (1)`, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	mismatched := 0
	for i := 0; i < scripts; i++ {
		var res []Result
		if i%2 == 0 {
			res, err = e.ExecScript(src, nil)
		} else {
			res, err = e.ExecPrepared(p, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Table.Value(0, 0).Int() != res[1].Table.Value(0, 0).Int() {
			mismatched++
		}
	}
	stop.Store(true)
	wg.Wait()
	if mismatched != 0 {
		t.Errorf("%d of %d scripts read two versions of X", mismatched, scripts)
	}
}

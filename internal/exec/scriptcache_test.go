package exec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"graql/internal/ast"
	"graql/internal/obs"
)

// planCacheEngine builds an engine with the given plan-cache capacity
// (0 = default, negative = disabled) over a small Items table.
func planCacheEngine(t *testing.T, capacity int) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = 2
	opts.PlanCache = capacity
	e := New(opts)
	mustExec(t, e, `
create table Items(id integer, name varchar(16))
insert into Items values (1, 'one'), (2, 'two'), (3, 'three')
`, nil)
	return e
}

func cellStr(t *testing.T, res []Result, stmt, row, col int) string {
	t.Helper()
	if stmt >= len(res) || res[stmt].Table == nil {
		t.Fatalf("statement %d has no table result: %+v", stmt, res)
	}
	return res[stmt].Table.Value(uint32(row), col).String()
}

func TestPlanCacheHitOnRepeat(t *testing.T) {
	e := planCacheEngine(t, 0)
	q := `select name from table Items where id = 1`

	mustExec(t, e, q, nil)
	hits, misses, _, size := e.PlanCacheStats()
	if hits != 0 || misses != 1 || size != 1 {
		t.Fatalf("after first exec: hits=%d misses=%d size=%d, want 0/1/1", hits, misses, size)
	}

	res := mustExec(t, e, q, nil)
	if got := cellStr(t, res, 0, 0, 0); got != "one" {
		t.Fatalf("cached plan returned %q, want %q", got, "one")
	}
	hits, misses, _, size = e.PlanCacheStats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("after second exec: hits=%d misses=%d size=%d, want 1/1/1", hits, misses, size)
	}
}

// Literal variants share a fingerprint (normalization collapses
// literals) but must each own a cache entry: folding bakes the literal
// into the plan.
func TestPlanCacheLiteralVariantsOwnEntries(t *testing.T) {
	e := planCacheEngine(t, 0)
	q1 := `select name from table Items where id = 1`
	q2 := `select name from table Items where id = 2`

	mustExec(t, e, q1, nil)
	mustExec(t, e, q2, nil)
	_, misses, _, size := e.PlanCacheStats()
	if misses != 2 || size != 2 {
		t.Fatalf("misses=%d size=%d, want 2/2 (one entry per literal variant)", misses, size)
	}

	r1 := mustExec(t, e, q1, nil)
	r2 := mustExec(t, e, q2, nil)
	if got := cellStr(t, r1, 0, 0, 0); got != "one" {
		t.Errorf("q1 from cache = %q, want one", got)
	}
	if got := cellStr(t, r2, 0, 0, 0); got != "two" {
		t.Errorf("q2 from cache = %q, want two", got)
	}
	hits, _, _, _ := e.PlanCacheStats()
	if hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
}

// A stored plan is keyed on what it read (DESIGN.md §12). A table-mode
// plan holds for any version of its source with the same schema: after a
// DML or ingest the next execution, from text or from a handle, reads the
// new version through the stored plan (a hit, never the old rows), and DDL
// of another table or a result under another name leaves it untouched.
// Only a source whose schema changed is re-planned: a miss and an eviction
// per slot.
func TestPlanSlotsKeyOnWhatTheyRead(t *testing.T) {
	const q = `select count(*) as c from table Items`
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, e *Engine)
		want   string
		// counts after the mutation and two more runs of both routes
		hits, misses, evictions int64
	}{
		{"dml", func(t *testing.T, e *Engine) { mustExec(t, e, `insert into Items values (4, 'four')`, nil) }, "4", 7, 2, 0},
		{"ddl", func(t *testing.T, e *Engine) { mustExec(t, e, `create table Other(id integer)`, nil) }, "3", 7, 2, 0},
		{"ingest", func(t *testing.T, e *Engine) {
			if err := e.IngestReader("Items", strings.NewReader("9,nine\n")); err != nil {
				t.Fatal(err)
			}
		}, "1", 7, 2, 0},
		// The into-select is analyzed itself: one more miss.
		{"select-into", func(t *testing.T, e *Engine) { mustExec(t, e, `select id from table Items into table Snap`, nil) }, "3", 7, 3, 0},
		{"new-schema", func(t *testing.T, e *Engine) { mustExec(t, e, `select name from table Items into table Items`, nil) }, "3", 5, 5, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := planCacheEngine(t, 0)
			p, err := e.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			run := func(want string) {
				t.Helper()
				res := mustExec(t, e, q, nil)
				if got := cellStr(t, res, 0, 0, 0); got != want {
					t.Fatalf("text count = %s, want %s (stale plan served?)", got, want)
				}
				if res, err = e.ExecPrepared(p, nil); err != nil {
					t.Fatal(err)
				}
				if got := cellStr(t, res, 0, 0, 0); got != want {
					t.Fatalf("prepared count = %s, want %s (stale plan served?)", got, want)
				}
			}
			run("3") // text: miss; handle: planned at Prepare, hit
			run("3") // both hit
			hits, misses, evictions, _ := e.PlanCacheStats()
			if hits != 3 || misses != 2 || evictions != 0 {
				t.Fatalf("before: hits=%d misses=%d evictions=%d, want 3/2/0", hits, misses, evictions)
			}
			tc.mutate(t, e)
			run(tc.want)
			run(tc.want)
			hits, misses, evictions, _ = e.PlanCacheStats()
			if hits != tc.hits || misses != tc.misses || evictions != tc.evictions {
				t.Fatalf("after: hits=%d misses=%d evictions=%d, want %d/%d/%d", hits, misses, evictions, tc.hits, tc.misses, tc.evictions)
			}
		})
	}
}

// Prepare analyzes a read-only script eagerly, so a semantic error in any
// statement fails the prepare; text execution analyzes statement by
// statement, so the results before the failing one come back with the
// error — on the first run and on the cached one.
func TestExecScriptKeepsResultsBeforeFailure(t *testing.T) {
	e := planCacheEngine(t, 0)
	const src = "select name from table Items where id = 3\nselect x from table Missing"
	if _, err := e.Prepare(src); err == nil || !strings.Contains(err.Error(), "statement 2") {
		t.Fatalf("Prepare error = %v, want one naming statement 2", err)
	}
	for run := 0; run < 2; run++ {
		res, err := e.ExecScript(src, nil)
		if err == nil || !strings.HasPrefix(err.Error(), "statement 2:") || errors.Is(err, ErrParse) {
			t.Fatalf("run %d: error = %v, want statement 2's semantic error", run, err)
		}
		if len(res) != 1 || cellStr(t, res, 0, 0, 0) != "three" {
			t.Fatalf("run %d: results before the failure = %+v, want statement 1's row", run, res)
		}
	}
	if _, err := e.ExecScript("select from from", nil); !errors.Is(err, ErrParse) {
		t.Fatalf("unparsable script: error %v does not match ErrParse", err)
	}
}

func TestPlanCacheCapacityEviction(t *testing.T) {
	e := planCacheEngine(t, 2)
	queries := []string{
		`select id from table Items`,
		`select name from table Items`,
		`select id, name from table Items`,
	}
	for _, q := range queries {
		mustExec(t, e, q, nil)
	}
	_, misses, evictions, size := e.PlanCacheStats()
	if size != 2 || evictions != 1 || misses != 3 {
		t.Fatalf("after 3 shapes at cap 2: misses=%d evictions=%d size=%d, want 3/1/2", misses, evictions, size)
	}
	// The least recently used shape (queries[0]) was the victim: running
	// it again is a miss, not a hit.
	mustExec(t, e, queries[0], nil)
	hits, misses, _, _ := e.PlanCacheStats()
	if hits != 0 || misses != 4 {
		t.Fatalf("re-run of evicted shape: hits=%d misses=%d, want 0/4", hits, misses)
	}
}

// A negative PlanCache turns all reuse off: no script is cached and a
// handle stores no plan, so every execute re-analyzes.
func TestPlanCacheDisabled(t *testing.T) {
	e := planCacheEngine(t, -1)
	q := `select name from table Items where id = 2`
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res := mustExec(t, e, q, nil)
		if got := cellStr(t, res, 0, 0, 0); got != "two" {
			t.Fatalf("run %d: got %q, want two", i, got)
		}
		if res, err = e.ExecPrepared(p, nil); err != nil || cellStr(t, res, 0, 0, 0) != "two" {
			t.Fatalf("run %d: prepared got %+v, %v", i, res, err)
		}
	}
	if p.stmts[0].plan.Load() != nil {
		t.Error("handle stored a plan with reuse disabled")
	}
	hits, misses, evictions, size := e.PlanCacheStats()
	if hits != 0 || misses != 0 || evictions != 0 || size != 0 {
		t.Fatalf("disabled cache counted: %d/%d/%d/%d", hits, misses, evictions, size)
	}
}

// TestConcurrentPrepareExecuteDML hammers one engine with concurrent
// prepared executes, fresh prepares and DML writers (run under -race by
// CI). The correctness property: a prepared execute may observe any
// committed prefix of the writes, but counts seen by one goroutine never
// go backwards, and once the writers are done an execute must see every
// row — a stored plan is never served over the superseded table
// version.
func TestConcurrentPrepareExecuteDML(t *testing.T) {
	e := planCacheEngine(t, 0)
	p, err := e.Prepare(`select count(*) as c from table Items`)
	if err != nil {
		t.Fatal(err)
	}

	const base = 3 // rows seeded by planCacheEngine
	const writers, perWriter = 2, 20
	stop := make(chan struct{})
	fail := make(chan string, 16)

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			last := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.ExecPrepared(p, nil)
				if err != nil {
					fail <- fmt.Sprintf("reader %d: %v", r, err)
					return
				}
				n := res[0].Table.Value(0, 0).Int()
				if n < last {
					fail <- fmt.Sprintf("reader %d: count went backwards %d -> %d", r, last, n)
					return
				}
				if n < base || n > base+writers*perWriter {
					fail <- fmt.Sprintf("reader %d: count %d outside [%d, %d]", r, n, base, base+writers*perWriter)
					return
				}
				last = n
			}
		}(r)
	}

	// Fresh prepares race the executes and the writers too: prepare runs
	// eager analysis against a pinned catalog version.
	var preparers sync.WaitGroup
	preparers.Add(1)
	go func() {
		defer preparers.Done()
		for i := 0; i < 10; i++ {
			if _, err := e.Prepare(`select id from table Items where id = 1`); err != nil {
				fail <- fmt.Sprintf("concurrent prepare: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ins := fmt.Sprintf(`insert into Items values (%d, 'w%d')`, 100+w*perWriter+i, w)
				if _, err := e.ExecScript(ins, nil); err != nil {
					fail <- fmt.Sprintf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	preparers.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// Every committed write must now be visible through the prepared
	// handle: an execute after DML reads the current table version rather
	// than the one the plan was bound to before the writes.
	res, err := e.ExecPrepared(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := res[0].Table.Value(0, 0).Int(); n != base+writers*perWriter {
		t.Fatalf("final count = %d, want %d", n, base+writers*perWriter)
	}
}

// pointsInto reports whether string s aliases any byte of buf's backing
// array — the heap check behind the no-pinning tests.
func pointsInto(s, buf string) bool {
	if len(s) == 0 || len(buf) == 0 {
		return false
	}
	sp := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	b0 := uintptr(unsafe.Pointer(unsafe.StringData(buf)))
	return sp >= b0 && sp < b0+uintptr(len(buf))
}

// A prepared handle must not retain the script buffer it was prepared
// from: the handle is long-lived (the server registry holds it), the
// buffer may be a huge request body.
func TestPreparedHandleDoesNotPinSourceBuffer(t *testing.T) {
	e := planCacheEngine(t, 0)
	// Build the source at runtime (no compile-time interning) with a fat
	// literal so aliasing any part of it would pin kilobytes.
	pad := strings.Repeat("x", 4096)
	src := `select name from table Items where id = 1 and name <> '` + pad + `'`
	p, err := e.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	assertDetached(t, "handle", p, src)
}

// assertDetached fails when anything a compiled script retains — its
// text, its statements' identities or their identifiers — aliases buf.
func assertDetached(t *testing.T, what string, p *Prepared, buf string) {
	t.Helper()
	if pointsInto(p.src, buf) {
		t.Errorf("%s: script text aliases the caller's buffer", what)
	}
	for i := range p.stmts {
		cs := &p.stmts[i]
		if pointsInto(cs.id.script, buf) || pointsInto(cs.id.norm, buf) {
			t.Errorf("%s: statement %d identity aliases the caller's buffer", what, i+1)
		}
		if sel, ok := cs.st.(*ast.Select); ok && pointsInto(sel.FromTable, buf) {
			t.Errorf("%s: statement %d table name aliases the caller's buffer", what, i+1)
		}
	}
}

// Script-cache entries outlive the request that created them, so neither
// the key text nor anything compiled from it may alias the caller's
// script buffer.
func TestPlanCacheDoesNotPinScriptBuffer(t *testing.T) {
	e := planCacheEngine(t, 0)
	pad := strings.Repeat("y", 4096)
	src := `select name from table Items where id = 2 and name <> '` + pad + `'`
	mustExec(t, e, src, nil)

	e.scripts.mu.Lock()
	defer e.scripts.mu.Unlock()
	if len(e.scripts.m) == 0 {
		t.Fatal("query was not cached")
	}
	for key, el := range e.scripts.m {
		if pointsInto(key, src) {
			t.Error("script cache key aliases the script buffer")
		}
		assertDetached(t, "cache entry", el.Value.(*Prepared), src)
	}
}

// Scripts that mutate the catalog are never cached and every
// literal-distinct insert is its own text, so executing one must retain
// nothing of the caller's buffer — not in the script cache, and not in
// the registry's statement layer (the fingerprint memo used to key on a
// slice of it). The buffer is collectable once the call returns.
func TestUncachedScriptDoesNotPinScriptBuffer(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		opts := DefaultOptions()
		opts.PlanCache = capacity
		opts.Obs = obs.New()
		e := New(opts)
		mustExec(t, e, `create table Items(id integer, name varchar(8192))`, nil)

		freed := make(chan struct{})
		func() {
			buf := []byte(`insert into Items values (7, '` + strings.Repeat("z", 4096) + `')`)
			runtime.SetFinalizer(&buf[0], func(*byte) { close(freed) })
			if _, err := e.ExecScript(unsafe.String(&buf[0], len(buf)), nil); err != nil {
				t.Fatal(err)
			}
		}()
		deadline := time.After(10 * time.Second)
		for collected := false; !collected; {
			runtime.GC()
			select {
			case <-freed:
				collected = true
			case <-deadline:
				t.Fatalf("PlanCache=%d: the insert script's buffer is still reachable after execution", capacity)
			case <-time.After(10 * time.Millisecond):
			}
		}
		if _, _, _, size := e.PlanCacheStats(); size != 0 {
			t.Errorf("PlanCache=%d: a mutating script was cached (size=%d)", capacity, size)
		}
	}
}

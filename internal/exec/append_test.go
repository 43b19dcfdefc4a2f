package exec

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graql/internal/bsbm"
	"graql/internal/value"
)

// appendDDL is a table with a varchar column, a one-to-one vertex type and
// a functional self-edge: every layer a write appends to.
const appendDDL = `
create table Node(id integer, prev integer, name varchar(8))
create vertex NodeVtx(id) from table Node
create edge prev with vertices (NodeVtx as A, NodeVtx as B)
where A.prev = B.id
ingest table Node node.csv
`

// newAppendEngine loads rows Node rows: row id points at id-1 and is named
// n<id>, or, with names > 0, c<id mod names>.
func newAppendEngine(tb testing.TB, rows, names int, reverse bool) *Engine {
	var csv strings.Builder
	for id := range rows {
		name := fmt.Sprintf("n%d", id)
		if names > 0 {
			name = fmt.Sprintf("c%d", id%names)
		}
		fmt.Fprintf(&csv, "%d,%d,%s\n", id, id-1, name)
	}
	opts := DefaultOptions()
	opts.Workers = 1
	opts.ReverseIndexes = reverse
	opts.FileOpener = memFS(map[string]string{"node.csv": csv.String()})
	e := New(opts)
	if _, err := e.ExecScript(appendDDL, nil); err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestWriteCostFollowsDelta: a one-row insert appends to the table, the
// vertex type and the functional edge type in place, so at 12N rows it
// allocates at most twice what it allocates at N. The reverse index is
// still transposed whole, so the pin holds with reverse indexes off; the
// ratio with them on is logged.
func TestWriteCostFollowsDelta(t *testing.T) {
	const small, inserts = 5000, 5
	perInsert := func(rows int, reverse bool) float64 {
		e := newAppendEngine(t, rows, 10, reverse)
		insert := func(i int) {
			mustExec(t, e, fmt.Sprintf("insert into Node values (%d, %d, 'c%d')", rows+i, rows+i-1, i%10), nil)
		}
		insert(0) // the first write after ingest copies ingest's exact arrays
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 1; i <= inserts; i++ {
			insert(i)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / inserts
	}
	for _, reverse := range []bool{false, true} {
		n, n12 := perInsert(small, reverse), perInsert(12*small, reverse)
		t.Logf("reverse indexes %v: one-row insert at %d rows %.1f KiB, at %d rows %.1f KiB: %.2fx",
			reverse, small, n/1024, 12*small, n12/1024, n12/n)
		if !reverse && n12 > 2*n {
			t.Errorf("a one-row insert at %d rows allocates %.2fx what it does at %d, want at most 2x", 12*small, n12/n, small)
		}
	}
}

// TestWhereScanFollowsMatches: the where scan of an update or delete
// allocates for the rows it matches, not for the table, so a 0-row update
// at 12N rows allocates at most twice what it allocates at N.
func TestWhereScanFollowsMatches(t *testing.T) {
	const small, updates = 5000, 5
	perUpdate := func(rows int) float64 {
		e := newAppendEngine(t, rows, 10, false)
		update := func() { mustExec(t, e, "update Node set name = 'x' where id = -1", nil) }
		update()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range updates {
			update()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / updates
	}
	n, n12 := perUpdate(small), perUpdate(12*small)
	t.Logf("0-row update at %d rows %.1f KiB, at %d rows %.1f KiB: %.2fx", small, n/1024, 12*small, n12/1024, n12/n)
	if n12 > 2*n {
		t.Errorf("a 0-row update at %d rows allocates %.2fx what it does at %d, want at most 2x", 12*small, n12/n, small)
	}
}

// TestNoMatchWritePublishesNothing: an update or delete whose where clause
// matches no row builds no table version, maintains no view, logs nothing
// and leaves the epoch, so a prepared graph select over the views of the
// table it names stays a plan-cache hit.
func TestNoMatchWritePublishesNothing(t *testing.T) {
	opts := DefaultOptions()
	opts.FileOpener = memFS(bsbm.Generate(bsbm.Config{ScaleFactor: 1, Seed: 42}).Files)
	e := New(opts)
	mustExec(t, e, bsbm.FullDDL, nil)
	p, err := e.Prepare(`select p.country as pc, v.country as vc from graph def p: ProducerCountry ( ) --export--> def v: VendorCountry ( ) into table Exports`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecPrepared(p, nil); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		`update Products set id = id where id = 'no-such-product'`,
		`delete from Products where id = 'no-such-product'`,
	} {
		epoch, g, products := e.Cat.Epoch(), e.Cat.Graph(), e.Cat.Table("Products")
		hits, misses, _, _ := e.PlanCacheStats()
		res := mustExec(t, e, stmt, nil)
		if !strings.Contains(res[0].Message, " 0 row(s)") {
			t.Errorf("%s: %q, want 0 rows", stmt, res[0].Message)
		}
		if e.Cat.Epoch() != epoch || e.Cat.Graph() != g || e.Cat.Table("Products") != products {
			t.Errorf("%s: matched no row, yet published (epoch %d -> %d)", stmt, epoch, e.Cat.Epoch())
		}
		if _, err := e.ExecPrepared(p, nil); err != nil {
			t.Fatal(err)
		}
		h, m, _, _ := e.PlanCacheStats()
		if h != hits+1 || m != misses {
			t.Errorf("%s: the prepared select over export counted %+d hits, %+d misses; want +1, +0", stmt, h-hits, m-misses)
		}
	}
}

// TestAppendedVersionsNeverTorn: while a writer inserts (new varchar
// values included), updates and deletes runs and single rows, readers pin
// versions and check every row, every vertex and the edge type, and look
// up keys and strings that only later versions hold: each must miss. A
// multi-row insert whose second row fails publishes nothing, and the
// insert after it reads back exactly its own rows. Run under -race it
// checks that appending into capacity a published version shares writes
// nothing any reader reads.
func TestAppendedVersionsNeverTorn(t *testing.T) {
	const rows, steps, readers = 200, 60, 3
	e := newAppendEngine(t, rows, 0, true)
	var reserved atomic.Int64 // every id any version holds is below it
	reserved.Store(rows)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers+1)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		exec := func(stmt string) bool {
			if _, err := e.ExecScript(stmt, nil); err != nil {
				fail("%s: %v", stmt, err)
				return false
			}
			return true
		}
		lo := int64(0)
		for i := range steps {
			id := reserved.Add(3) - 3
			if !exec(fmt.Sprintf("insert into Node values (%d, %d, 'n%d'), (%d, %d, 'n%d'), (%d, %d, 'n%d')",
				id, id-1, id, id+1, id, id+1, id+2, id+1, id+2)) {
				return
			}
			if !exec(fmt.Sprintf("update Node set prev = id - 1, name = name where id = %d", lo+int64(i%7)+3)) {
				return
			}
			switch i % 4 {
			case 1: // the oldest rows: one run survives
				lo += 2
				if !exec(fmt.Sprintf("delete from Node where id < %d", lo)) {
					return
				}
			case 3: // a row in the middle
				if !exec(fmt.Sprintf("delete from Node where id = %d", lo+int64(i))) {
					return
				}
			}
			if i%5 == 2 {
				id := reserved.Add(2) - 2
				bad := fmt.Sprintf("insert into Node values (%d, %d, 'n%d'), (%d, %d, 'toolongname')", id, id-1, id, id+1, id)
				if _, err := e.ExecScript(bad, nil); err == nil {
					fail("%s: want a varchar(8) error", bad)
					return
				}
				if got := e.Cat.Table("Node"); got.NumRows() > 0 && got.Value(uint32(got.NumRows()-1), 0).Int() >= id {
					fail("%s: its first row became visible", bad)
					return
				}
				if !exec(fmt.Sprintf("insert into Node values (%d, %d, 'n%d'), (%d, %d, 'n%d')", id, id-1, id, id+1, id, id+1)) {
					return
				}
				got := e.Cat.Table("Node")
				for k, r := int64(0), uint32(got.NumRows()-2); k < 2; k, r = k+1, r+1 {
					if got.Value(r, 0).Int() != id+k || got.Value(r, 1).Int() != id+k-1 || got.Value(r, 2).Str() != fmt.Sprintf("n%d", id+k) {
						fail("the insert after a failed one reads back %v, want its row %d", got.Row(r), id+k)
						return
					}
				}
			}
		}
	}()

	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := e.Cat.Pin()
				next := reserved.Load()
				tb, g := snap.Table("Node"), snap.Graph()
				vt, et := g.VertexType("NodeVtx"), g.EdgeType("prev")
				if vt.Base != tb || vt.Count() != tb.NumRows() {
					fail("pinned NodeVtx over %d rows has %d vertices", tb.NumRows(), vt.Count())
					return
				}
				for r := range uint32(tb.NumRows()) {
					id := tb.Value(r, 0).Int()
					if tb.Value(r, 1).Int() != id-1 || tb.Value(r, 2).Str() != fmt.Sprintf("n%d", id) {
						fail("torn row %d: %v", r, tb.Row(r))
						return
					}
					if v, ok := vt.LookupKeyValues([]value.Value{value.NewInt(id)}); !ok || vt.AttrValue(v, 0).Int() != id {
						fail("key %d: vertex %d, found %v", id, v, ok)
						return
					}
				}
				if err := vt.Validate(); err != nil {
					fail("pinned vertex type: %v", err)
					return
				}
				if err := et.Validate(); err != nil {
					fail("pinned edge type: %v", err)
					return
				}
				var later []value.Value
				for id := next; id < next+6; id++ {
					if _, ok := vt.LookupKeyValues([]value.Value{value.NewInt(id)}); ok {
						fail("key %d of a later version found in a pinned one", id)
						return
					}
					later = append(later, value.NewString(fmt.Sprintf("n%d", id)))
				}
				err := tb.MatchColumn(2, nil, later, func(r uint32, j int) error {
					return fmt.Errorf("string %v of a later version found at row %d", later[j], r)
				})
				if err != nil {
					fail("%v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

package exec

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graql/internal/storage"
	"graql/internal/value"
)

func newDurableEngine(t *testing.T, dir string, files map[string]string) *Engine {
	t.Helper()
	st, err := storage.Open(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e := newTestEngine(files)
	if err := e.AttachStore(st); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	return e
}

// assertSameState compares two engines' tables, catalog statistics and
// edge sets — the recovered engine must be indistinguishable from the one
// that never crashed.
func assertSameState(t *testing.T, want, got *Engine, tables []string) {
	t.Helper()
	for _, tbl := range tables {
		q := `select * from table ` + tbl
		w := tableRows(t, mustExec(t, want, q, nil))
		g := tableRows(t, mustExec(t, got, q, nil))
		if !reflect.DeepEqual(w, g) {
			t.Errorf("table %s diverged after recovery:\nwant %v\ngot  %v", tbl, w, g)
		}
	}
	if !reflect.DeepEqual(want.Cat.Stats(), got.Cat.Stats()) {
		t.Errorf("catalog stats diverged:\nwant %+v\ngot  %+v", want.Cat.Stats(), got.Cat.Stats())
	}
	wet, get := want.Cat.Graph().EdgeType("rel"), got.Cat.Graph().EdgeType("rel")
	if (wet == nil) != (get == nil) {
		t.Fatalf("edge view presence diverged: want %v, got %v", wet != nil, get != nil)
	}
	if wet != nil {
		if !reflect.DeepEqual(canonicalEdges(wet), canonicalEdges(get)) {
			t.Errorf("edge sets diverged after recovery")
		}
		if err := get.Validate(); err != nil {
			t.Errorf("recovered edge index invalid: %v", err)
		}
	}
}

const durableScript = dmlViewScript + `
insert into Person values (1, 'rome'), (2, 'oslo'), (3, 'rome')
insert into Knows values (1, 2, 2020), (2, 3, 2021)
update Person set city = 'lima' where id = 2
delete from Knows where since < 2021
insert into Knows values (3, 1, 2022)
`

func TestRecoverFromWAL(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{"extra.csv": "10,osaka\n11,kyoto\n"}
	e := newDurableEngine(t, dir, files)
	mustExec(t, e, durableScript, nil)
	mustExec(t, e, `create table Extra(id integer, city varchar(8))
ingest table Extra extra.csv`, nil)
	mustExec(t, e, `select id from table Person where city = 'rome' into table Romans`, nil)
	mustExec(t, e, `insert into Person values (%i%, 'rome')`,
		map[string]value.Value{"i": value.NewInt(4)})

	// Crash: the store is never checkpointed and never cleanly shut down.
	// A fresh engine must rebuild the identical state from the WAL alone.
	rec := newDurableEngine(t, dir, nil) // no FileOpener: ingest replays as rows
	assertSameState(t, e, rec, []string{"Person", "Knows", "Extra", "Romans"})

	// The recovered engine keeps working and re-recovers.
	mustExec(t, rec, `insert into Person values (5, 'oslo')`, nil)
	rec2 := newDurableEngine(t, dir, nil)
	assertSameState(t, rec, rec2, []string{"Person", "Knows", "Extra", "Romans"})
}

func TestRecoverAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, nil)
	mustExec(t, e, durableScript, nil)
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if e.Store().WALSize() != 0 {
		t.Errorf("WAL not truncated by checkpoint")
	}
	// Post-checkpoint writes land in the WAL tail.
	mustExec(t, e, `insert into Person values (7, 'kiev')
update Knows set since = since + 1 where src = 3`, nil)

	rec := newDurableEngine(t, dir, nil)
	assertSameState(t, e, rec, []string{"Person", "Knows"})
}

func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, nil)
	mustExec(t, e, `create table T(n integer)`, nil)
	for i := 0; i < 5; i++ {
		mustExec(t, e, `insert into T values (%n%)`,
			map[string]value.Value{"n": value.NewInt(int64(i))})
	}

	// A crash mid-append leaves a partial frame at the end of the log.
	wal := filepath.Join(dir, "wal.gqw")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xAB, 0xCD, 0xEF})
	f.Close()

	rec := newDurableEngine(t, dir, nil)
	rows := tableRows(t, mustExec(t, rec, `select n from table T order by n asc`, nil))
	want := [][]string{{"0"}, {"1"}, {"2"}, {"3"}, {"4"}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("acknowledged rows lost: %v, want %v", rows, want)
	}
	// The torn bytes must not poison later appends.
	mustExec(t, rec, `insert into T values (5)`, nil)
	rec2 := newDurableEngine(t, dir, nil)
	rows = tableRows(t, mustExec(t, rec2, `select count(*) as c from table T`, nil))
	if !reflect.DeepEqual(rows, [][]string{{"6"}}) {
		t.Errorf("count after torn-tail recovery = %v, want 6", rows)
	}
}

// TestWALRowNamesFsyncPolicy: on a store opened with fsync off, DML
// EXPLAIN and EXPLAIN ANALYZE say the append is not fsynced.
func TestWALRowNamesFsyncPolicy(t *testing.T) {
	st, err := storage.Open(t.TempDir(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e := newTestEngine(nil)
	if err := e.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `create table T(id integer)`, nil)
	for q, want := range map[string]string{
		`explain insert into T values (1)`:         "append statement record, no fsync",
		`explain analyze insert into T values (1)`: "append, no fsync",
	} {
		tb := mustExec(t, e, q, nil)[0].Table
		found := false
		for r := uint32(0); r < uint32(tb.NumRows()); r++ {
			if tb.Value(r, 1).Str() == "wal" {
				found = true
				if got := tb.Value(r, 2).Str(); got != want {
					t.Errorf("%s: wal detail %q, want %q", q, got, want)
				}
			}
		}
		if !found {
			t.Errorf("%s: no wal row", q)
		}
	}
}

package exec

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"graql/internal/storage"
)

// TestFailedLogPublishesNothing: every kind of write whose WAL append
// fails leaves the catalog, its epoch and the type-id sequence exactly as
// they were, because a write is logged before it is published.
func TestFailedLogPublishesNothing(t *testing.T) {
	st, err := storage.Open(filepath.Join(t.TempDir(), "store"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(map[string]string{"person.csv": "7,lima\n"})
	if err := e.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, dmlViewScript+`insert into Person values (1, 'rome'), (2, 'oslo')
insert into Knows values (1, 2, 2020)`, nil)
	epoch, g, person := e.Cat.Epoch(), e.Cat.Graph(), e.Cat.Table("Person")
	const edgeDDL = `create edge rel2 with vertices (P as A, P as B) from table Knows
where Knows.src = A.id and Knows.dst = B.id`

	st.Close() // every WAL append fails from here on
	for _, stmt := range []string{
		`create table X(a integer)`,
		`create vertex Y(since) from table Knows`,
		edgeDDL,
		`ingest table Person person.csv`,
		`insert into Person values (9, 'nuuk')`,
		`update Person set city = 'nuuk'`,
		`delete from Person`,
		`select id from table Person into table R`,
	} {
		if _, err := e.ExecScript(stmt, nil); err == nil {
			t.Errorf("%s with a dead WAL: want an error", stmt)
		}
		if e.Cat.Epoch() != epoch || e.Cat.Graph() != g || e.Cat.Table("Person") != person ||
			e.Cat.Table("X") != nil || e.Cat.Table("R") != nil {
			t.Fatalf("%s: the failed write was published (epoch %d -> %d)", stmt, epoch, e.Cat.Epoch())
		}
	}
	if err := e.IngestReader("Person", strings.NewReader("8,kiev\n")); err == nil {
		t.Error("IngestReader with a dead WAL: want an error")
	}
	if e.Cat.Epoch() != epoch || e.Cat.Table("Person") != person {
		t.Fatal("IngestReader: the failed write was published")
	}

	// Without the store the same creates succeed, under the next ids:
	// the failures above consumed none.
	e.store = nil
	mustExec(t, e, `create vertex Y(since) from table Knows
`+edgeDDL, nil)
	if vt, et := e.Cat.Graph().VertexType("Y"), e.Cat.Graph().EdgeType("rel2"); vt.ID != 2 || et.ID != 1 {
		t.Errorf("type ids after failed creates: vertex %d (want 2), edge %d (want 1)", vt.ID, et.ID)
	}
}

// TestAutoCheckpointCoversEveryWrite: select-into results and IngestReader
// grow the WAL like any other write, so they trigger the automatic
// checkpoint too.
func TestAutoCheckpointCoversEveryWrite(t *testing.T) {
	st, err := storage.Open(filepath.Join(t.TempDir(), "store"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := newTestEngine(nil)
	if err := e.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `create table Big(id integer, s varchar(64))`, nil)
	var csv strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&csv, "%d,%s%d\n", i, strings.Repeat("x", 48), i)
	}
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"IngestReader", func() error { return e.IngestReader("Big", strings.NewReader(csv.String())) }},
		{"into table", func() error {
			_, err := e.ExecScript(`select id, s from table Big into table R`, nil)
			return err
		}},
	} {
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		const writes = 10
		for i := 0; i < writes; i++ {
			before := st.WALSize()
			if err := w.write(); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if grew := st.WALSize() - before; i == 0 && grew*writes <= checkpointWALBytes {
				t.Fatalf("%s: %d writes of %d WAL bytes never cross the threshold", w.name, writes, grew)
			}
		}
		if n := st.WALSize(); n >= checkpointWALBytes {
			t.Errorf("%s: WAL is %d bytes, past the %d-byte checkpoint threshold", w.name, n, checkpointWALBytes)
		}
	}
}

// stall holds a writer mid-file: wait signals reached, then blocks until
// release is closed.
type stall struct {
	reached, release chan struct{}
	once             sync.Once
}

func newStall() *stall {
	return &stall{reached: make(chan struct{}), release: make(chan struct{})}
}

func (s *stall) wait() { s.once.Do(func() { close(s.reached); <-s.release }) }

// stallReader hands out head, stalls, then hands out tail.
type stallReader struct {
	s          *stall
	head, tail io.Reader
}

func (r *stallReader) Read(p []byte) (int, error) {
	if n, err := r.head.Read(p); err != io.EOF {
		return n, err
	}
	r.s.wait()
	return r.tail.Read(p)
}

func (r *stallReader) Close() error { return nil }

// stallWriter stalls on its first write.
type stallWriter struct{ s *stall }

func (w stallWriter) Write(p []byte) (int, error) { w.s.wait(); return len(p), nil }
func (w stallWriter) Close() error                { return nil }

// TestSlowWriterDoesNotHoldReaders: an ingest reading its file, an output
// writing its file and an IngestReader over a slow reader each stall
// mid-file, and a select on another table still finishes meanwhile.
func TestSlowWriterDoesNotHoldReaders(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "%d,%d,%d.5\n", i, i-1, i)
	}
	csv := b.String()
	slow := func(s *stall) *stallReader {
		return &stallReader{s: s, head: strings.NewReader(csv[:len(csv)/2]), tail: strings.NewReader(csv[len(csv)/2:])}
	}
	for _, c := range []struct {
		name string
		run  func(e *Engine, s *stall) error
	}{
		{"ingest", func(e *Engine, s *stall) error {
			e.Opts.FileOpener = func(string) (io.ReadCloser, error) { return slow(s), nil }
			_, err := e.ExecScript(`ingest table Node node.csv`, nil)
			return err
		}},
		{"output", func(e *Engine, s *stall) error {
			if err := e.IngestReader("Node", strings.NewReader(csv)); err != nil {
				return err
			}
			e.Opts.FileCreator = func(string) (io.WriteCloser, error) { return stallWriter{s}, nil }
			_, err := e.ExecScript(`output table Node node.out`, nil)
			return err
		}},
		{"IngestReader", func(e *Engine, s *stall) error { return e.IngestReader("Node", slow(s)) }},
	} {
		e := newTestEngine(nil)
		mustExec(t, e, strings.Replace(selfEdgeDDL, "ingest table Node node.csv", "", 1)+`
create table Other(a integer)
insert into Other values (1), (2)`, nil)
		s := newStall()
		done := make(chan error, 1)
		go func() { done <- c.run(e, s) }()
		select {
		case <-s.reached:
		case err := <-done:
			t.Fatalf("%s finished without stalling: %v", c.name, err)
		}
		// The timer frees the writer if the select waits on it, so a
		// failure cannot hang the test.
		timer := time.AfterFunc(500*time.Millisecond, func() { close(s.release) })
		start := time.Now()
		_, err := e.ExecScript(`select a from table Other`, nil)
		if !timer.Stop() {
			t.Errorf("%s: a select on another table waited %v for the stalled writer", c.name, time.Since(start))
		} else {
			close(s.release)
		}
		if err != nil {
			t.Errorf("%s: select beside it: %v", c.name, err)
		}
		if err := <-done; err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if n := e.Cat.Table("Node").NumRows(); n != 2000 {
			t.Errorf("%s: Node has %d rows, want 2000", c.name, n)
		}
	}
}

// TestIntoTableCannotReplaceViewTable: a select into a table a vertex or
// edge view is declared over is refused (GQL0108). Publishing it would
// leave the views over the old rows, and the next write to the table
// would patch them against rows they do not index.
func TestIntoTableCannotReplaceViewTable(t *testing.T) {
	e := semaEngine(t)
	for _, q := range []string{
		`select id, n from table TA where n > 1 into table TA`,
		`select src, dst, w from table TE where w > 2 into table TE`,
	} {
		if _, err := e.ExecScript(q, nil); err == nil || !strings.Contains(err.Error(), "GQL0108") {
			t.Errorf("%s: err = %v, want GQL0108", q, err)
		}
	}
	const vertices = `select a.id from graph def a: A ( )`
	if n := len(tableRows(t, mustExec(t, e, vertices, nil))); n != 4 {
		t.Fatalf("A has %d vertices, want the 4 of TA", n)
	}
	mustExec(t, e, `insert into TA values ('a9', 9)`, nil)
	if n := len(tableRows(t, mustExec(t, e, vertices, nil))); n != 5 {
		t.Errorf("A has %d vertices after the insert, want 5", n)
	}
	mustExec(t, e, `select id, n from table TA where n > 1 into table Big`, nil)

	// An edge's where-clause qualifier naming an endpoint alias reads the
	// vertex view, not a table of that name.
	v := newTestEngine(nil)
	mustExec(t, v, dmlViewScript+`select id from table Person into table A`, nil)
}

// TestIntoTableRacesViewDDL: GQL0108 is decided where the result is
// published, under the writer mutex, not only when the select is
// analyzed. A select into T races a create vertex and a create edge over
// T: in every trial either the select fails with GQL0108, or it published
// first and both views read its rows. Either way each view indexes
// exactly T's rows, before and after an insert into T maintains them.
func TestIntoTableRacesViewDDL(t *testing.T) {
	trials := 400
	if raceEnabled {
		trials = 60
	}
	var setup strings.Builder
	setup.WriteString(`create table N(id integer)
create table S(id integer)
create table T(id integer)
create vertex NV(id) from table N
insert into N values (2000), (2001)
insert into T values (2000)
`)
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&setup, "insert into N values (%d)\ninsert into S values (%d)\n", i, i)
	}
	stmts := []string{
		`select id from table S into table T`,
		`create vertex V(id) from table T`,
		`create edge ET with vertices (NV as A, NV as B) from table T where T.id = A.id and T.id = B.id`,
	}
	refused := 0
	for trial := 0; trial < trials; trial++ {
		e := newTestEngine(nil)
		mustExec(t, e, setup.String(), nil)
		errs := make([]error, len(stmts))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for k, st := range stmts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[k] = e.ExecScript(st, nil)
			}()
		}
		close(start)
		wg.Wait()
		if errs[1] != nil || errs[2] != nil {
			t.Fatalf("trial %d: create vertex: %v; create edge: %v", trial, errs[1], errs[2])
		}
		if errs[0] != nil {
			if !strings.Contains(errs[0].Error(), "GQL0108") {
				t.Fatalf("trial %d: select into T: %v, want GQL0108", trial, errs[0])
			}
			refused++
		}
		check := func(when string) {
			t.Helper()
			rows := e.Cat.Table("T").NumRows()
			vs, es := e.Cat.Graph().VertexType("V").Count(), e.Cat.Graph().EdgeType("ET").Count()
			if vs != rows || es != rows {
				t.Fatalf("trial %d, %s (select err %v): T has %d rows, V %d vertices, ET %d edges", trial, when, errs[0], rows, vs, es)
			}
		}
		check("after the race")
		mustExec(t, e, `insert into T values (2001)`, nil)
		check("after an insert into T")
	}
	t.Logf("%d of %d selects refused with GQL0108", refused, trials)
}

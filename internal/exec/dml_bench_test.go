package exec

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"graql/internal/value"
)

// selfEdgeDDL is the write_mixed schema of the repository benchmark: a
// one-to-one vertex type and a self-edge joining a vertex attribute to
// the same type's key.
const selfEdgeDDL = `
create table Node(id integer, prev integer, val float)
create vertex NodeVtx(id) from table Node
create edge prev with vertices (NodeVtx as A, NodeVtx as B)
where A.prev = B.id
ingest table Node node.csv
`

// newSelfEdgeEngine loads rows Node rows, each pointing a few ids back.
func newSelfEdgeEngine(tb testing.TB, rows int) *Engine {
	var csv strings.Builder
	for id := 0; id < rows; id++ {
		fmt.Fprintf(&csv, "%d,%d,%d.5\n", id, max(id-1-id%7, 0), id)
	}
	opts := DefaultOptions()
	opts.Workers = 1
	opts.FileOpener = func(string) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(csv.String())), nil
	}
	e := New(opts)
	if _, err := e.ExecScript(selfEdgeDDL, nil); err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkDMLSelfEdge times each verb of the write_mixed op on its own,
// at constant table size — insert 20 rows, update one, delete the 20
// oldest, read one vertex one hop out — and then the whole op (one of
// each write and four reads), which is the one to profile.
func BenchmarkDMLSelfEdge(b *testing.B) {
	const rows, batch = 8000, 20
	e := newSelfEdgeEngine(b, rows)
	prep := func(src string) *Prepared {
		p, err := e.Prepare(src)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	upd := prep(`update Node set val = %Val% where id = %Id%`)
	del := prep(`delete from Node where id < %Cut%`)
	read := prep(`select b.id, b.val from graph NodeVtx (id = %Id%) --prev--> def b: NodeVtx`)
	lo, hi := 0, rows
	insert := func() {
		var sb strings.Builder
		sb.WriteString("insert into Node values ")
		for i := 0; i < batch; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d.25)", hi+i, hi+i-1-i%7, i)
		}
		if _, err := e.ExecScript(sb.String(), nil); err != nil {
			b.Fatal(err)
		}
		hi += batch
	}
	remove := func() {
		lo += batch
		if _, err := e.ExecPrepared(del, map[string]value.Value{"Cut": value.NewInt(int64(lo))}); err != nil {
			b.Fatal(err)
		}
	}
	update := func(i int) {
		id := int64(lo + 50 + i%1000)
		if _, err := e.ExecPrepared(upd, map[string]value.Value{"Id": value.NewInt(id), "Val": value.NewFloat(float64(i) + 0.5)}); err != nil {
			b.Fatal(err)
		}
	}
	readOne := func(i int) {
		id := int64(lo + 50 + i%1000)
		res, err := e.ExecPrepared(read, map[string]value.Value{"Id": value.NewInt(id)})
		if err != nil || res[0].Table.NumRows() != 1 {
			b.Fatalf("read %d: %v %v", id, res, err)
		}
	}
	b.Run("insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			insert()
			b.StopTimer()
			remove()
			b.StartTimer()
		}
	})
	b.Run("update", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			update(i)
		}
	})
	b.Run("delete", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			remove()
			b.StopTimer()
			insert()
			b.StartTimer()
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			readOne(i)
		}
	})
	b.Run("op", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			insert()
			update(i)
			remove()
			for r := 0; r < 4; r++ {
				readOne(4*i + r)
			}
		}
	})
}

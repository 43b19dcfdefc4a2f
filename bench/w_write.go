package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graql/internal/exec"
	"graql/internal/obs"
	"graql/internal/storage"
	"graql/internal/value"
)

// write_mixed keeps a durable table with a vertex view and an edge view
// at constant size while writing to it: every op inserts writeBatch
// rows, updates one, deletes the writeBatch oldest and reads four live
// vertices one hop out. The driver keeps a model of the table; reads
// are checked against it, and the run ends by reopening the store and
// comparing what recovery rebuilt with the model.

const (
	writeRows  = 8000
	writeBatch = 20
	writeReads = 4
	// backSpan bounds how far back a row's prev pointer reaches, so a
	// row outside the oldest writeBatch+backSpan always has its target.
	backSpan = 8
	// tailOps run after the checkpoint, so recovery has both a snapshot
	// to load and a WAL tail to replay.
	tailOps = 16
)

const writeDDL = `
create table Node(id integer, prev integer, val float)
create vertex NodeVtx(id) from table Node
create edge prev with vertices (NodeVtx as A, NodeVtx as B)
where A.prev = B.id
ingest table Node node.csv
`

const (
	writeUpdate = `update Node set val = %Val% where id = %Id%`
	writeDelete = `delete from Node where id < %Cut%`
	writeRead   = `select b.id, b.val from graph NodeVtx (id = %Id%) --prev--> def b: NodeVtx`
)

type nodeRow struct {
	prev int64
	val  float64
}

type writeInstance struct {
	rows  int
	dir   string
	reg   *obs.Registry
	eng   *exec.Engine
	store *storage.Store
	rng   *rand.Rand

	update, del, read *exec.Prepared

	// The model: ids lo..hi-1 are live.
	lo, hi int64
	model  map[int64]nodeRow
}

func (in *writeInstance) newRow(id int64) nodeRow {
	prev := id - 1 - int64(in.rng.Intn(backSpan))
	if prev < 0 {
		prev = 0
	}
	return nodeRow{prev: prev, val: in.newVal()}
}

// newVal draws a value that always has a fractional part, so its
// literal is a float literal.
func (in *writeInstance) newVal() float64 { return float64(in.rng.Intn(1_000_000))/4 + 0.125 }

func setupWriteMixed(cfg setupConfig) (instance, error) {
	in := &writeInstance{
		rows: writeRows, reg: obs.New(),
		rng: rand.New(rand.NewSource(cfg.seed ^ 0x771e)), model: map[int64]nodeRow{},
	}
	if cfg.smoke {
		in.rows = 1000
	}
	dir, err := os.MkdirTemp(cfg.tmp, "graql-bench-store-")
	if err != nil {
		return nil, err
	}
	in.dir = dir

	t0 := time.Now()
	var csv strings.Builder
	for id := int64(0); id < int64(in.rows); id++ {
		r := in.newRow(id)
		in.model[id] = r
		fmt.Fprintf(&csv, "%d,%d,%s\n", id, r.prev, value.NewFloat(r.val).String())
	}
	in.hi = int64(in.rows)
	gen := time.Since(t0)

	t0 = time.Now()
	opts := serverOptions(in.reg)
	opts.FileOpener = func(string) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(csv.String())), nil
	}
	in.eng = exec.New(opts)
	if in.store, err = storage.Open(filepath.Join(dir, "store"), true, in.reg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := in.eng.AttachStore(in.store); err != nil {
		in.close()
		return nil, err
	}
	if _, err := in.eng.ExecScript(writeDDL, nil); err != nil {
		in.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	in.eng.Opts.FileOpener = nil
	for _, p := range []struct {
		h   **exec.Prepared
		src string
	}{{&in.update, writeUpdate}, {&in.del, writeDelete}, {&in.read, writeRead}} {
		if *p.h, err = in.eng.Prepare(p.src); err != nil {
			in.close()
			return nil, err
		}
	}
	if cfg.phases != nil {
		cfg.phases["generate"] = gen
		cfg.phases["load"] = time.Since(t0)
	}
	return in, nil
}

func (in *writeInstance) clients() int  { return 1 }
func (in *writeInstance) oracle() error { return nil } // the model is the oracle

func (in *writeInstance) newClient(int) (client, error) { return in, nil }

// do is one write/read cycle. The instance is its own (single) client:
// the model and the table must change together.
func (in *writeInstance) do(op int64, tr *tracer, parent int) (time.Duration, error) {
	var lat time.Duration
	step := func(span string, fn func() ([]exec.Result, error)) ([]exec.Result, error) {
		sp := tr.begin(span, parent, op)
		t0 := time.Now()
		rs, err := fn()
		lat += time.Since(t0)
		tr.end(sp)
		return rs, err
	}
	expectMsg := func(rs []exec.Result, want string) error {
		if len(rs) != 1 || rs[0].Message != want {
			return fmt.Errorf("reply %+v, want %q", rs, want)
		}
		return nil
	}

	// Insert writeBatch rows in one statement, literals inlined as an
	// application building a bulk insert would.
	var sb strings.Builder
	sb.WriteString("insert into Node values ")
	fresh := make([]nodeRow, writeBatch)
	for i := range fresh {
		id := in.hi + int64(i)
		fresh[i] = in.newRow(id)
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %s)", id, fresh[i].prev, value.NewFloat(fresh[i].val).String())
	}
	rs, err := step("exec.dml_insert", func() ([]exec.Result, error) { return in.eng.ExecScript(sb.String(), nil) })
	if err != nil {
		return lat, fmt.Errorf("insert: %w", err)
	}
	for i, r := range fresh {
		in.model[in.hi+int64(i)] = r
	}
	in.hi += writeBatch
	if err := expectMsg(rs, fmt.Sprintf("inserted %d row(s) into Node", writeBatch)); err != nil {
		return lat, err
	}

	// Update one live row that survives this op's delete.
	id := in.lo + writeBatch + in.rng.Int63n(in.hi-in.lo-writeBatch)
	val := in.newVal()
	rs, err = step("exec.dml_update", func() ([]exec.Result, error) {
		return in.eng.ExecPrepared(in.update, map[string]value.Value{"Id": value.NewInt(id), "Val": value.NewFloat(val)})
	})
	if err != nil {
		return lat, fmt.Errorf("update: %w", err)
	}
	in.model[id] = nodeRow{prev: in.model[id].prev, val: val}
	if err := expectMsg(rs, "updated 1 row(s) in Node"); err != nil {
		return lat, err
	}

	// Delete the writeBatch oldest rows.
	cut := in.lo + writeBatch
	rs, err = step("exec.dml_delete", func() ([]exec.Result, error) {
		return in.eng.ExecPrepared(in.del, map[string]value.Value{"Cut": value.NewInt(cut)})
	})
	if err != nil {
		return lat, fmt.Errorf("delete: %w", err)
	}
	for d := in.lo; d < cut; d++ {
		delete(in.model, d)
	}
	in.lo = cut
	if err := expectMsg(rs, fmt.Sprintf("deleted %d row(s) from Node", writeBatch)); err != nil {
		return lat, err
	}

	// One-hop reads from live vertices whose target is live too.
	type readReply struct {
		id int64
		rs []exec.Result
	}
	reads := make([]readReply, writeReads)
	for i := range reads {
		rid := in.lo + backSpan + in.rng.Int63n(in.hi-in.lo-backSpan)
		rs, err := step("exec.dml_read", func() ([]exec.Result, error) {
			return in.eng.ExecPrepared(in.read, map[string]value.Value{"Id": value.NewInt(rid)})
		})
		if err != nil {
			return lat, fmt.Errorf("read: %w", err)
		}
		reads[i] = readReply{rid, rs}
	}
	sp := tr.begin("bench.check", parent, op)
	defer tr.end(sp)
	for _, r := range reads {
		target := in.model[r.id].prev
		want := fmt.Sprintf("%d|%s", target, value.NewFloat(in.model[target].val).String())
		t := r.rs[0].Table
		if len(r.rs) != 1 || t == nil || t.NumRows() != 1 {
			return lat, fmt.Errorf("read of %d: want one row %s, got %+v", r.id, want, r.rs)
		}
		if got := t.Value(0, 0).String() + "|" + t.Value(0, 1).String(); got != want {
			return lat, fmt.Errorf("read of %d: row %s, model has %s", r.id, got, want)
		}
	}
	return lat, nil
}

func (in *writeInstance) counters() map[string]float64 {
	c := map[string]float64{}
	for key, name := range map[string]string{
		"wal_bytes":   "graql_wal_appended_bytes_total",
		"wal_records": "graql_wal_records_total",
		"inserted":    "graql_rows_inserted_total",
		"updated":     "graql_rows_updated_total",
		"deleted":     "graql_rows_deleted_total",
	} {
		c[key] = float64(in.reg.Counter(name, "").Value())
	}
	c["fsync_s"] = in.reg.Histogram("graql_wal_fsync_seconds", "", obs.LatencyBuckets()).Sum()
	in.eng.Cat.RLock()
	c["epoch"] = float64(in.eng.Cat.Epoch())
	in.eng.Cat.RUnlock()
	return c
}

// modelChecksum and tableChecksum are the order-independent sum of one
// FNV hash per row; the first comes from the driver's model, the second
// from what the program holds.
func (in *writeInstance) modelChecksum() (int, uint64) {
	var sum uint64
	for id, r := range in.model {
		sum += uint64(fnv(fnvOffset).str(fmt.Sprint(id)).str(fmt.Sprint(r.prev)).str(value.NewFloat(r.val).String()))
	}
	return len(in.model), sum
}

func tableChecksum(eng *exec.Engine) (int, uint64, error) {
	eng.Cat.RLock()
	defer eng.Cat.RUnlock()
	t := eng.Cat.Table("Node")
	if t == nil {
		return 0, 0, fmt.Errorf("table Node missing")
	}
	var sum uint64
	for row := uint32(0); row < uint32(t.NumRows()); row++ {
		h := fnv(fnvOffset)
		for c := 0; c < t.NumCols(); c++ {
			h = h.str(t.Value(row, c).String())
		}
		sum += uint64(h)
	}
	return t.NumRows(), sum, nil
}

// finish checkpoints, runs a short unmeasured tail of ops, closes the
// store, reopens it into a fresh engine and compares the recovered
// table — snapshot plus replayed WAL tail — with the model.
func (in *writeInstance) finish(lc *layerCtx) error {
	t0 := time.Now()
	if err := in.eng.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	checkpoint := time.Since(t0)
	for i := 0; i < tailOps; i++ {
		if _, err := in.do(opCounter.Add(1), nil, noSpan); err != nil {
			return fmt.Errorf("tail op: %w", err)
		}
	}
	if err := in.store.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}

	t0 = time.Now()
	st, err := storage.Open(in.store.Dir(), true, nil)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer st.Close()
	recovered := exec.New(exec.Options{ReverseIndexes: true, IRVerify: exec.IRVerifyAlways})
	if err := recovered.AttachStore(st); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	recoverD := time.Since(t0)

	wantRows, wantSum := in.modelChecksum()
	gotRows, gotSum, err := tableChecksum(recovered)
	if err != nil {
		return err
	}
	if gotRows != wantRows || gotSum != wantSum {
		return fmt.Errorf("recovery lost or altered acknowledged writes: recovered %d rows checksum %s, model has %d rows checksum %s",
			gotRows, hex(gotSum), wantRows, hex(wantSum))
	}
	if v := recovered.Cat.Graph().VertexType("NodeVtx"); v == nil || v.Count() != wantRows {
		return fmt.Errorf("recovery: vertex view has %v instances, want %d", v, wantRows)
	}
	if lc != nil {
		lc.m["storage.checkpoint_ms"] = ms(checkpoint)
		lc.m["storage.recover_ms"] = ms(recoverD)
		if fi, err := os.Stat(filepath.Join(in.store.Dir(), "snapshot.gqs")); err == nil {
			lc.m["storage.snapshot_bytes_per_row"] = float64(fi.Size()) / float64(in.rows)
		}
	}
	return nil
}

func (in *writeInstance) close() {
	if in.store != nil {
		in.store.Close()
	}
	os.RemoveAll(in.dir)
}

func (in *writeInstance) layers(lc *layerCtx) error {
	for _, k := range []string{"insert", "update", "delete", "read"} {
		lc.m["exec.dml_"+k+"_p50_us"] = lc.spanP50("exec.dml_" + k)
	}
	lc.m["exec.execute_us"] = lc.spanP50("exec.dml_read")
	lc.m["storage.fsync_share"] = lc.delta("fsync_s") / lc.window.Seconds()
	if rows := lc.delta("inserted") + lc.delta("updated") + lc.delta("deleted"); rows > 0 {
		lc.m["storage.wal_bytes_per_row"] = lc.delta("wal_bytes") / rows
	}
	lc.m["storage.wal_records_per_op"] = lc.perOp("wal_records")
	lc.m["catalog.epoch_bumps_per_op"] = lc.perOp("epoch")
	// Ingest and view build are one statement here; both are in graph.build_ms.
	lc.m["graph.build_ms"] = ms(lc.phases["load"])

	// A WAL append of an op-sized record into a scratch store, fsync on.
	scratch, err := storage.Open(filepath.Join(in.dir, "probe"), true, nil)
	if err != nil {
		return err
	}
	defer scratch.Close()
	rec := &storage.Record{Kind: storage.KindStmt, IR: make([]byte, 600)}
	lc.m["storage.append_us"] = us(timeBatched(15, 4, func() {
		if _, err := scratch.Append(rec); err != nil {
			sink++
		}
	}))

	// The front end on this workload's four statement texts.
	read := strings.ReplaceAll(writeRead, "%Id%", "12345")
	stmts := []stmtText{
		{text: "insert into Node values (1, 0, 2.5), (2, 1, 3.25)"},
		{text: strings.NewReplacer("%Val%", "1.5", "%Id%", "12345").Replace(writeUpdate)},
		{text: strings.ReplaceAll(writeDelete, "%Cut%", "0")},
		{text: read},
	}
	return frontEndLayers(lc, in.eng, stmts)
}

package exec

import (
	"fmt"

	"graql/internal/ast"
	"graql/internal/ir"
	"graql/internal/storage"
	"graql/internal/value"
)

// checkpointWALBytes is the WAL size past which a published write
// triggers an automatic snapshot (the writer mutex is already held, so
// the checkpoint races with nothing).
const checkpointWALBytes = 8 << 20

// AttachStore wires a durability layer into the engine: the snapshot (if
// any) is restored, the WAL tail is replayed on top of it, and every
// subsequent committed mutation is logged. Call once, before serving.
func (e *Engine) AttachStore(st *storage.Store) error {
	e.replay = true
	defer func() { e.replay = false }()

	snap, err := st.LoadSnapshot()
	if err != nil {
		return err
	}
	if snap != nil {
		for _, t := range snap.Tables {
			if err := e.register(t); err != nil {
				return err
			}
		}
		if len(snap.DeclIR) > 0 {
			script, err := ir.Decode(snap.DeclIR)
			if err != nil {
				return fmt.Errorf("graql: snapshot declarations: %w", err)
			}
			for _, decl := range script.Stmts {
				if _, err := e.execStmt(&compiledStmt{st: decl}, nil); err != nil {
					return fmt.Errorf("graql: restoring %s: %w", stmtKind(decl), err)
				}
			}
		}
	}
	if err := st.Replay(e.applyRecord); err != nil {
		return err
	}
	e.store = st
	return nil
}

// Store returns the attached durability layer, or nil.
func (e *Engine) Store() *storage.Store { return e.store }

// applyRecord re-executes one WAL record during recovery. Statement
// records replay through the normal execution path (DML evaluation is
// row-wise and serial, so results are deterministic); table-load records
// install their materialised rows directly.
func (e *Engine) applyRecord(rec *storage.Record) error {
	switch rec.Kind {
	case storage.KindStmt:
		script, err := ir.Decode(rec.IR)
		if err != nil {
			return fmt.Errorf("graql: wal replay: %w", err)
		}
		for _, st := range script.Stmts {
			if _, err := e.execStmt(&compiledStmt{st: st}, rec.Params); err != nil {
				return fmt.Errorf("graql: wal replay (seq %d): %w", rec.Seq, err)
			}
		}
		return nil
	case storage.KindTableLoad:
		return e.applyTableLoad(rec.Load)
	}
	return fmt.Errorf("graql: wal replay: unknown record kind %d", rec.Kind)
}

// applyTableLoad publishes a replayed table-load record: a select-into
// result, or an ingest's rows with the views they feed re-derived.
func (e *Engine) applyTableLoad(l *storage.TableLoad) error {
	if l.Register {
		return e.register(l.Table)
	}
	return e.replaceTable(l.Table)
}

// log appends a write's WAL record (see write) under a "wal" span,
// fsyncing per the store's policy, which the span names. A no-op without
// an attached store, during recovery replay, and for a change that is not
// durable.
func (e *Engine) log(st ast.Stmt, params map[string]value.Value, c *change) error {
	if e.store == nil || e.replay || st == nil && c.Table == nil {
		return nil
	}
	detail := "append + fsync"
	if !e.store.Fsync() {
		detail = "append, no fsync"
	}
	sp := e.opSpan("wal", detail)
	defer sp.End()
	var rec *storage.Record
	if st != nil {
		data, err := ir.Encode(&ast.Script{Stmts: []ast.Stmt{st}})
		if err != nil {
			return fmt.Errorf("graql: wal: %w", err)
		}
		rec = &storage.Record{Kind: storage.KindStmt, IR: data, Params: params}
	} else {
		rec = &storage.Record{Kind: storage.KindTableLoad, Load: &storage.TableLoad{Register: c.Graph == nil, Table: c.Table}}
	}
	n, err := e.store.Append(rec)
	if err == nil {
		sp.Incr()
		if e.acct != nil {
			e.acct.walBytes.Add(int64(n))
		}
	}
	return err
}

// Checkpoint writes a snapshot of the current catalog state and truncates
// the WAL. A no-op without an attached store.
func (e *Engine) Checkpoint() error {
	if e.store == nil {
		return nil
	}
	e.Cat.BeginWrite()
	defer e.Cat.EndWrite()
	return e.checkpointLocked()
}

// checkpointLocked is Checkpoint with the writer mutex already held, which
// is all the state capture needs: nothing publishes meanwhile, and
// published tables are immutable, so serialisation to disk blocks no
// reader.
func (e *Engine) checkpointLocked() error {
	snap := &storage.Snapshot{Tables: e.Cat.Tables()}
	var decls []ast.Stmt
	for _, d := range e.Cat.VertexDecls() {
		decls = append(decls, d)
	}
	for _, d := range e.Cat.EdgeDecls() {
		decls = append(decls, d)
	}
	if len(decls) > 0 {
		data, err := ir.Encode(&ast.Script{Stmts: decls})
		if err != nil {
			return fmt.Errorf("graql: snapshot: %w", err)
		}
		snap.DeclIR = data
	}
	return e.store.WriteSnapshot(snap)
}

// maybeCheckpoint snapshots after a published write once the WAL has
// grown past the threshold. The caller holds the writer mutex; failures
// are logged and retried on a later write rather than failing the
// already-published statement.
func (e *Engine) maybeCheckpoint() {
	if e.store == nil || e.replay || e.store.WALSize() < checkpointWALBytes {
		return
	}
	if err := e.checkpointLocked(); err != nil && e.Opts.Log != nil {
		e.Opts.Log.Error("graql: auto checkpoint failed", "error", err)
	}
}

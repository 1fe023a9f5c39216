package core

import (
	"errors"
	"fmt"

	"slidb/internal/catalog"
	"slidb/internal/heap"
	"slidb/internal/profiler"
	"slidb/internal/recovery"
	"slidb/internal/wal"
)

// ErrNotDurable is returned by durability operations on engines opened
// without a data directory.
var ErrNotDurable = errors.New("core: engine has no data directory (opened with Open, not OpenAt)")

// RecoveryStats describes the restart work OpenAt performed.
type RecoveryStats struct {
	// CheckpointLSN is the LSN of the checkpoint the restart started from
	// (0 when the directory had no checkpoint).
	CheckpointLSN uint64
	// TablesRestored / RowsRestored count the checkpoint image.
	TablesRestored int
	RowsRestored   int
	// LogRecordsScanned is the size of the log tail analyzed.
	LogRecordsScanned int
	// Winners and Losers count the transactions the analysis pass
	// classified by the durability of their commit record.
	Winners int
	Losers  int
	// RollbacksComplete counts losers whose rollback was fully logged
	// before the crash (durable abort record, or a CLR chain ending at
	// UndoNext 0): redo repeats their history verbatim and the undo pass
	// skips them.
	RollbacksComplete int
	// RecordsRedone counts data records replayed by the repeat-history redo
	// pass (winners and losers alike); CLRsRedone counts the compensation
	// records replayed alongside them.
	RecordsRedone int
	CLRsRedone    int
	// RecordsUndone counts loser data records rolled back by the restart
	// undo pass; TxUndone counts the transactions it completed, and
	// RollbacksResumed the subset whose partially-logged rollback was
	// resumed from its last durable CLR's UndoNext instead of restarted.
	RecordsUndone    int
	TxUndone         int
	RollbacksResumed int
	// DDLReplayed counts CREATE TABLE / CREATE INDEX records replayed.
	DDLReplayed int
}

// RecoveryStats returns the restart statistics recorded by OpenAt; the zero
// value for engines created with Open.
func (e *Engine) RecoveryStats() RecoveryStats { return e.recStats }

// DataDir returns the engine's data directory ("" for volatile engines).
func (e *Engine) DataDir() string { return e.cfg.Dir }

// OpenAt opens a disk-backed engine rooted at dir, creating the directory on
// first use and running crash recovery over whatever a previous incarnation
// left behind: the most recent checkpoint is restored, then one pass over the
// durable log tail analyzes it (winners vs. losers) and repeats its history,
// and the losers' kept records are undone. Transactions whose commit record
// never reached disk — in flight at the crash, or aborted — leave no trace
// in the recovered state.
func OpenAt(dir string, cfg Config) (*Engine, error) {
	if dir == "" {
		return nil, errors.New("core: OpenAt requires a data directory")
	}
	cfg.Dir = dir
	cfg = cfg.withDefaults()

	snap, haveCkpt, err := recovery.ReadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	segs, err := wal.OpenSegments(dir, cfg.SegmentBytes, cfg.PreallocateSegments)
	if err != nil {
		return nil, err
	}

	// The checkpoint LSN is the durable watermark the snapshot covered — an
	// exclusive end offset, i.e. exactly the frame boundary the replay
	// resumes at. Byte-offset LSNs make both the resume point and the
	// restart of LSN allocation pure boundary arithmetic: no "+1 past the
	// last record" — dense-LSN counting — survives here.
	var from wal.LSN
	if haveCkpt {
		from = snap.LSN
	}
	startLSN := segs.End()
	if haveCkpt && snap.LSN > startLSN {
		startLSN = snap.LSN
	}
	e := newEngine(cfg, segs, startLSN)
	if haveCkpt {
		if err := e.restoreSnapshot(snap); err != nil {
			segs.Close()
			return nil, err
		}
		e.recStats.CheckpointLSN = uint64(snap.LSN)
		e.recStats.TablesRestored = len(snap.Tables)
		for _, t := range snap.Tables {
			e.recStats.RowsRestored += len(t.Rows)
		}
		if snap.NextXID > e.nextXID.Load() {
			e.nextXID.Store(snap.NextXID)
		}
	}
	// One pass over the log tail analyzes and redoes it; undo then works
	// from the loser records the analysis kept.
	an, redo, err := recovery.Redo(func(fn func(wal.Record) error) error {
		return segs.Iterate(from, fn)
	}, engineApplier{e: e})
	if err != nil {
		segs.Close()
		return nil, err
	}
	// The undo pass logs its work into the new incarnation's log: one CLR
	// per record undone plus an abort record per completed rollback, so the
	// next restart sees these losers as fully rolled back instead of
	// re-undoing them on top of whatever commits in the meantime.
	undo, err := recovery.Undo(an, engineApplier{e: e}, func(rec wal.Record) error {
		_, aerr := e.log.Append(rec)
		return aerr
	})
	if err != nil {
		segs.Close()
		return nil, err
	}
	if an.MaxXID > e.nextXID.Load() {
		// Resume XID allocation above every XID in the log tail, so a new
		// transaction can never share an XID with a stale loser record.
		e.nextXID.Store(an.MaxXID)
	}
	e.recStats.LogRecordsScanned = an.Scanned
	e.recStats.Winners = len(an.Winners)
	e.recStats.Losers = len(an.Losers)
	e.recStats.RollbacksComplete = len(an.RolledBack)
	e.recStats.RecordsRedone = redo.Redone
	e.recStats.CLRsRedone = redo.CLRs
	e.recStats.RecordsUndone = undo.Undone
	e.recStats.TxUndone = undo.TxUndone
	e.recStats.RollbacksResumed = undo.Resumed
	e.recStats.DDLReplayed = redo.DDL

	e.SetConcurrency(cfg.Agents)
	return e, nil
}

// restoreSnapshot loads a checkpoint image: catalog, heap rows and indexes.
func (e *Engine) restoreSnapshot(snap *recovery.Snapshot) error {
	for _, ts := range snap.Tables {
		tbl, err := e.cat.RestoreTable(ts.Meta)
		if err != nil {
			return err
		}
		e.installTable(tbl)
		e.mu.RLock()
		hf, pk := e.heaps[tbl.ID], e.pkTrees[tbl.ID]
		e.mu.RUnlock()
		for _, data := range ts.Rows {
			key, err := rowKey(tbl, nil, data, heap.RID{})
			if err != nil {
				return fmt.Errorf("core: checkpoint row of %q: %w", tbl.Name, err)
			}
			rid, err := hf.Insert(nil, data)
			if err != nil {
				return err
			}
			pk.tree.insert(key, rid)
		}
	}
	for _, im := range snap.Indexes {
		ix, err := e.cat.RestoreIndex(im)
		if err != nil {
			return err
		}
		if err := e.installIndex(ix); err != nil {
			return err
		}
	}
	return nil
}

// rowKey is indexKey of rid's entry in ix (nil: the primary key), read
// straight from tbl's encoded row data: restart never decodes a Row. It
// rejects data exactly as Decode does, so a row that passed once passes.
func rowKey(tbl *catalog.Table, ix *catalog.Index, data []byte, rid heap.RID) (string, error) {
	cols, unique := tbl.PrimaryKeyIndexes(), true
	if ix != nil {
		cols, unique = ix.ColumnIndexes(), ix.Unique
	}
	var buf [64]byte
	k, err := tbl.Schema.AppendKey(buf[:0], data, cols)
	if err != nil || unique {
		return string(k), err
	}
	return string(k) + indexKey(nil, rid, false), nil // the RID suffix alone
}

// engineApplier applies the recovery package's replay calls to the engine's
// heap files and B+trees, finding each row by primary key — never by the RID
// it was logged at, since an undone delete re-inserts its row elsewhere. The
// restart passes run it single-threaded before the agent pool starts (prof
// nil); a live rollback runs it under the rolling-back transaction's locks,
// with that transaction's profiler handle. It takes no locks and appends no
// log records of its own.
type engineApplier struct {
	e    *Engine
	prof *profiler.Handle
}

// table returns the published runtime of the table the log calls tableID.
func (a engineApplier) table(tableID uint32) (*tableRuntime, error) {
	if tbl, ok := a.e.cat.TableByID(tableID); ok {
		return a.e.tableRuntime(tbl.Name)
	}
	return nil, fmt.Errorf("core: log references unknown table %d", tableID)
}

func (a engineApplier) CreateTable(m catalog.TableMeta) error {
	if _, ok := a.e.cat.TableByID(m.ID); ok {
		// Already present — restored from the checkpoint; DDL redo is
		// idempotent because checkpointing and DDL logging can overlap.
		return nil
	}
	tbl, err := a.e.cat.RestoreTable(m)
	if err != nil {
		return err
	}
	a.e.installTable(tbl)
	return nil
}

func (a engineApplier) CreateIndex(m catalog.IndexMeta) error {
	if _, ok := a.e.cat.Index(m.Name); ok {
		return nil
	}
	ix, err := a.e.cat.RestoreIndex(m)
	if err != nil {
		return err
	}
	return a.e.installIndex(ix)
}

func (a engineApplier) Insert(tableID uint32, after []byte) error {
	rt, err := a.table(tableID)
	if err != nil {
		return err
	}
	pkKey, err := rowKey(rt.meta, nil, after, heap.RID{})
	if err != nil {
		return err
	}
	rid, err := rt.hf.Insert(a.prof, after)
	if err != nil {
		return err
	}
	rt.pk.tree.insert(pkKey, rid)
	for _, sec := range rt.secs {
		key, _ := rowKey(rt.meta, sec.meta, after, rid) // after passed above
		sec.tree.insert(key, rid)
	}
	return nil
}

func (a engineApplier) Update(tableID uint32, before, after []byte) error {
	rt, err := a.table(tableID)
	if err != nil {
		return err
	}
	pkKey, err := rowKey(rt.meta, nil, after, heap.RID{})
	if err != nil {
		return err
	}
	rid, ok := rt.pk.tree.get(pkKey)
	if !ok {
		return fmt.Errorf("core: update of missing row in table %d", tableID)
	}
	if err := rt.hf.Update(a.prof, rid, after); err != nil {
		return err
	}
	for _, sec := range rt.secs {
		oldKey, err := rowKey(rt.meta, sec.meta, before, rid)
		if err != nil {
			return err
		}
		if newKey, _ := rowKey(rt.meta, sec.meta, after, rid); newKey != oldKey { // after passed above
			sec.tree.remove(oldKey)
			sec.tree.insert(newKey, rid)
		}
	}
	return nil
}

func (a engineApplier) Delete(tableID uint32, before []byte) error {
	rt, err := a.table(tableID)
	if err != nil {
		return err
	}
	pkKey, err := rowKey(rt.meta, nil, before, heap.RID{})
	if err != nil {
		return err
	}
	rid, ok := rt.pk.tree.get(pkKey)
	if !ok {
		return fmt.Errorf("core: delete of missing row in table %d", tableID)
	}
	for _, sec := range rt.secs {
		key, _ := rowKey(rt.meta, sec.meta, before, rid) // before passed above
		sec.tree.remove(key)
	}
	rt.pk.tree.remove(pkKey)
	return rt.hf.Delete(a.prof, rid)
}

// Checkpoint persists a point-in-time image of the database and truncates
// the write-ahead log, bounding the work a future restart has to do. It
// briefly quiesces transaction execution (new transactions wait, in-flight
// ones drain), forces the log, snapshots the catalog and every table's rows
// to the checkpoint file, and deletes log segments the snapshot covers.
// Calling Checkpoint from inside a transaction body deadlocks.
func (e *Engine) Checkpoint() error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.segs == nil {
		return ErrNotDurable
	}
	e.execGate.Lock()
	defer e.execGate.Unlock()

	if err := e.log.Flush(e.log.LastLSN()); err != nil {
		return err
	}
	snapLSN := e.log.DurableLSN()

	snap := &recovery.Snapshot{LSN: snapLSN, NextXID: e.nextXID.Load()}
	for _, tbl := range e.cat.Tables() {
		e.mu.RLock()
		hf := e.heaps[tbl.ID]
		e.mu.RUnlock()
		ts := recovery.TableSnapshot{Meta: catalog.TableMetaOf(tbl)}
		err := hf.Scan(nil, func(rid heap.RID, rec []byte) bool {
			ts.Rows = append(ts.Rows, rec)
			return true
		})
		if err != nil {
			return err
		}
		snap.Tables = append(snap.Tables, ts)
		for _, ix := range e.cat.TableIndexes(tbl.ID) {
			snap.Indexes = append(snap.Indexes, catalog.IndexMetaOf(ix))
		}
	}
	if err := recovery.WriteCheckpoint(e.cfg.Dir, snap); err != nil {
		return err
	}
	return e.segs.Checkpoint(snapLSN)
}

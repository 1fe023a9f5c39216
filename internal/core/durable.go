package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"slidb/internal/btree"
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
func (e *Engine) DataDir() string { return e.dir }

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
	e.dir = dir
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

	e.startAgents()
	return e, nil
}

// restoreSnapshot loads a checkpoint image in bulk and publishes its table
// set once: it registers the tables and indexes the way DDL does, loads each
// table's rows onto fresh heap pages in order, and builds each index once
// from its sorted keys.
func (e *Engine) restoreSnapshot(snap *recovery.Snapshot) error {
	set := e.tables.Load()
	var err error
	for _, ts := range snap.Tables {
		if set, err = set.withTable(ts.Meta, e.pool); err != nil {
			return err
		}
	}
	for _, im := range snap.Indexes {
		if set, _, err = set.withIndex(im); err != nil {
			return err
		}
	}
	for _, ts := range snap.Tables {
		rt := set.byID[ts.Meta.ID]
		rids, err := rt.hf.Load(ts.Rows)
		for _, idx := range append([]*index{rt.pk}, rt.secs...) {
			if err == nil {
				idx.tree, err = buildIndexTree(rt.meta, idx.meta, ts.Rows, rids)
			}
		}
		if err != nil {
			return fmt.Errorf("core: checkpoint rows of %q: %w", rt.meta.Name, err)
		}
	}
	e.tables.Store(set)
	return nil
}

// buildIndexTree bulk-loads the tree of ix (nil: the primary key) over the
// encoded rows stored at rids. Two rows with one key fail with
// ErrDuplicateKey; only the primary key and unique indexes can have them.
func buildIndexTree(tbl *catalog.Table, ix *catalog.Index, rows [][]byte, rids []heap.RID) (*btree.Tree[heap.RID], error) {
	type entry struct {
		key string
		rid heap.RID
	}
	entries := make([]entry, len(rows))
	for i, data := range rows {
		key, err := rowKey(tbl, ix, data, rids[i])
		if err != nil {
			return nil, err
		}
		entries[i] = entry{key, rids[i]}
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	keys, vals := make([]string, len(entries)), make([]heap.RID, len(entries))
	for i, en := range entries {
		if i > 0 && en.key == keys[i-1] {
			name := "primary key"
			if ix != nil {
				name = "index " + ix.Name
			}
			return nil, fmt.Errorf("%w: %q twice in %s", ErrDuplicateKey, en.key, name)
		}
		keys[i], vals[i] = en.key, en.rid
	}
	return btree.Build(keys, vals), nil
}

// engineApplier applies the recovery package's replay calls through the
// tables' runtimes, finding each row by primary key — never by the RID it
// was logged at, since an undone delete re-inserts its row elsewhere — and
// changing it with the same tableRuntime methods a transaction uses. The
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
	if rt := a.e.tables.Load().byID[tableID]; rt != nil {
		return rt, nil
	}
	return nil, fmt.Errorf("core: log references unknown table %d", tableID)
}

// find returns the runtime of table tableID and the RID of the row whose
// primary key the encoded image data carries.
func (a engineApplier) find(tableID uint32, data []byte) (*tableRuntime, heap.RID, error) {
	rt, err := a.table(tableID)
	if err != nil {
		return nil, heap.RID{}, err
	}
	pk, err := rowKey(rt.meta, nil, data, heap.RID{})
	if err != nil {
		return nil, heap.RID{}, err
	}
	rid, ok := rt.pk.tree.Get(pk)
	if !ok {
		return nil, heap.RID{}, fmt.Errorf("core: log changes a missing row of table %d", tableID)
	}
	return rt, rid, nil
}

func (a engineApplier) CreateTable(m catalog.TableMeta) error {
	if a.e.tables.Load().byID[m.ID] != nil {
		// Already present — restored from the checkpoint; DDL redo is
		// idempotent because checkpointing and DDL logging can overlap.
		return nil
	}
	return a.e.addTable(m)
}

func (a engineApplier) CreateIndex(m catalog.IndexMeta) error {
	if a.e.tables.Load().indexes[m.Name] != nil {
		return nil
	}
	return a.e.addIndex(m)
}

func (a engineApplier) Insert(tableID uint32, after []byte) error {
	rt, err := a.table(tableID)
	if err != nil {
		return err
	}
	return rt.insert(a.prof, after)
}

func (a engineApplier) Update(tableID uint32, before, after []byte) error {
	rt, rid, err := a.find(tableID, after)
	if err != nil {
		return err
	}
	return rt.update(a.prof, rid, before, after)
}

func (a engineApplier) Delete(tableID uint32, before []byte) error {
	rt, rid, err := a.find(tableID, before)
	if err != nil {
		return err
	}
	return rt.delete(a.prof, rid, before)
}

// Checkpoint persists a point-in-time image of the database and truncates
// the write-ahead log, bounding the work a future restart has to do. It
// briefly quiesces transaction execution (new transactions wait, in-flight
// ones drain), forces the log, snapshots the schema and every table's rows
// to the checkpoint file, and deletes log segments the snapshot covers.
// Calling Checkpoint from inside a transaction body deadlocks.
func (e *Engine) Checkpoint() error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.segs == nil {
		return ErrNotDurable
	}
	// DDL waits too, so the published table set is complete and
	// no DDL record lands between the snapshot and the log it truncates.
	e.ddlMu.Lock()
	defer e.ddlMu.Unlock()
	e.execGate.Lock()
	defer e.execGate.Unlock()

	if err := e.log.Flush(e.log.LastLSN()); err != nil {
		return err
	}
	snapLSN := e.log.DurableLSN()

	snap := &recovery.Snapshot{LSN: snapLSN, NextXID: e.nextXID.Load()}
	for _, rt := range e.tables.Load().inIDOrder() {
		ts := recovery.TableSnapshot{Meta: rt.meta.TableMeta}
		err := rt.hf.Scan(nil, func(rid heap.RID, rec []byte) bool {
			ts.Rows = append(ts.Rows, rec)
			return true
		})
		if err != nil {
			return err
		}
		snap.Tables = append(snap.Tables, ts)
		for _, sec := range rt.secs {
			snap.Indexes = append(snap.Indexes, sec.meta.IndexMeta)
		}
	}
	if err := recovery.WriteCheckpoint(e.dir, snap); err != nil {
		return err
	}
	return e.segs.Checkpoint(snapLSN)
}

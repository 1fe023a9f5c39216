package core

import (
	"bytes"
	"errors"
	"fmt"

	"slidb/internal/heap"
	"slidb/internal/lockmgr"
	"slidb/internal/profiler"
	"slidb/internal/record"
	"slidb/internal/recovery"
	"slidb/internal/wal"
	"time"
)

// ErrNotFound is returned by lookups that match no row.
var ErrNotFound = errors.New("core: row not found")

// ErrDuplicateKey is returned when an insert violates a primary-key or
// unique-index constraint.
var ErrDuplicateKey = errors.New("core: duplicate key")

// ErrPrimaryKeyChange is returned when an update attempts to modify a
// primary-key column.
var ErrPrimaryKeyChange = errors.New("core: updates may not modify primary key columns")

// Abort is a sentinel error transaction bodies can return to abort without
// reporting a failure to the caller of Exec: Exec returns Abort itself, so
// callers can distinguish business-rule aborts (e.g. the NDBB transactions
// that fail on invalid input) from unexpected errors.
var Abort = errors.New("core: transaction aborted by application")

// undoEntry is one registered rollback step: the LSN of a logged data
// record (the CLR chain's UndoNext pointer targets it) and that record's
// recovery.Compensation, which a rollback applies through the restart
// applier — finding the row by primary key, wherever it now lives — and then
// logs as a redo-only CLR. seq is the entry's birth stamp within the
// transaction, used to detect stale savepoints: after a RollbackTo truncates
// the stack, later entries reuse the same positions but carry new stamps.
type undoEntry struct {
	lsn wal.LSN
	seq uint64
	clr wal.Record
}

// Tx is a transaction handle passed to the function given to Engine.Exec.
// It is only valid for the duration of that function and must not be used
// from other goroutines.
type Tx struct {
	e     *Engine
	xid   uint64
	owner *lockmgr.Owner
	prof  *profiler.Handle

	undo    []undoEntry
	undoSeq uint64 // birth stamps for undo entries (see undoEntry.seq)
	lastLSN wal.LSN
	logged  bool
}

// pushUndo registers one rollback entry, stamping it for savepoint
// validation.
func (tx *Tx) pushUndo(ent undoEntry) {
	tx.undoSeq++
	ent.seq = tx.undoSeq
	tx.undo = append(tx.undo, ent)
}

// XID returns the transaction identifier.
func (tx *Tx) XID() uint64 { return tx.xid }

// appendTimed appends one WAL record, splitting the elapsed time into the
// profiler's log categories: blocked time entering the reservation critical
// section (reserve-wait), blocked time waiting for the flusher to drain a
// full buffer (buffer-full-wait), and the remainder — the reserve arithmetic
// plus encoding the record into the shared buffer — as useful log work,
// attributed to workCat so the abort path's CLR appends are reported apart
// from forward-path logging.
func (tx *Tx) appendTimed(rec wal.Record, workCat profiler.Category) (wal.LSN, error) {
	if tx.prof == nil {
		// No accounting consumer: take the clock-free append path.
		return tx.e.log.Append(rec)
	}
	start := time.Now()
	lsn, waits, err := tx.e.log.AppendTimed(rec)
	total := time.Since(start)
	tx.prof.Add(profiler.LogReserveWait, waits.Reserve)
	tx.prof.Add(profiler.LogBufferFullWait, waits.BufferFull)
	tx.prof.Add(workCat, total-waits.Reserve-waits.BufferFull)
	return lsn, err
}

// logAppend appends a WAL record, lazily writing the transaction's begin
// record first and tracking its last LSN for commit.
func (tx *Tx) logAppend(rec wal.Record) error {
	rec.XID = tx.xid
	if !tx.logged {
		if _, err := tx.appendTimed(wal.Record{XID: tx.xid, Type: wal.RecBegin}, profiler.LogWork); err != nil {
			return err
		}
		tx.logged = true
	}
	lsn, err := tx.appendTimed(rec, profiler.LogWork)
	if err != nil {
		return err
	}
	tx.lastLSN = lsn
	return nil
}

// preCommit finishes the transaction up to (but not including) durability.
// It appends the commit record and releases the transaction's locks,
// applying SLI to eligible locks. The returned ack channel, when non-nil,
// resolves once the commit record is durable; the agent worker, or under
// AsyncCommit the Exec caller, must wait on it before acknowledging the
// commit.
//
// With Early Lock Release the locks are released as soon as the commit
// record is appended — before the group-commit fsync — so lock hold times
// exclude the entire flush latency. This is safe because the log is totally
// ordered: any transaction that observed this transaction's (pre-
// committed, not yet durable) writes appends its own commit record at a
// higher LSN, and the flusher acknowledges commits in LSN order, so a
// dependent transaction is never reported durable before its dependency.
// After a crash inside that window, recovery classifies the transaction as
// a loser (no durable commit record) and none of its effects survive.
//
// Without ELR the paper-faithful baseline is preserved: the transaction
// blocks on the flush while still holding every lock, and only then
// releases them.
func (tx *Tx) preCommit() (<-chan error, error) {
	if !tx.logged {
		// Read-only: nothing to make durable.
		tx.owner.ReleaseAll()
		tx.undo = nil
		return nil, nil
	}
	if err := tx.logAppend(wal.Record{Type: wal.RecCommit}); err != nil {
		tx.abort()
		return nil, err
	}
	if tx.e.cfg.EarlyLockRelease {
		ack := tx.e.log.FlushAsync(tx.lastLSN)
		tx.owner.ReleaseAllEarly()
		tx.undo = nil
		return ack, nil
	}
	flushStart := time.Now()
	if err := tx.e.log.Flush(tx.lastLSN); err != nil {
		// The failed flush still spent wall time in LogFlush — attribute it
		// before bailing, or the category under-reports exactly when the
		// log wedges (found by the proftimer analyzer).
		tx.prof.Add(profiler.LogFlush, time.Since(flushStart))
		tx.abort()
		return nil, err
	}
	tx.prof.Add(profiler.LogFlush, time.Since(flushStart))
	tx.owner.ReleaseAll()
	tx.undo = nil
	return nil, nil
}

// abort rolls back every modification (in reverse order) and releases locks.
//
// Rollback is compensation-logged, ARIES-style: each entry's CLR (the
// recovery.Compensation of its record) is applied in memory through the
// applier restart uses, which finds the row by primary key, and then logged
// as a redo-only CLR whose UndoNext points at the transaction's next
// still-to-be-undone record, so a restart that finds a partial CLR chain
// resumes the rollback where it stopped instead of re-undoing compensated
// work. This is RollbackTo to the start of the transaction. Once the chain
// is complete an abort record is appended; a durable abort record marks the
// rollback as fully logged. After any failure in the chain — an undo that
// failed in memory (counted in UndoFailures) or a log that took no more
// CLRs — no abort record is appended, and restart finishes the rollback from
// the log's durable prefix.
//
// Lock release mirrors preCommit, governed by its own knob
// (Config.EarlyLockReleaseAborts) so the abort-elr ablation can isolate the
// abort-side policy from commit-side ELR. Under ELR-for-aborts the locks are
// released (with SLI inheritance) as soon as the abort record is appended —
// before any flush — which is safe for the same log-ordering reason as
// commit-side ELR: the undo is fully applied before release, so any
// transaction that observed the restored values logs at a higher LSN than
// the abort record; if that dependent's commit becomes durable, the entire
// CLR chain and abort record below it are durable too, and if the tail is
// lost both sides roll back together. Without it the transaction holds its
// locks until the abort record is durable — the strict baseline whose flush
// wait the high-abort ablation measures.
func (tx *Tx) abort() {
	if err := tx.RollbackTo(Savepoint{}); err == nil && tx.logged {
		lsn, err := tx.appendTimed(wal.Record{XID: tx.xid, Type: wal.RecAbort}, profiler.AbortLogWork)
		if err == nil {
			tx.lastLSN = lsn
			if tx.e.cfg.EarlyLockReleaseAborts {
				// ELR for aborts: the rollback is applied and fully logged;
				// release now and let the abort record reach disk with the
				// next group commit. The subscription's ack is discarded —
				// nothing waits on an abort's durability — but it must still
				// be registered: the flusher only wakes for subscriptions (or
				// a full buffer), so without it an abort on an otherwise idle
				// engine would sit in the volatile buffer indefinitely.
				// The release below is counted here only, not in the lock
				// manager's ELRReleases, which counts commits.
				//slint:ignore errwedge nothing waits on an abort's durability; the subscription only forces a flusher wakeup
				_ = tx.e.log.FlushAsync(tx.lastLSN)
				tx.e.elrAborts.Add(1)
			} else {
				flushStart := time.Now()
				//slint:ignore errwedge abort is already the failure path; a wedged log here surfaces on the next append
				_ = tx.e.log.Flush(tx.lastLSN)
				tx.prof.Add(profiler.LogFlush, time.Since(flushStart))
			}
		}
	}
	tx.owner.ReleaseAll()
	tx.undo = nil
}

// applyUndo applies compensation record clr in memory through the restart
// applier, attributing its time to the UndoWork profiler category and
// counting failures (which mean the in-memory state may be corrupt — torture
// tests fail loudly on them).
func (tx *Tx) applyUndo(clr wal.Record) error {
	var undoStart time.Time
	if tx.prof != nil {
		undoStart = time.Now()
	}
	err := recovery.ApplyCLR(engineApplier{tx.e, tx.prof}, clr)
	if err != nil {
		tx.e.undoFailures.Add(1)
	}
	if tx.prof != nil {
		tx.prof.Add(profiler.UndoWork, time.Since(undoStart))
	}
	return err
}

// logCLR appends the compensation record for undo entry i of tx.undo. Its
// UndoNext points at the next-older registered entry's LSN (0 when this
// compensation closes the chain).
func (tx *Tx) logCLR(ent undoEntry, i int) (wal.LSN, error) {
	clr := ent.clr
	clr.XID = tx.xid
	if i > 0 {
		clr.UndoNext = tx.undo[i-1].lsn
	}
	lsn, err := tx.appendTimed(clr, profiler.AbortLogWork)
	if err != nil {
		return 0, err
	}
	tx.lastLSN = lsn
	return lsn, nil
}

// Savepoint marks the transaction's current rollback position. A later
// RollbackTo(sp) undoes every modification made after the mark while keeping
// the transaction (and all its locks) alive, so it can continue and commit.
type Savepoint struct {
	n   int    // length of tx.undo at the time of the mark
	seq uint64 // birth stamp of the entry just below the mark (0 at n == 0)
}

// Savepoint returns a savepoint at the transaction's current position.
func (tx *Tx) Savepoint() Savepoint {
	sp := Savepoint{n: len(tx.undo)}
	if sp.n > 0 {
		sp.seq = tx.undo[sp.n-1].seq
	}
	return sp
}

// ErrBadSavepoint is returned by RollbackTo when the savepoint does not
// belong to this transaction's current undo chain — it was taken above work
// that a previous RollbackTo already rolled back, even if later writes have
// since regrown the chain past its position (the birth stamp of the entry
// below the mark distinguishes the two). Savepoints below the rolled-back
// span stay valid, so nested savepoint patterns work.
var ErrBadSavepoint = errors.New("core: invalid savepoint")

// RollbackTo rolls the transaction back to sp: every modification registered
// after the savepoint is undone exactly as an abort would — its CLR applied
// through the restart applier, which finds the row by primary key, then
// logged: one redo-only CLR per record, newest first, chained through
// UndoNext past the rolled-back span — but the transaction keeps its locks
// and remains open. Work done before the savepoint, and work done
// after RollbackTo returns, commits or aborts with the transaction as usual;
// a crash at any point is handled by recovery, which resumes from the last
// durable CLR and also undoes records logged after it (the post-savepoint
// continuation).
//
// On a wedged or crashed log the in-memory rollback still completes (the
// transaction's locks protect the data, so memory must stay consistent) but
// the error is returned; the caller should abort the transaction.
func (tx *Tx) RollbackTo(sp Savepoint) error {
	if sp.n < 0 || sp.n > len(tx.undo) {
		return ErrBadSavepoint
	}
	if sp.n > 0 && tx.undo[sp.n-1].seq != sp.seq {
		// The stack regrew past sp.n after an earlier RollbackTo truncated
		// below it: positionally plausible, but the mark's span is gone.
		return ErrBadSavepoint
	}
	var retErr, logErr error
	for i := len(tx.undo) - 1; i >= sp.n; i-- {
		ent := tx.undo[i]
		// An in-memory undo failure is counted (UndoFailures) and reported,
		// but it must NOT stop the CLR logging: the remaining entries'
		// compensations still have to reach the log, or a later durable
		// commit or abort record would close the transaction with
		// uncompensated records in it. Only a log failure stops
		// appending (the log is wedged; recovery finishes the rollback from
		// the durable prefix).
		if err := tx.applyUndo(ent.clr); err != nil && retErr == nil {
			retErr = err
		}
		if logErr == nil {
			if _, err := tx.logCLR(ent, i); err != nil {
				logErr = err
				if retErr == nil {
					retErr = err
				}
			}
		}
		// The entry is undone in memory either way; drop it so a later abort
		// (or RollbackTo) never double-undoes it.
		tx.undo = tx.undo[:i]
	}
	return retErr
}

// lockRecord acquires a record lock (and, implicitly, intention locks on the
// record's page, table and the database).
func (tx *Tx) lockRecord(tableID uint32, rid heap.RID, mode lockmgr.Mode) error {
	return tx.owner.Lock(lockmgr.RecordLock(databaseID, tableID, rid.Page, rid.Slot), mode)
}

// lockTable acquires an explicit table-level lock.
func (tx *Tx) lockTable(tableID uint32, mode lockmgr.Mode) error {
	return tx.owner.Lock(lockmgr.TableLock(databaseID, tableID), mode)
}

// Insert adds a row to the table, returning ErrDuplicateKey if the primary
// key (or a unique secondary index key) already exists.
func (tx *Tx) Insert(table string, row record.Row) error {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return err
	}
	data, err := rt.meta.Schema.Encode(row)
	if err != nil {
		return err
	}
	// Announce write intent on the table before touching pages.
	if err := tx.lockTable(rt.meta.ID, lockmgr.IX); err != nil {
		return err
	}
	pk, _ := rowKey(rt.meta, nil, data, heap.RID{})
	if _, dup := rt.pk.tree.Get(pk); dup {
		return fmt.Errorf("%w: %s in %s", ErrDuplicateKey, pk, table)
	}
	rid, err := rt.hf.Insert(tx.prof, data)
	if err != nil {
		return err
	}
	// Lock the row before its keys make it visible; a duplicate key (a lost
	// race with a concurrent insert) leaves no key behind.
	err = tx.lockRecord(rt.meta.ID, rid, lockmgr.X)
	if err == nil {
		err = rt.addKeys(data, rid)
	}
	if err != nil {
		_ = rt.hf.Delete(tx.prof, rid)
		return err
	}
	rec := wal.Record{Type: wal.RecInsert, Table: rt.meta.ID, Page: rid.Page, Slot: rid.Slot, After: data}
	if err := tx.logAppend(rec); err != nil {
		// The row is already in the heap and indexes but nothing reached the
		// log: roll the mutation back inline so a wedged log cannot leave a
		// phantom row with no registered undo.
		if uerr := tx.applyUndo(recovery.Compensation(rec)); uerr != nil {
			return errors.Join(err, uerr)
		}
		return err
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN, clr: recovery.Compensation(rec)})
	return nil
}

// Get returns the row with the given primary key, locking it in share mode.
// The boolean result reports whether the row exists.
func (tx *Tx) Get(table string, key ...record.Value) (record.Row, bool, error) {
	return tx.getRow(table, lockmgr.S, key)
}

// GetForUpdate returns the row with the given primary key, locking it
// exclusively so it can subsequently be updated or deleted.
func (tx *Tx) GetForUpdate(table string, key ...record.Value) (record.Row, bool, error) {
	return tx.getRow(table, lockmgr.X, key)
}

func (tx *Tx) getRow(table string, mode lockmgr.Mode, key []record.Value) (record.Row, bool, error) {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return nil, false, err
	}
	row, _, _, found, err := tx.get(rt, mode, key)
	return row, found, err
}

// get finds the row with the given primary key and reads it through
// tx.read, returning its heap bytes beside the decoded row.
func (tx *Tx) get(rt *tableRuntime, mode lockmgr.Mode, key []record.Value) (row record.Row, rid heap.RID, data []byte, found bool, err error) {
	rid, ok := rt.pk.tree.Get(record.EncodeKey(key...))
	if !ok {
		// Lock the table in intention mode so the read of "not there" is at
		// least protected against drops; record-level locking cannot lock a
		// missing key (no next-key locking in this engine).
		return nil, rid, nil, false, tx.lockTable(rt.meta.ID, lockmgr.ParentMode(mode))
	}
	row, data, found, err = tx.read(rt, rid, mode)
	return row, rid, data, found, err
}

// read locks the row at rid in mode and returns it decoded and as the heap
// bytes it was decoded from. found is false when the slot is empty.
func (tx *Tx) read(rt *tableRuntime, rid heap.RID, mode lockmgr.Mode) (record.Row, []byte, bool, error) {
	if err := tx.lockRecord(rt.meta.ID, rid, mode); err != nil {
		return nil, nil, false, err
	}
	data, err := rt.hf.Get(tx.prof, rid)
	if errors.Is(err, heap.ErrNotFound) {
		return nil, nil, false, nil
	}
	if err != nil {
		return nil, nil, false, err
	}
	row, err := rt.meta.Schema.Decode(data)
	if err != nil {
		return nil, nil, false, err
	}
	return row, data, true, nil
}

// Update looks up the row by primary key, locks it exclusively, applies
// mutate to it and writes the result back. mutate receives a copy it may
// modify in place and return. Primary-key columns must not change.
func (tx *Tx) Update(table string, key []record.Value, mutate func(record.Row) (record.Row, error)) error {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return err
	}
	oldRow, rid, oldData, found, err := tx.get(rt, lockmgr.X, key)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	newRow, err := mutate(oldRow.Clone())
	if err != nil {
		return err
	}
	newData, err := rt.meta.Schema.Encode(newRow)
	if err != nil {
		return err
	}
	var oldBuf, newBuf [64]byte
	oldPK, _ := rt.meta.Schema.AppendKey(oldBuf[:0], oldData, rt.meta.PrimaryKeyIndexes())
	newPK, _ := rt.meta.Schema.AppendKey(newBuf[:0], newData, rt.meta.PrimaryKeyIndexes())
	if !bytes.Equal(oldPK, newPK) {
		return ErrPrimaryKeyChange
	}
	if err := rt.update(tx.prof, rid, oldData, newData); err != nil {
		return err
	}
	rec := wal.Record{Type: wal.RecUpdate, Table: rt.meta.ID, Page: rid.Page, Slot: rid.Slot, Before: oldData, After: newData}
	if err := tx.logAppend(rec); err != nil {
		// Heap and index already carry the new image; restore the old one
		// inline since no undo was registered for this mutation.
		if uerr := tx.applyUndo(recovery.Compensation(rec)); uerr != nil {
			return errors.Join(err, uerr)
		}
		return err
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN, clr: recovery.Compensation(rec)})
	return nil
}

// Delete removes the row with the given primary key. It returns ErrNotFound
// if the row does not exist. The record it logs carries the heap bytes the
// row was read from. Rolling the delete back applies its
// recovery.Compensation through the same tableRuntime, which re-inserts the
// row at a fresh RID and enters its keys there; the RID it occupied is not
// reserved. Every rollback step finds its row by primary key, so none writes
// to the RID the row was logged at.
func (tx *Tx) Delete(table string, key ...record.Value) error {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return err
	}
	_, rid, data, found, err := tx.get(rt, lockmgr.X, key)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	if err := rt.delete(tx.prof, rid, data); err != nil {
		return err
	}
	rec := wal.Record{Type: wal.RecDelete, Table: rt.meta.ID, Page: rid.Page, Slot: rid.Slot, Before: data}
	if err := tx.logAppend(rec); err != nil {
		// The row is already gone from heap and indexes; put it back inline
		// since no undo was registered for this mutation.
		if uerr := tx.applyUndo(recovery.Compensation(rec)); uerr != nil {
			return errors.Join(err, uerr)
		}
		return err
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN, clr: recovery.Compensation(rec)})
	return nil
}

// LookupIndex returns every row whose indexed columns equal key, locking
// each returned row in share mode.
func (tx *Tx) LookupIndex(indexName string, key ...record.Value) ([]record.Row, error) {
	return tx.lookupIndex(indexName, lockmgr.S, key...)
}

// LookupIndexForUpdate is LookupIndex with exclusive row locks.
func (tx *Tx) LookupIndexForUpdate(indexName string, key ...record.Value) ([]record.Row, error) {
	return tx.lookupIndex(indexName, lockmgr.X, key...)
}

func (tx *Tx) lookupIndex(indexName string, mode lockmgr.Mode, key ...record.Value) ([]record.Row, error) {
	set := tx.e.tables.Load()
	idx := set.indexes[indexName]
	if idx == nil {
		return nil, fmt.Errorf("core: unknown index %q", indexName)
	}
	prefix := record.EncodeKey(key...)
	var rids []heap.RID
	if idx.meta.Unique {
		if rid, ok := idx.tree.Get(prefix); ok {
			rids = append(rids, rid)
		}
	} else {
		idx.tree.AscendRange(prefix, prefix+"\xff", func(k string, rid heap.RID) bool {
			rids = append(rids, rid)
			return true
		})
	}
	rt := set.byID[idx.meta.TableID]
	var rows []record.Row
	for _, rid := range rids {
		row, _, found, err := tx.read(rt, rid, mode)
		if err != nil {
			return nil, err
		}
		if found {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ScanRange visits every row whose primary key is in [lo, hi] in key order,
// locking each visited row in share mode. Iteration stops early if fn
// returns false.
func (tx *Tx) ScanRange(table string, lo, hi []record.Value, fn func(record.Row) bool) error {
	return tx.scanRange(table, lockmgr.S, lo, hi, fn)
}

// ScanRangeForUpdate is ScanRange with exclusive row locks, for transactions
// that will modify or delete the rows they visit (SELECT ... FOR UPDATE).
// Locking exclusively up front avoids share-to-exclusive conversion
// deadlocks between concurrent writers.
func (tx *Tx) ScanRangeForUpdate(table string, lo, hi []record.Value, fn func(record.Row) bool) error {
	return tx.scanRange(table, lockmgr.X, lo, hi, fn)
}

func (tx *Tx) scanRange(table string, mode lockmgr.Mode, lo, hi []record.Value, fn func(record.Row) bool) error {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return err
	}
	loKey := record.EncodeKey(lo...)
	hiKey := ""
	if len(hi) > 0 {
		hiKey = record.EncodeKey(hi...) + "\xff"
	}
	var rids []heap.RID
	rt.pk.tree.AscendRange(loKey, hiKey, func(k string, rid heap.RID) bool {
		rids = append(rids, rid)
		return true
	})
	for _, rid := range rids {
		row, _, found, err := tx.read(rt, rid, mode)
		if err != nil || (found && !fn(row)) {
			return err
		}
	}
	return nil
}

// ScanTable visits every row of the table under a table-level share lock
// (no per-row locks), as a coarse-grained reader would.
func (tx *Tx) ScanTable(table string, fn func(record.Row) bool) error {
	rt, err := tx.e.tableRuntime(table)
	if err != nil {
		return err
	}
	if err := tx.lockTable(rt.meta.ID, lockmgr.S); err != nil {
		return err
	}
	err = rt.hf.Scan(tx.prof, func(rid heap.RID, rec []byte) bool {
		row, derr := rt.meta.Schema.Decode(rec)
		if derr != nil {
			err = derr
			return false
		}
		return fn(row)
	})
	return err
}

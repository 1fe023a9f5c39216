// Package walorder exercises the walorder analyzer: once a Tx method has
// applied an in-memory mutation, every non-panic return must have either
// registered the undo (pushUndo) or rolled the mutation back inline
// (applyUndo, or the inverse mutation), and pushUndo must always follow the
// log append that set tx.lastLSN.
package walorder

import (
	"errors"

	"heap"
)

// LSN and Record stand in for the wal package's types; keeping them local
// makes each fixture function self-contained.
type LSN uint64

type Record struct {
	Page   uint32
	Slot   uint16
	Before []byte
	After  []byte
}

var ErrNotFound = errors.New("not found")

// indexTree mirrors the engine's index wrapper; its insert/remove methods
// are the index-mutation sites walorder tracks.
type indexTree struct{ m map[string]heap.RID }

func (it *indexTree) insert(key string, rid heap.RID) bool {
	if _, ok := it.m[key]; ok {
		return false
	}
	it.m[key] = rid
	return true
}

func (it *indexTree) remove(key string) bool {
	if _, ok := it.m[key]; !ok {
		return false
	}
	delete(it.m, key)
	return true
}

// tableRuntime mirrors the engine's table handle, whose methods change a
// row's heap slot and index entries together; walorder tracks them as the
// heap (insert, update, delete) and index (addKeys, dropKeys) mutations they
// bundle.
type tableRuntime struct {
	hf *heap.File
	pk *indexTree
}

func (rt *tableRuntime) addKeys(key string, rid heap.RID) error {
	if !rt.pk.insert(key, rid) {
		return errors.New("duplicate key")
	}
	return nil
}

func (rt *tableRuntime) update(rid heap.RID, data []byte) error { return rt.hf.Update(rid, data) }

func (rt *tableRuntime) delete(key string, rid heap.RID) error {
	rt.pk.remove(key)
	return rt.hf.Delete(rid)
}

type undoEntry struct {
	lsn LSN
	clr Record
}

// compensation stands in for recovery.Compensation: the record that undoes
// rec, images swapped.
func compensation(rec Record) Record {
	return Record{Page: rec.Page, Slot: rec.Slot, Before: rec.After, After: rec.Before}
}

// Tx is the transaction handle the analyzer scopes to.
type Tx struct {
	rt       *tableRuntime
	hf       *heap.File
	pk       *indexTree
	lastLSN  LSN
	undoLog  []undoEntry
	failures int
	wedged   bool
}

func (tx *Tx) logAppend(rec Record) error {
	if tx.wedged {
		return errors.New("log wedged")
	}
	tx.lastLSN++
	return nil
}

func (tx *Tx) pushUndo(ent undoEntry) { tx.undoLog = append(tx.undoLog, ent) }

// applyUndo applies a compensation record in memory, as the engine's
// rollback does through its restart applier.
func (tx *Tx) applyUndo(clr Record) error {
	if tx.wedged {
		tx.failures++
	}
	return nil
}

// InsertOK carries the full protocol: mutate, append the record, register
// its compensation; the append-failure path rolls the mutation back inline
// by applying that compensation, and the unique-violation path compensates
// the heap insert with the inverse delete.
func (tx *Tx) InsertOK(key string, data []byte) error {
	rid, err := tx.hf.Insert(data)
	if err != nil {
		return err // the mutation itself failed: nothing was applied
	}
	if !tx.pk.insert(key, rid) {
		_ = tx.hf.Delete(rid)
		return errors.New("duplicate key")
	}
	rec := Record{After: data}
	if err := tx.logAppend(rec); err != nil {
		if uerr := tx.applyUndo(compensation(rec)); uerr != nil {
			return errors.Join(err, uerr)
		}
		return err
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN, clr: compensation(rec)})
	return nil
}

// DeleteOK compensates the index removal inline when the heap delete fails,
// then follows the log-then-register protocol.
func (tx *Tx) DeleteOK(key string, rid heap.RID, oldData []byte) error {
	if !tx.pk.remove(key) {
		return ErrNotFound
	}
	if err := tx.hf.Delete(rid); err != nil {
		tx.pk.insert(key, rid)
		return err
	}
	rec := Record{Before: oldData}
	if err := tx.logAppend(rec); err != nil {
		if uerr := tx.applyUndo(compensation(rec)); uerr != nil {
			return errors.Join(err, uerr)
		}
		return err
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN, clr: compensation(rec)})
	return nil
}

// InsertThroughRuntimeOK locks the row between the heap insert and the
// runtime's addKeys; either failure compensates the heap insert with the
// inverse delete, and the append failure applies the compensation.
func (tx *Tx) InsertThroughRuntimeOK(key string, data []byte) error {
	rid, err := tx.hf.Insert(data)
	if err != nil {
		return err
	}
	err = tx.logAppend(Record{}) // stands in for the record lock
	if err == nil {
		err = tx.rt.addKeys(key, rid)
	}
	if err != nil {
		_ = tx.hf.Delete(rid)
		return err
	}
	rec := Record{After: data}
	if err := tx.logAppend(rec); err != nil {
		if uerr := tx.applyUndo(compensation(rec)); uerr != nil {
			return errors.Join(err, uerr)
		}
		return err
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN, clr: compensation(rec)})
	return nil
}

// UpdateThroughRuntimeOK mutates through the table runtime and carries the
// same protocol as a direct heap update.
func (tx *Tx) UpdateThroughRuntimeOK(rid heap.RID, oldData, newData []byte) error {
	if err := tx.rt.update(rid, newData); err != nil {
		return err
	}
	rec := Record{Before: oldData, After: newData}
	if err := tx.logAppend(rec); err != nil {
		if uerr := tx.applyUndo(compensation(rec)); uerr != nil {
			return errors.Join(err, uerr)
		}
		return err
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN, clr: compensation(rec)})
	return nil
}

// DeleteThroughRuntimeNoRollback hides the mutation behind the table
// runtime: the row is gone from heap and index when the append fails, and
// nothing puts it back.
func (tx *Tx) DeleteThroughRuntimeNoRollback(key string, rid heap.RID, oldData []byte) error {
	if err := tx.rt.delete(key, rid); err != nil {
		return err
	}
	if err := tx.logAppend(Record{Before: oldData}); err != nil {
		return err // want `return in DeleteThroughRuntimeNoRollback with the heap delete at line \d+ still applied`
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN, clr: Record{After: oldData}})
	return nil
}

// PanicPathOK: a panic after the mutation is not a return path; the
// obligation ends with the process.
func (tx *Tx) PanicPathOK(key string, rid heap.RID) {
	if !tx.pk.insert(key, rid) {
		panic("corrupt index")
	}
	if err := tx.logAppend(Record{}); err != nil {
		panic("log wedged")
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN})
}

// InsertNoRollback is the PR 4 undo-registration bug class verbatim: the
// log append fails after the row is in the heap and index, and the error
// path returns with no inline rollback and no registered undo — a wedged
// log leaves a phantom row nothing can roll back.
func (tx *Tx) InsertNoRollback(key string, data []byte) error {
	rid, err := tx.hf.Insert(data)
	if err != nil {
		return err
	}
	if !tx.pk.insert(key, rid) {
		_ = tx.hf.Delete(rid)
		return errors.New("duplicate key")
	}
	if err := tx.logAppend(Record{After: data}); err != nil {
		return err // want `return in InsertNoRollback with the heap insert at line \d+ still applied` `return in InsertNoRollback with the index insert at line \d+ still applied`
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN, clr: Record{Before: data}})
	return nil
}

// InsertClosureRollback rolls back through a hand-written closure instead
// of applyUndo: a second statement of the inverse, which the analyzer does
// not accept as a discharge — the closure's mutations run when it is called,
// and nothing ties them to the logged record.
func (tx *Tx) InsertClosureRollback(key string, data []byte) error {
	rid, err := tx.hf.Insert(data)
	if err != nil {
		return err
	}
	undo := func() error { return tx.hf.Delete(rid) }
	if err := tx.logAppend(Record{After: data}); err != nil {
		_ = undo()
		return err // want `return in InsertClosureRollback with the heap insert at line \d+ still applied`
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN, clr: Record{Before: data}})
	return nil
}

// UpdateStaleLSN registers the undo before appending the record: the entry
// captures whatever LSN the previous append set, so recovery would pair the
// undo with the wrong record.
func (tx *Tx) UpdateStaleLSN(rid heap.RID, oldData, newData []byte) error {
	if err := tx.hf.Update(rid, newData); err != nil {
		return err
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN, clr: Record{Before: newData, After: oldData}}) // want `pushUndo is reachable without a prior log append`
	return tx.logAppend(Record{Before: oldData, After: newData})
}

// DeleteNoLog never appends a record at all; the registered undo's LSN is
// stale by construction.
func (tx *Tx) DeleteNoLog(key string, rid heap.RID, oldData []byte) error {
	if !tx.pk.remove(key) {
		return ErrNotFound
	}
	tx.pushUndo(undoEntry{lsn: tx.lastLSN, clr: Record{After: oldData}}) // want `pushUndo in DeleteNoLog with no log append in the function`
	return nil
}

// RemoveUnprotected mutates the index with no protocol at all and falls off
// the end of the function.
func (tx *Tx) RemoveUnprotected(key string) {
	tx.pk.remove(key) // want `index remove in RemoveUnprotected reaches the end of the function`
}

// IgnoredRemove records a deliberate exception with a reasoned directive.
func (tx *Tx) IgnoredRemove(key string) {
	tx.pk.remove(key) //slint:ignore walorder fixture demonstrating a reasoned suppression
}

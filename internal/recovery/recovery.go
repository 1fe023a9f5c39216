// Package recovery implements ARIES-style restart for the slidb storage
// manager as one pass over the durable log tail that decodes each record
// once. Its analysis step classifies every transaction by its durable
// outcome record (committed, fully rolled back, or interrupted) and keeps
// each loser's uncompensated records; its redo step repeats history —
// replaying every data record and compensation record (CLR), plus
// non-transactional DDL, in log order. (ARIES runs analysis as a separate
// pass only to find redo's start; here redo always starts at the
// checkpoint.) Undo then completes the rollback of transactions interrupted
// mid-flight or mid-rollback from the kept records, without reading the log
// again. The package also defines the checkpoint file format that bounds
// how much log the restart has to scan.
//
// Redo here is logical: data records carry full before/after images, and the
// applier locates rows by primary key rather than by the record IDs the
// original run happened to use. Combined with strict two-phase locking at
// run time (conflicting writes are ordered by their position in the log),
// replaying every record in LSN order reproduces exactly the pre-crash
// sequence of states. Rollbacks are compensation-logged at run time: each
// undo action appends a redo-only CLR whose UndoNext field points at the
// transaction's next still-to-be-undone record, so redo replays completed
// rollback work verbatim and the undo step resumes each interrupted
// rollback from its last durable CLR instead of re-undoing compensated
// actions. A transaction whose abort record reached the log (or whose CLR
// chain ends with UndoNext 0) is fully rolled back by redo alone and needs
// no restart undo.
package recovery

import (
	"cmp"
	"fmt"
	"slices"

	"slidb/internal/catalog"
	"slidb/internal/wal"
)

// Iterator scans a durable log tail in LSN order, invoking fn for every
// record. wal.Segments.Iterate, partially applied with a start LSN, is the
// production implementation.
type Iterator func(fn func(wal.Record) error) error

// Analysis is the result of the analysis step.
type Analysis struct {
	// Winners holds the XIDs of transactions whose commit record is durable.
	Winners map[uint64]struct{}
	// Losers holds the XIDs of transactions that appear in the log tail but
	// never durably committed — whether interrupted in flight, interrupted
	// mid-rollback, or fully rolled back before the crash.
	Losers map[uint64]struct{}
	// RolledBack holds the subset of Losers whose rollback is completely
	// logged: a durable abort record, or a CLR chain ending at UndoNext 0.
	// Redo repeats their entire history (updates and compensations) and the
	// undo step skips them.
	RolledBack map[uint64]struct{}
	// UndoNext maps each loser XID with a durable CLR to the UndoNext of
	// its last durable CLR. It is diagnostic (the Resumed statistic); the
	// undo work list itself comes from Pending, which is exact.
	UndoNext map[uint64]wal.LSN
	// Pending maps each loser XID to its data records that no durable CLR
	// compensates, in log order — exactly the records the undo step must
	// roll back, kept whole so that undo never reads the log again. It is
	// reconstructed by simulating the CLR chain: a data record is pushed, a
	// CLR pops the newest uncompensated one (CLRs are logged newest-first
	// within a rollback). Watermark-based inference cannot represent a
	// transaction that rolled back to a savepoint more than once — each
	// RollbackTo leaves a separate interior compensated span — so the set
	// is tracked explicitly.
	Pending map[uint64][]wal.Record
	// MaxLSN is the highest LSN seen in the scan.
	MaxLSN wal.LSN
	// MaxXID is the highest transaction ID seen; the engine resumes its XID
	// allocator above it so stale loser records can never be confused with
	// records of a new transaction in a later recovery.
	MaxXID uint64
	// Scanned counts the log records examined.
	Scanned int

	spare []wal.Record // a finished transaction's Pending slice, for the next one
}

// drop forgets xid's pending records, keeping their slice for the next
// transaction's.
func (an *Analysis) drop(xid uint64) {
	if s, ok := an.Pending[xid]; ok {
		an.spare = s[:0]
		delete(an.Pending, xid)
	}
}

// NeedsUndo reports whether the transaction has rollback work left for the
// undo step: it is a loser whose rollback was not completely logged.
func (an *Analysis) NeedsUndo(xid uint64) bool {
	if _, lost := an.Losers[xid]; !lost {
		return false
	}
	_, done := an.RolledBack[xid]
	return !done
}

// Analyze runs the analysis step alone over the log tail. Restart gets the
// same Analysis from Redo, which runs this step on every record it replays.
func Analyze(iter Iterator) (*Analysis, error) {
	an := newAnalysis()
	if err := iter(an.step); err != nil {
		return nil, fmt.Errorf("recovery: analysis: %w", err)
	}
	return an, nil
}

func newAnalysis() *Analysis {
	return &Analysis{
		Winners:    make(map[uint64]struct{}),
		Losers:     make(map[uint64]struct{}),
		RolledBack: make(map[uint64]struct{}),
		UndoNext:   make(map[uint64]wal.LSN),
		Pending:    make(map[uint64][]wal.Record),
	}
}

// step is the analysis of one record: the classification rules.
func (an *Analysis) step(rec wal.Record) error {
	an.Scanned++
	if rec.LSN > an.MaxLSN {
		an.MaxLSN = rec.LSN
	}
	if rec.XID > an.MaxXID {
		an.MaxXID = rec.XID
	}
	switch rec.Type {
	case wal.RecCommit:
		if len(rec.After) > 0 {
			// Commit records carry no images; a non-empty one is the
			// participant mask of a cross-shard commit, written by the
			// sharded log of an earlier build.
			return fmt.Errorf("%w: LSN %d (commit, xid %d) carries a %d-byte log-shard participant mask",
				wal.ErrLogFormat, rec.LSN, rec.XID, len(rec.After))
		}
		an.Winners[rec.XID] = struct{}{}
		delete(an.Losers, rec.XID)
		an.drop(rec.XID)
	case wal.RecAbort:
		// The rollback completed and its outcome record is durable; the
		// CLR chain below it is durable too (single totally ordered log).
		an.Losers[rec.XID] = struct{}{}
		an.RolledBack[rec.XID] = struct{}{}
		an.drop(rec.XID)
	case wal.RecCLR:
		an.Losers[rec.XID] = struct{}{}
		an.UndoNext[rec.XID] = rec.UndoNext
		// The CLR compensates the transaction's newest still-pending
		// data record (rollback proceeds newest-first): pop it. When the
		// pop empties the set, the rollback is — at this point in the
		// log — completely compensated; a later data record (a savepoint
		// rollback the transaction continued past) re-opens it below.
		if s := an.Pending[rec.XID]; len(s) > 0 {
			an.Pending[rec.XID] = s[:len(s)-1]
			if len(s) == 1 {
				an.RolledBack[rec.XID] = struct{}{}
			}
		} else if rec.UndoNext == 0 {
			// No pending record in the scanned tail and the chain closes
			// at 0: fully rolled back (e.g. the chain's data records sit
			// below the checkpoint the scan started at).
			an.RolledBack[rec.XID] = struct{}{}
		}
	case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
		if rec.XID != 0 {
			if _, won := an.Winners[rec.XID]; !won {
				an.Losers[rec.XID] = struct{}{}
			}
			s, ok := an.Pending[rec.XID]
			if !ok {
				s, an.spare = an.spare, nil
			}
			an.Pending[rec.XID] = append(s, rec)
			// New work after a completed CLR chain (tx.RollbackTo, then
			// the transaction kept going) re-opens the undo obligation.
			delete(an.RolledBack, rec.XID)
		}
	case wal.RecCreateTable, wal.RecCreateIndex:
		// DDL is non-transactional; it belongs to no XID.
	default:
		if rec.XID != 0 {
			if _, won := an.Winners[rec.XID]; !won {
				an.Losers[rec.XID] = struct{}{}
			}
		}
	}
	return nil
}

// Applier receives the replay calls of the redo and undo passes, and of a
// live rollback's ApplyCLR. The engine implements it on top of its heap
// files and B+tree indexes.
type Applier interface {
	// CreateTable replays table DDL. It must be idempotent with respect to
	// tables already present (e.g. restored from a checkpoint).
	CreateTable(meta catalog.TableMeta) error
	// CreateIndex replays index DDL, backfilling from rows already replayed.
	CreateIndex(meta catalog.IndexMeta) error
	// Insert replays an insert; after is the encoded row.
	Insert(table uint32, after []byte) error
	// Update replays an update; before/after are encoded rows with an
	// unchanged primary key.
	Update(table uint32, before, after []byte) error
	// Delete replays a delete; before is the encoded row.
	Delete(table uint32, before []byte) error
}

// RedoStats summarizes the redo pass.
type RedoStats struct {
	// Redone counts data records replayed (repeating history: winners and
	// losers alike), excluding CLRs.
	Redone int
	// CLRs counts compensation records replayed.
	CLRs int
	// DDL counts CREATE TABLE / CREATE INDEX records replayed.
	DDL int
}

// Compensation returns the CLR that undoes data record rec: its images
// swapped, so ApplyCLR puts the row back. It is the one statement of a
// change's inverse — a live rollback and the restart undo both log and
// apply it.
func Compensation(rec wal.Record) wal.Record {
	return wal.Record{Type: wal.RecCLR, XID: rec.XID, Table: rec.Table, Page: rec.Page, Slot: rec.Slot, Before: rec.After, After: rec.Before}
}

// ApplyCLR applies one compensation record. The compensating operation is
// carried by the images: Before+After restores a row to After, After alone
// re-inserts a deleted row, Before alone removes an inserted row.
func ApplyCLR(ap Applier, rec wal.Record) error {
	switch {
	case len(rec.Before) > 0 && len(rec.After) > 0:
		return ap.Update(rec.Table, rec.Before, rec.After)
	case len(rec.After) > 0:
		return ap.Insert(rec.Table, rec.After)
	case len(rec.Before) > 0:
		return ap.Delete(rec.Table, rec.Before)
	default:
		return fmt.Errorf("CLR with no images")
	}
}

// Redo makes restart's one pass over the log tail: each record goes
// through the analysis step and then repeats history against ap — DDL
// records and every data record, including losers' updates and the CLRs
// that compensate them, in LSN order. Replaying losers verbatim is what
// lets Undo resume an interrupted rollback exactly where the durable CLR
// chain stops; the returned Analysis holds the records it needs.
func Redo(iter Iterator, ap Applier) (*Analysis, RedoStats, error) {
	an := newAnalysis()
	var st RedoStats
	err := iter(func(rec wal.Record) error {
		if err := an.step(rec); err != nil {
			return err
		}
		return st.apply(ap, rec)
	})
	if err != nil {
		return nil, st, fmt.Errorf("recovery: redo: %w", err)
	}
	return an, st, nil
}

// apply is the redo of one record.
func (st *RedoStats) apply(ap Applier, rec wal.Record) error {
	var err error
	switch rec.Type {
	case wal.RecCreateTable:
		meta, derr := catalog.DecodeTableMeta(rec.After)
		if derr != nil {
			return fmt.Errorf("LSN %d: %w", rec.LSN, derr)
		}
		st.DDL++
		return ap.CreateTable(meta)
	case wal.RecCreateIndex:
		meta, derr := catalog.DecodeIndexMeta(rec.After)
		if derr != nil {
			return fmt.Errorf("LSN %d: %w", rec.LSN, derr)
		}
		st.DDL++
		return ap.CreateIndex(meta)
	case wal.RecInsert:
		st.Redone++
		err = ap.Insert(rec.Table, rec.After)
	case wal.RecUpdate:
		st.Redone++
		err = ap.Update(rec.Table, rec.Before, rec.After)
	case wal.RecDelete:
		st.Redone++
		err = ap.Delete(rec.Table, rec.Before)
	case wal.RecCLR:
		st.CLRs++
		err = ApplyCLR(ap, rec)
	default:
		// BEGIN/COMMIT/ABORT carry no redo work.
	}
	if err != nil {
		return fmt.Errorf("LSN %d (%v, xid %d): %w", rec.LSN, rec.Type, rec.XID, err)
	}
	return nil
}

// UndoStats summarizes the undo pass.
type UndoStats struct {
	// Undone counts loser data records rolled back.
	Undone int
	// TxUndone counts transactions the pass rolled back (fully or resuming
	// a partial rollback).
	TxUndone int
	// Resumed counts the subset of TxUndone whose rollback had already
	// started before the crash (a durable CLR chain was found) and was
	// resumed from its last UndoNext rather than restarted.
	Resumed int
}

// CLRLogger receives the log records describing a restart undo — one
// redo-only CLR per record undone, in undo order, plus the abort record
// that closes each completed rollback — so the caller can append them to
// the new incarnation's log. Logging the restart rollback is what makes it
// happen exactly once: without it, a transaction undone by this restart
// would still look like an interrupted loser to the next restart, which
// would then re-apply the undo on top of whatever committed after this
// restart. The records need no force of their own — they sit at lower LSNs
// than anything the new incarnation logs, so any durable later commit
// implies they are durable too, and if the whole tail is lost the next
// restart simply reruns the same undo against the same state.
type CLRLogger func(wal.Record) error

// Undo completes the rollback of every interrupted loser after redo has
// repeated history. It applies the Compensation of each record analysis kept
// uncompensated (Analysis.Pending — everything a durable CLR already covers
// is excluded, so an interrupted rollback is completed, never repeated),
// newest LSN first across transactions, exactly as ARIES' backward scan
// does; it never reads the log. logRec, when non-nil, receives the CLR chain
// and abort records that make this undo durable-exactly-once (see
// CLRLogger).
func Undo(an *Analysis, ap Applier, logRec CLRLogger) (UndoStats, error) {
	var st UndoStats
	var pending []wal.Record
	left := make(map[uint64]int) // per loser: its pending records not yet undone
	for xid, recs := range an.Pending {
		if !an.NeedsUndo(xid) || len(recs) == 0 {
			continue
		}
		pending = append(pending, recs...)
		left[xid] = len(recs)
		if _, ok := an.UndoNext[xid]; ok {
			st.Resumed++
		}
	}
	st.TxUndone = len(left)
	slices.SortFunc(pending, func(a, b wal.Record) int { return cmp.Compare(a.LSN, b.LSN) })
	for i := len(pending) - 1; i >= 0; i-- {
		rec := pending[i]
		clr := Compensation(rec)
		if uerr := ApplyCLR(ap, clr); uerr != nil {
			return st, fmt.Errorf("recovery: undo LSN %d (%v, xid %d): %w", rec.LSN, rec.Type, rec.XID, uerr)
		}
		st.Undone++
		left[rec.XID]--
		if logRec == nil {
			continue
		}
		// The CLR's UndoNext is the transaction's next-older pending record
		// (a partial pre-crash rollback already compensated everything in
		// between, so the new chain continues seamlessly); 0 closes it.
		n := left[rec.XID]
		if n > 0 {
			clr.UndoNext = an.Pending[rec.XID][n-1].LSN
		}
		if err := logRec(clr); err != nil {
			return st, fmt.Errorf("recovery: undo: logging CLR for xid %d: %w", rec.XID, err)
		}
		if n == 0 {
			// Oldest pending record of the transaction: its rollback is now
			// complete; close it with an abort record.
			if err := logRec(wal.Record{Type: wal.RecAbort, XID: rec.XID}); err != nil {
				return st, fmt.Errorf("recovery: undo: logging abort for xid %d: %w", rec.XID, err)
			}
		}
	}
	return st, nil
}

// Package recovery implements ARIES-style restart for the slidb storage
// manager: an analysis pass over the durable log tail that classifies every
// transaction by its durable outcome record (committed, fully rolled back,
// or interrupted), a redo pass that repeats history — replaying every data
// record and compensation record (CLR), plus non-transactional DDL, in log
// order — and an undo pass that completes the rollback of transactions
// interrupted mid-flight or mid-rollback. It also defines the checkpoint
// file format that bounds how much log the restart has to scan.
//
// Redo here is logical: data records carry full before/after images, and the
// applier locates rows by primary key rather than by the record IDs the
// original run happened to use. Combined with strict two-phase locking at
// run time (conflicting writes are ordered by their position in the log),
// replaying every record in LSN order reproduces exactly the pre-crash
// sequence of states. Rollbacks are compensation-logged at run time: each
// undo action appends a redo-only CLR whose UndoNext field points at the
// transaction's next still-to-be-undone record, so redo replays completed
// rollback work verbatim and the undo pass resumes each interrupted
// rollback from its last durable CLR instead of re-undoing compensated
// actions. A transaction whose abort record reached the log (or whose CLR
// chain ends with UndoNext 0) is fully rolled back by redo alone and needs
// no restart undo.
package recovery

import (
	"fmt"

	"slidb/internal/catalog"
	"slidb/internal/wal"
)

// Iterator scans a durable log tail in LSN order, invoking fn for every
// record. wal.Segments.Iterate, partially applied with a start LSN, is the
// production implementation.
type Iterator func(fn func(wal.Record) error) error

// Analysis is the result of the analysis pass.
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
	// undo pass skips them.
	RolledBack map[uint64]struct{}
	// UndoNext maps each loser XID with a durable CLR to the UndoNext of
	// its last durable CLR. It is diagnostic (the Resumed statistic); the
	// undo work list itself comes from Pending, which is exact.
	UndoNext map[uint64]wal.LSN
	// Pending maps each loser XID to the LSNs of its data records that no
	// durable CLR compensates, in log order — exactly the records the undo
	// pass must roll back. It is reconstructed by simulating the CLR chain:
	// a data record pushes its LSN, a CLR pops the newest uncompensated one
	// (CLRs are logged newest-first within a rollback). Watermark-based
	// inference cannot represent a transaction that rolled back to a
	// savepoint more than once — each RollbackTo leaves a separate interior
	// compensated span — so the set is tracked explicitly.
	Pending map[uint64][]wal.LSN
	// MaxLSN is the highest LSN seen in the scan.
	MaxLSN wal.LSN
	// MaxXID is the highest transaction ID seen; the engine resumes its XID
	// allocator above it so stale loser records can never be confused with
	// records of a new transaction in a later recovery.
	MaxXID uint64
	// Scanned counts the log records examined.
	Scanned int
}

// NeedsUndo reports whether the transaction has rollback work left for the
// undo pass: it is a loser whose rollback was not completely logged.
func (an *Analysis) NeedsUndo(xid uint64) bool {
	if _, lost := an.Losers[xid]; !lost {
		return false
	}
	_, done := an.RolledBack[xid]
	return !done
}

// Analyze runs the analysis pass over the log tail.
func Analyze(iter Iterator) (*Analysis, error) {
	an := &Analysis{
		Winners:    make(map[uint64]struct{}),
		Losers:     make(map[uint64]struct{}),
		RolledBack: make(map[uint64]struct{}),
		UndoNext:   make(map[uint64]wal.LSN),
		Pending:    make(map[uint64][]wal.LSN),
	}
	err := iter(func(rec wal.Record) error {
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
			delete(an.Pending, rec.XID)
		case wal.RecAbort:
			// The rollback completed and its outcome record is durable; the
			// CLR chain below it is durable too (single totally ordered log).
			an.Losers[rec.XID] = struct{}{}
			an.RolledBack[rec.XID] = struct{}{}
			delete(an.Pending, rec.XID)
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
				an.Pending[rec.XID] = append(an.Pending[rec.XID], rec.LSN)
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
	})
	if err != nil {
		return nil, fmt.Errorf("recovery: analysis: %w", err)
	}
	return an, nil
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

// Redo repeats history over the log tail against ap: DDL records and every
// data record — including losers' updates and the CLRs that compensate them
// — in LSN order. Replaying losers verbatim is what lets the undo pass
// resume an interrupted rollback exactly where the durable CLR chain stops.
func Redo(iter Iterator, an *Analysis, ap Applier) (RedoStats, error) {
	var st RedoStats
	err := iter(func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecCreateTable:
			meta, err := catalog.DecodeTableMeta(rec.After)
			if err != nil {
				return fmt.Errorf("LSN %d: %w", rec.LSN, err)
			}
			st.DDL++
			return ap.CreateTable(meta)
		case wal.RecCreateIndex:
			meta, err := catalog.DecodeIndexMeta(rec.After)
			if err != nil {
				return fmt.Errorf("LSN %d: %w", rec.LSN, err)
			}
			st.DDL++
			return ap.CreateIndex(meta)
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete, wal.RecCLR:
			var err error
			switch rec.Type {
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
			}
			if err != nil {
				return fmt.Errorf("LSN %d (%v, xid %d): %w", rec.LSN, rec.Type, rec.XID, err)
			}
			return nil
		default:
			// BEGIN/COMMIT/ABORT carry no redo work.
			return nil
		}
	})
	if err != nil {
		return st, fmt.Errorf("recovery: redo: %w", err)
	}
	return st, nil
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
// repeated history: it collects the losers' data records that analysis
// found uncompensated (Analysis.Pending — everything a durable CLR already
// covers is excluded, so an interrupted rollback is completed, never
// repeated) and applies each one's Compensation in descending LSN order.
// logRec, when non-nil, receives the CLR chain and abort records that make
// this undo durable-exactly-once (see CLRLogger).
func Undo(iter Iterator, an *Analysis, ap Applier, logRec CLRLogger) (UndoStats, error) {
	var st UndoStats
	// The exact uncompensated set per loser, from the analysis simulation.
	need := make(map[uint64]map[wal.LSN]struct{})
	for xid, lsns := range an.Pending {
		if !an.NeedsUndo(xid) || len(lsns) == 0 {
			continue
		}
		set := make(map[wal.LSN]struct{}, len(lsns))
		for _, lsn := range lsns {
			set[lsn] = struct{}{}
		}
		need[xid] = set
	}
	// The common restart has nothing to undo (every transaction committed
	// or fully rolled back); skip the log scan entirely then.
	if len(need) == 0 {
		return st, nil
	}
	var pending []wal.Record
	touched := make(map[uint64]struct{})
	err := iter(func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
		default:
			return nil
		}
		set, ok := need[rec.XID]
		if !ok {
			return nil
		}
		if _, ok := set[rec.LSN]; !ok {
			return nil
		}
		pending = append(pending, rec)
		touched[rec.XID] = struct{}{}
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("recovery: undo: %w", err)
	}
	// prevOf[i] is the index of the same transaction's next-older pending
	// record — the target of the CLR's UndoNext pointer (-1 closes the
	// chain; a partial pre-crash rollback already compensated everything
	// above the resume point, so the new chain continues seamlessly).
	prevOf := make([]int, len(pending))
	lastIdx := make(map[uint64]int)
	for i, rec := range pending {
		if j, ok := lastIdx[rec.XID]; ok {
			prevOf[i] = j
		} else {
			prevOf[i] = -1
		}
		lastIdx[rec.XID] = i
	}
	// Iterators deliver ascending LSNs; undo applies the inverses newest
	// first, interleaving transactions exactly as ARIES' backward scan does.
	for i := len(pending) - 1; i >= 0; i-- {
		rec := pending[i]
		clr := Compensation(rec)
		if uerr := ApplyCLR(ap, clr); uerr != nil {
			return st, fmt.Errorf("recovery: undo LSN %d (%v, xid %d): %w", rec.LSN, rec.Type, rec.XID, uerr)
		}
		st.Undone++
		if logRec != nil {
			if j := prevOf[i]; j >= 0 {
				clr.UndoNext = pending[j].LSN
			}
			if err := logRec(clr); err != nil {
				return st, fmt.Errorf("recovery: undo: logging CLR for xid %d: %w", rec.XID, err)
			}
			if prevOf[i] < 0 {
				// Oldest pending record of the transaction: its rollback is
				// now complete; close it with an abort record.
				if err := logRec(wal.Record{Type: wal.RecAbort, XID: rec.XID}); err != nil {
					return st, fmt.Errorf("recovery: undo: logging abort for xid %d: %w", rec.XID, err)
				}
			}
		}
	}
	st.TxUndone = len(touched)
	for xid := range touched {
		if _, ok := an.UndoNext[xid]; ok {
			st.Resumed++
		}
	}
	return st, nil
}

package core

import (
	"errors"
	"testing"

	"slidb/internal/record"
	"slidb/internal/wal"
)

// savepointEngine gives e a table t holding the row {1, 10}, and closes e
// when the test ends.
func savepointEngine(t *testing.T, e *Engine) *Engine {
	t.Helper()
	t.Cleanup(func() { e.Close() })
	schema := record.MustSchema(
		record.Column{Name: "id", Type: record.TypeInt},
		record.Column{Name: "v", Type: record.TypeInt},
	)
	if err := e.CreateTable("t", schema, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Tx) error {
		return tx.Insert("t", record.Row{record.Int(1), record.Int(10)})
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

func readAll(t *testing.T, e *Engine) map[int64]int64 {
	t.Helper()
	rows := make(map[int64]int64)
	if err := e.Exec(func(tx *Tx) error {
		return tx.ScanTable("t", func(r record.Row) bool {
			rows[r[0].AsInt()] = r[1].AsInt()
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestSavepointRollbackThenCommit is the core savepoint contract: work after
// the savepoint is rolled back (heap, indexes, and compensation-logged),
// work before it and after the rollback commits normally.
func TestSavepointRollbackThenCommit(t *testing.T) {
	e := savepointEngine(t, openDurable(t))
	if err := e.Exec(func(tx *Tx) error {
		// Pre-savepoint work: survives.
		if err := tx.Update("t", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
			r[1] = record.Int(11)
			return r, nil
		}); err != nil {
			return err
		}
		sp := tx.Savepoint()
		// Post-savepoint work: rolled back.
		if err := tx.Insert("t", record.Row{record.Int(2), record.Int(20)}); err != nil {
			return err
		}
		if err := tx.Update("t", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
			r[1] = record.Int(99)
			return r, nil
		}); err != nil {
			return err
		}
		if err := tx.RollbackTo(sp); err != nil {
			return err
		}
		// Mid-transaction reads see the restored state.
		row, ok, err := tx.Get("t", record.Int(1))
		if err != nil || !ok || row[1].AsInt() != 11 {
			t.Errorf("post-rollback read = %v/%v/%v, want v=11", row, ok, err)
		}
		if _, ok, _ := tx.Get("t", record.Int(2)); ok {
			t.Error("post-rollback read still sees rolled-back insert")
		}
		// Continuation after the partial rollback: commits with the tx.
		return tx.Insert("t", record.Row{record.Int(3), record.Int(30)})
	}); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, e); len(got) != 2 || got[1] != 11 || got[3] != 30 {
		t.Fatalf("committed state = %v, want {1:11 3:30}", got)
	}
	if got := e.UndoFailures(); got != 0 {
		t.Fatalf("UndoFailures = %d, want 0", got)
	}

	// The log must show the savepoint span compensated: CLRs for the two
	// post-savepoint records (newest first), UndoNext chaining past them to
	// the pre-savepoint update, then the continuation insert, then commit.
	recs := logRecords(t, e)
	var xid uint64
	for _, r := range recs {
		if r.XID > xid {
			xid = r.XID
		}
	}
	var types []wal.RecType
	var txRecs []wal.Record
	for _, r := range recs {
		if r.XID == xid {
			types = append(types, r.Type)
			txRecs = append(txRecs, r)
		}
	}
	want := []wal.RecType{
		wal.RecBegin, wal.RecUpdate, // pre-savepoint
		wal.RecInsert, wal.RecUpdate, // post-savepoint
		wal.RecCLR, wal.RecCLR, // rollback, newest first
		wal.RecInsert, wal.RecCommit, // continuation
	}
	if len(types) != len(want) {
		t.Fatalf("tx logged %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("record %d is %v, want %v (%v)", i, types[i], want[i], types)
		}
	}
	// First CLR compensates the post-savepoint update and points at the
	// post-savepoint insert; the second points past the span at the
	// PRE-savepoint update, keeping the chain intact for a full abort.
	if txRecs[4].UndoNext != txRecs[2].LSN {
		t.Errorf("CLR 1 UndoNext = %d, want %d", txRecs[4].UndoNext, txRecs[2].LSN)
	}
	if txRecs[5].UndoNext != txRecs[1].LSN {
		t.Errorf("CLR 2 UndoNext = %d, want pre-savepoint update %d", txRecs[5].UndoNext, txRecs[1].LSN)
	}
}

// TestSavepointThenAbort pins the interaction of a partial rollback with a
// later full abort: the abort must undo the continuation and the
// pre-savepoint work but never the already-compensated span.
func TestSavepointThenAbort(t *testing.T) {
	e := savepointEngine(t, Open(Config{}))
	boom := errors.New("boom")
	err := e.Exec(func(tx *Tx) error {
		if err := tx.Update("t", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
			r[1] = record.Int(11)
			return r, nil
		}); err != nil {
			return err
		}
		sp := tx.Savepoint()
		if err := tx.Insert("t", record.Row{record.Int(2), record.Int(20)}); err != nil {
			return err
		}
		if err := tx.RollbackTo(sp); err != nil {
			return err
		}
		if err := tx.Insert("t", record.Row{record.Int(3), record.Int(30)}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := readAll(t, e); len(got) != 1 || got[1] != 10 {
		t.Fatalf("aborted state = %v, want {1:10}", got)
	}
	if got := e.UndoFailures(); got != 0 {
		t.Fatalf("UndoFailures = %d, want 0", got)
	}
}

// TestSavepointValidation pins RollbackTo's argument checking: a savepoint
// invalidated by an earlier RollbackTo (its span no longer exists) and a
// no-op savepoint both behave sanely.
func TestSavepointValidation(t *testing.T) {
	e := savepointEngine(t, Open(Config{}))
	if err := e.Exec(func(tx *Tx) error {
		sp0 := tx.Savepoint()
		if err := tx.RollbackTo(sp0); err != nil {
			t.Errorf("empty-span RollbackTo: %v", err)
		}
		if err := tx.Insert("t", record.Row{record.Int(5), record.Int(50)}); err != nil {
			return err
		}
		spLater := tx.Savepoint()
		if err := tx.RollbackTo(sp0); err != nil {
			t.Errorf("RollbackTo(sp0): %v", err)
		}
		// spLater's position no longer exists.
		if err := tx.RollbackTo(spLater); !errors.Is(err, ErrBadSavepoint) {
			t.Errorf("stale savepoint: err = %v, want ErrBadSavepoint", err)
		}
		// Regrow the undo chain past spLater's position: the savepoint is
		// positionally plausible again but marks a span that was rolled
		// back — the birth-stamp check must still reject it.
		for i := int64(6); i < 9; i++ {
			if err := tx.Insert("t", record.Row{record.Int(i), record.Int(i * 10)}); err != nil {
				return err
			}
		}
		if err := tx.RollbackTo(spLater); !errors.Is(err, ErrBadSavepoint) {
			t.Errorf("stale savepoint after regrow: err = %v, want ErrBadSavepoint", err)
		}
		// A savepoint below every truncation stays valid and rolls back the
		// regrown entries.
		if err := tx.RollbackTo(sp0); err != nil {
			t.Errorf("RollbackTo(sp0) after regrow: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, e); len(got) != 1 {
		t.Fatalf("state = %v, want only the seed row", got)
	}
}

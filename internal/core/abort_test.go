package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"slidb/internal/profiler"
	"slidb/internal/record"
	"slidb/internal/wal"
)

// TestAbortLogsCLRChain pins the compensation-logging contract: an aborted
// transaction's rollback appends one redo-only CLR per undo action, in
// reverse order of the original records, chained through UndoNext, and ends
// with an abort record.
func TestAbortLogsCLRChain(t *testing.T) {
	e := openDurable(t)
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

	boom := errors.New("boom")
	err := e.Exec(func(tx *Tx) error {
		if err := tx.Insert("t", record.Row{record.Int(2), record.Int(20)}); err != nil {
			return err
		}
		if err := tx.Update("t", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
			r[1] = record.Int(11)
			return r, nil
		}); err != nil {
			return err
		}
		if err := tx.Delete("t", record.Int(1)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}

	// Collect the aborted transaction's records (the highest XID in the log).
	recs := logRecords(t, e)
	var aborted []wal.Record
	var xid uint64
	for _, r := range recs {
		if r.XID > xid {
			xid = r.XID
		}
	}
	for _, r := range recs {
		if r.XID == xid {
			aborted = append(aborted, r)
		}
	}
	wantTypes := []wal.RecType{
		wal.RecBegin, wal.RecInsert, wal.RecUpdate, wal.RecDelete,
		wal.RecCLR, wal.RecCLR, wal.RecCLR, wal.RecAbort,
	}
	if len(aborted) != len(wantTypes) {
		t.Fatalf("aborted tx has %d records, want %d: %+v", len(aborted), len(wantTypes), aborted)
	}
	for i, want := range wantTypes {
		if aborted[i].Type != want {
			t.Fatalf("record %d is %v, want %v", i, aborted[i].Type, want)
		}
	}
	// The CLR chain walks the data records newest-first: the first CLR
	// compensates the delete and points at the update, the second points at
	// the insert, and the last one closes the chain with UndoNext 0.
	insertLSN, updateLSN := aborted[1].LSN, aborted[2].LSN
	clrs := aborted[4:7]
	if clrs[0].UndoNext != updateLSN {
		t.Errorf("first CLR UndoNext = %d, want update LSN %d", clrs[0].UndoNext, updateLSN)
	}
	if clrs[1].UndoNext != insertLSN {
		t.Errorf("second CLR UndoNext = %d, want insert LSN %d", clrs[1].UndoNext, insertLSN)
	}
	if clrs[2].UndoNext != 0 {
		t.Errorf("last CLR UndoNext = %d, want 0 (rollback complete)", clrs[2].UndoNext)
	}
	// CLR image shapes: undo-delete re-inserts (After only), undo-update
	// restores (Before+After), undo-insert removes (Before only).
	if len(clrs[0].After) == 0 || len(clrs[0].Before) != 0 {
		t.Errorf("undo-delete CLR images: before=%d after=%d bytes", len(clrs[0].Before), len(clrs[0].After))
	}
	if len(clrs[1].Before) == 0 || len(clrs[1].After) == 0 {
		t.Errorf("undo-update CLR images: before=%d after=%d bytes", len(clrs[1].Before), len(clrs[1].After))
	}
	if len(clrs[2].Before) == 0 || len(clrs[2].After) != 0 {
		t.Errorf("undo-insert CLR images: before=%d after=%d bytes", len(clrs[2].Before), len(clrs[2].After))
	}
	if got := e.UndoFailures(); got != 0 {
		t.Fatalf("UndoFailures = %d, want 0", got)
	}
}

// TestELRAbortReleasesLocksBeforeDurable is the abort-side analogue of
// TestELRLockHoldExcludesFlushWait: N conflicting transactions each update
// the same row and then abort. Without ELR every rollback holds the row's X
// lock across the abort record's force (LogFlushDelay each); with ELR the
// lock is released at abort-record append, so the whole run finishes in a
// small multiple of one delay.
func TestELRAbortReleasesLocksBeforeDurable(t *testing.T) {
	const (
		n     = 20
		delay = 30 * time.Millisecond
	)
	e := openELREngine(t, Config{
		Agents:                 4,
		EarlyLockRelease:       true,
		EarlyLockReleaseAborts: true,
		AsyncCommit:            true,
		LogFlushDelay:          delay,
		Profile:                true,
	})

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := e.Exec(func(tx *Tx) error {
				if err := tx.Update("t", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
					r[1] = record.Int(r[1].AsInt() + 1)
					return r, nil
				}); err != nil {
					return err
				}
				return Abort
			})
			if !errors.Is(err, Abort) {
				t.Errorf("err = %v, want Abort", err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Serialized lock-held abort flushes would need n*delay = 600ms.
	if elapsed >= time.Duration(n)*delay {
		t.Errorf("run took %v, want well under %v (locks appear to be held across abort flushes)", elapsed, time.Duration(n)*delay)
	}
	if got := e.ELRAborts(); got < n {
		t.Errorf("ELRAborts = %d, want >= %d", got, n)
	}
	if got := e.UndoFailures(); got != 0 {
		t.Fatalf("UndoFailures = %d, want 0", got)
	}
	// Every rollback was applied: the row still has its initial value.
	var final int64
	if err := e.Exec(func(tx *Tx) error {
		row, _, err := tx.Get("t", record.Int(1))
		final = row[1].AsInt()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if final != 0 {
		t.Fatalf("row value = %d after %d aborted increments, want 0", final, n)
	}
	// The abort path must kick the flusher itself: even with no later
	// commit subscribing, the CLR chains and abort records drain to disk
	// and the durable lag returns to zero.
	deadline := time.Now().Add(5 * time.Second)
	for e.DurableLag() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("durable lag stuck at %d: ELR aborts never flushed", e.DurableLag())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestELRReleasesCountCommitsOnly pins the split of the two early-release
// counters: the lock manager's ELRReleases (slidb_elr_releases_total) counts
// commits released at commit-record append, and an abort released early is
// counted once, in the engine's ELRAborts.
func TestELRReleasesCountCommitsOnly(t *testing.T) {
	cases := []struct {
		name                    string
		cfg                     Config
		commits, aborts         int
		wantReleases, wantAbort uint64
	}{
		{"aborts only", Config{Agents: 1, EarlyLockReleaseAborts: true}, 0, 5, 0, 5},
		{"both knobs", Config{Agents: 1, EarlyLockRelease: true, EarlyLockReleaseAborts: true}, 1, 1, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := openELREngine(t, tc.cfg)
			releases, elrAborts := e.LockStats().ELRReleases, e.ELRAborts()
			id := int64(1)
			insert := func(result error) error {
				id++
				return e.Exec(func(tx *Tx) error {
					if err := tx.Insert("t", record.Row{record.Int(id), record.Int(0)}); err != nil {
						return err
					}
					return result
				})
			}
			for i := 0; i < tc.commits; i++ {
				if err := insert(nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < tc.aborts; i++ {
				if err := insert(Abort); !errors.Is(err, Abort) {
					t.Fatalf("err = %v, want Abort", err)
				}
			}
			if got := e.LockStats().ELRReleases - releases; got != tc.wantReleases {
				t.Errorf("ELRReleases = %d, want %d", got, tc.wantReleases)
			}
			if got := e.ELRAborts() - elrAborts; got != tc.wantAbort {
				t.Errorf("ELRAborts = %d, want %d", got, tc.wantAbort)
			}
		})
	}
}

// TestStrictAbortWaitsForDurability pins the baseline the high-abort
// ablation measures against: without ELR an aborting transaction blocks on
// the force of its abort record while still holding its locks, and that
// wait is attributed to the LogFlush profiler category.
func TestStrictAbortWaitsForDurability(t *testing.T) {
	const delay = 20 * time.Millisecond
	e := openELREngine(t, Config{
		Agents:        1,
		LogFlushDelay: delay,
		Profile:       true,
	})
	before := e.Profiler().Aggregate().Get(profiler.LogFlush)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.Update("t", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
			r[1] = record.Int(99)
			return r, nil
		}); err != nil {
			return err
		}
		return Abort
	})
	if !errors.Is(err, Abort) {
		t.Fatalf("err = %v, want Abort", err)
	}
	flushWait := e.Profiler().Aggregate().Get(profiler.LogFlush) - before
	if flushWait < delay/2 {
		t.Errorf("abort-path LogFlush = %v, want >= %v (strict abort must wait for durability)", flushWait, delay/2)
	}
	if got := e.ELRAborts(); got != 0 {
		t.Errorf("ELRAborts = %d, want 0 without EarlyLockRelease", got)
	}
}

// TestLogAppendFailureRollsBackInline is the regression test for the
// undo-registration ordering bug: Insert/Update/Delete apply their heap and
// index mutations before appending to the WAL, so a failed append (wedged or
// crashed log) used to leave the mutation applied with nothing registered to
// undo it. Each path must now roll the mutation back inline.
func TestLogAppendFailureRollsBackInline(t *testing.T) {
	setup := func(t *testing.T) *Engine {
		e := Open(Config{})
		t.Cleanup(func() { e.Close() })
		schema := record.MustSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "v", Type: record.TypeInt},
		)
		if err := e.CreateTable("t", schema, []string{"id"}); err != nil {
			t.Fatal(err)
		}
		if err := e.CreateIndex("t_by_v", "t", []string{"v"}, false); err != nil {
			t.Fatal(err)
		}
		if err := e.Exec(func(tx *Tx) error {
			return tx.Insert("t", record.Row{record.Int(1), record.Int(10)})
		}); err != nil {
			t.Fatal(err)
		}
		return e
	}

	// readState returns the rows visible to a read-only transaction (which
	// never touches the log, so it works on a crashed-log engine).
	readState := func(t *testing.T, e *Engine) map[int64]int64 {
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
	wantSeed := map[int64]int64{1: 10}

	t.Run("insert", func(t *testing.T) {
		e := setup(t)
		// The first insert succeeds and registers an undo; the log then
		// crashes and the second insert must roll itself back inline. The
		// abort also undoes the first insert (its CLR append fails, which is
		// fine — the log is gone anyway).
		err := e.Exec(func(tx *Tx) error {
			if err := tx.Insert("t", record.Row{record.Int(2), record.Int(20)}); err != nil {
				return err
			}
			e.log.Crash()
			return tx.Insert("t", record.Row{record.Int(3), record.Int(30)})
		})
		if err == nil {
			t.Fatal("insert on crashed log succeeded")
		}
		if got := readState(t, e); len(got) != 1 || got[1] != wantSeed[1] {
			t.Fatalf("rows after failed insert = %v, want %v", got, wantSeed)
		}
		if rows, err2 := lookupByV(e, 30); err2 != nil || len(rows) != 0 {
			t.Fatalf("secondary index still sees the failed insert: rows=%v err=%v", rows, err2)
		}
		if got := e.UndoFailures(); got != 0 {
			t.Fatalf("UndoFailures = %d, want 0", got)
		}
	})

	t.Run("update", func(t *testing.T) {
		e := setup(t)
		e.log.Crash()
		err := e.Exec(func(tx *Tx) error {
			return tx.Update("t", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
				r[1] = record.Int(77)
				return r, nil
			})
		})
		if err == nil {
			t.Fatal("update on crashed log succeeded")
		}
		if got := readState(t, e); got[1] != 10 {
			t.Fatalf("row value after failed update = %d, want 10", got[1])
		}
		if rows, err2 := lookupByV(e, 10); err2 != nil || len(rows) != 1 {
			t.Fatalf("secondary index lost the old key: rows=%v err=%v", rows, err2)
		}
		if got := e.UndoFailures(); got != 0 {
			t.Fatalf("UndoFailures = %d, want 0", got)
		}
	})

	t.Run("delete", func(t *testing.T) {
		e := setup(t)
		e.log.Crash()
		err := e.Exec(func(tx *Tx) error {
			return tx.Delete("t", record.Int(1))
		})
		if err == nil {
			t.Fatal("delete on crashed log succeeded")
		}
		if got := readState(t, e); len(got) != 1 || got[1] != 10 {
			t.Fatalf("rows after failed delete = %v, want %v", got, wantSeed)
		}
		if rows, err2 := lookupByV(e, 10); err2 != nil || len(rows) != 1 {
			t.Fatalf("secondary index lost the deleted row's key: rows=%v err=%v", rows, err2)
		}
		if got := e.UndoFailures(); got != 0 {
			t.Fatalf("UndoFailures = %d, want 0", got)
		}
	})
}

// lookupByV reads the non-unique secondary index in a read-only transaction.
func lookupByV(e *Engine, v int64) ([]record.Row, error) {
	var rows []record.Row
	err := e.Exec(func(tx *Tx) error {
		var lerr error
		rows, lerr = tx.LookupIndex("t_by_v", record.Int(v))
		return lerr
	})
	return rows, err
}

// TestRollbackFindsMovedRow rolls back an update and then a delete of the
// same row. Undoing the delete re-inserts the row at a fresh RID, so the
// update's compensation must find the row by primary key: written to the
// RID the update was logged at, it misses (or hits another row) and the
// rolled-back value survives. Row 1 sits on an older heap page than the
// append page, so the re-insert cannot land back in its old slot.
func TestRollbackFindsMovedRow(t *testing.T) {
	const rows = 301
	setup := func(t *testing.T) *Engine {
		e := Open(Config{})
		t.Cleanup(func() { e.Close() })
		schema := record.MustSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "pad", Type: record.TypeString},
			record.Column{Name: "v", Type: record.TypeInt},
		)
		if err := e.CreateTable("t", schema, []string{"id"}); err != nil {
			t.Fatal(err)
		}
		if err := e.CreateIndex("t_by_v", "t", []string{"v"}, false); err != nil {
			t.Fatal(err)
		}
		pad := record.String(strings.Repeat("x", 100))
		if err := e.Exec(func(tx *Tx) error {
			for id := int64(1); id <= rows; id++ {
				if err := tx.Insert("t", record.Row{record.Int(id), pad, record.Int(10)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		rt, _ := e.tableRuntime("t")
		first, _ := rt.pk.tree.Get(record.EncodeKey(record.Int(1)))
		last, _ := rt.pk.tree.Get(record.EncodeKey(record.Int(rows)))
		if first.Page == last.Page {
			t.Fatalf("row 1 shares the append page %d; the test needs it on an older page", last.Page)
		}
		return e
	}
	updateThenDelete := func(tx *Tx) error {
		if err := tx.Update("t", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
			r[2] = record.Int(11)
			return r, nil
		}); err != nil {
			return err
		}
		return tx.Delete("t", record.Int(1))
	}
	check := func(t *testing.T, e *Engine) {
		t.Helper()
		if err := e.Exec(func(tx *Tx) error {
			row, ok, err := tx.Get("t", record.Int(1))
			if err != nil || !ok || row[2].AsInt() != 10 {
				t.Errorf("row 1 after rollback = %v/%v/%v, want v=10", row, ok, err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got, err := lookupByV(e, 10); err != nil || len(got) != rows {
			t.Errorf("index lookup v=10 found %d rows (err %v), want %d", len(got), err, rows)
		}
		if got, err := lookupByV(e, 11); err != nil || len(got) != 0 {
			t.Errorf("index lookup v=11 found %d rows (err %v), want 0", len(got), err)
		}
		if got := e.UndoFailures(); got != 0 {
			t.Errorf("UndoFailures = %d, want 0", got)
		}
	}

	t.Run("abort", func(t *testing.T) {
		e := setup(t)
		errStop := errors.New("stop")
		if err := e.Exec(func(tx *Tx) error {
			if err := updateThenDelete(tx); err != nil {
				return err
			}
			return errStop
		}); !errors.Is(err, errStop) {
			t.Fatalf("Exec = %v, want %v", err, errStop)
		}
		check(t, e)
	})

	t.Run("savepoint", func(t *testing.T) {
		e := setup(t)
		if err := e.Exec(func(tx *Tx) error {
			sp := tx.Savepoint()
			if err := updateThenDelete(tx); err != nil {
				return err
			}
			if err := tx.RollbackTo(sp); err != nil {
				t.Errorf("RollbackTo = %v, want nil", err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check(t, e)
	})
}

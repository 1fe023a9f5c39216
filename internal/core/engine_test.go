package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"slidb/internal/lockmgr"
	"slidb/internal/record"
	"slidb/internal/wal"
)

func accountSchema() *record.Schema {
	return record.MustSchema(
		record.Column{Name: "id", Type: record.TypeInt},
		record.Column{Name: "owner", Type: record.TypeString},
		record.Column{Name: "balance", Type: record.TypeFloat},
	)
}

// newBankEngine creates an engine with an accounts table and n accounts of
// 100.0 each.
func newBankEngine(t testing.TB, cfg Config, n int) *Engine {
	t.Helper()
	return loadBank(t, Open(cfg), n)
}

// openDurable opens a disk-backed engine on a fresh directory.
func openDurable(t testing.TB) *Engine {
	t.Helper()
	e, err := OpenAt(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// logRecords forces a durable engine's log and reads every record back from
// its segment files: the log itself keeps nothing it has flushed.
func logRecords(t testing.TB, e *Engine) []wal.Record {
	t.Helper()
	if err := e.log.Flush(e.log.LastLSN()); err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	if err := e.segs.Iterate(0, func(r wal.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// loadBank gives e an accounts table and n accounts of 100.0 each, and
// closes it when the test ends.
func loadBank(t testing.TB, e *Engine, n int) *Engine {
	t.Helper()
	t.Cleanup(func() { e.Close() })
	if err := e.CreateTable("accounts", accountSchema(), []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("accounts_by_owner", "accounts", []string{"owner"}, false); err != nil {
		t.Fatal(err)
	}
	err := e.Exec(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			row := record.Row{record.Int(int64(i)), record.String(fmt.Sprintf("owner-%d", i%10)), record.Float(100)}
			if err := tx.Insert("accounts", row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestInsertAndGet(t *testing.T) {
	e := newBankEngine(t, Config{Agents: 2}, 10)
	err := e.Exec(func(tx *Tx) error {
		row, found, err := tx.Get("accounts", record.Int(3))
		if err != nil {
			return err
		}
		if !found {
			return errors.New("account 3 missing")
		}
		if row[2].AsFloat() != 100 {
			return fmt.Errorf("balance = %v, want 100", row[2].AsFloat())
		}
		if _, found, _ := tx.Get("accounts", record.Int(9999)); found {
			return errors.New("found a row that was never inserted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Committed() == 0 {
		t.Fatal("commit counter not incremented")
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	e := newBankEngine(t, Config{}, 5)
	err := e.Exec(func(tx *Tx) error {
		return tx.Insert("accounts", record.Row{record.Int(3), record.String("x"), record.Float(1)})
	})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
	if e.Aborted() == 0 {
		t.Fatal("aborted counter not incremented")
	}
}

func TestUpdateAndReadBack(t *testing.T) {
	e := newBankEngine(t, Config{Agents: 1}, 5)
	err := e.Exec(func(tx *Tx) error {
		return tx.Update("accounts", []record.Value{record.Int(2)}, func(r record.Row) (record.Row, error) {
			r[2] = record.Float(r[2].AsFloat() + 50)
			return r, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	err = e.Exec(func(tx *Tx) error {
		row, _, err := tx.Get("accounts", record.Int(2))
		if err != nil {
			return err
		}
		if row[2].AsFloat() != 150 {
			return fmt.Errorf("balance = %v, want 150", row[2].AsFloat())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMissingRowAndPKChangeRejected(t *testing.T) {
	e := newBankEngine(t, Config{}, 3)
	err := e.Exec(func(tx *Tx) error {
		return tx.Update("accounts", []record.Value{record.Int(77)}, func(r record.Row) (record.Row, error) { return r, nil })
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	err = e.Exec(func(tx *Tx) error {
		return tx.Update("accounts", []record.Value{record.Int(1)}, func(r record.Row) (record.Row, error) {
			r[0] = record.Int(999)
			return r, nil
		})
	})
	if !errors.Is(err, ErrPrimaryKeyChange) {
		t.Fatalf("err = %v, want ErrPrimaryKeyChange", err)
	}
}

func TestDeleteAndNotFound(t *testing.T) {
	e := newBankEngine(t, Config{}, 3)
	if err := e.Exec(func(tx *Tx) error { return tx.Delete("accounts", record.Int(1)) }); err != nil {
		t.Fatal(err)
	}
	err := e.Exec(func(tx *Tx) error {
		if _, found, _ := tx.Get("accounts", record.Int(1)); found {
			return errors.New("deleted row still visible")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Tx) error { return tx.Delete("accounts", record.Int(1)) }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
}

func TestAbortRollsBackEverything(t *testing.T) {
	e := newBankEngine(t, Config{}, 3)
	sentinel := errors.New("boom")
	err := e.Exec(func(tx *Tx) error {
		if err := tx.Insert("accounts", record.Row{record.Int(50), record.String("new"), record.Float(1)}); err != nil {
			return err
		}
		if err := tx.Update("accounts", []record.Value{record.Int(0)}, func(r record.Row) (record.Row, error) {
			r[2] = record.Float(0)
			return r, nil
		}); err != nil {
			return err
		}
		if err := tx.Delete("accounts", record.Int(2)); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	err = e.Exec(func(tx *Tx) error {
		if _, found, _ := tx.Get("accounts", record.Int(50)); found {
			return errors.New("aborted insert visible")
		}
		row, _, _ := tx.Get("accounts", record.Int(0))
		if row[2].AsFloat() != 100 {
			return fmt.Errorf("aborted update visible: balance %v", row[2].AsFloat())
		}
		if _, found, _ := tx.Get("accounts", record.Int(2)); !found {
			return errors.New("aborted delete visible (row missing)")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	e := newBankEngine(t, Config{}, 30)
	err := e.Exec(func(tx *Tx) error {
		rows, err := tx.LookupIndex("accounts_by_owner", record.String("owner-3"))
		if err != nil {
			return err
		}
		if len(rows) != 3 {
			return fmt.Errorf("owner-3 has %d accounts, want 3", len(rows))
		}
		for _, r := range rows {
			if r[1].AsString() != "owner-3" {
				return fmt.Errorf("wrong row returned: %v", r)
			}
		}
		none, err := tx.LookupIndex("accounts_by_owner", record.String("nobody"))
		if err != nil {
			return err
		}
		if len(none) != 0 {
			return errors.New("lookup of missing key returned rows")
		}
		if _, err := tx.LookupIndex("no_such_index", record.Int(1)); err == nil {
			return errors.New("unknown index accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSecondaryIndexFollowsUpdates(t *testing.T) {
	e := newBankEngine(t, Config{}, 5)
	// Move account 4 to a new owner and check both index sides.
	err := e.Exec(func(tx *Tx) error {
		return tx.Update("accounts", []record.Value{record.Int(4)}, func(r record.Row) (record.Row, error) {
			r[1] = record.String("new-owner")
			return r, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	err = e.Exec(func(tx *Tx) error {
		rows, _ := tx.LookupIndex("accounts_by_owner", record.String("new-owner"))
		if len(rows) != 1 || rows[0][0].AsInt() != 4 {
			return fmt.Errorf("new owner lookup = %v", rows)
		}
		rows, _ = tx.LookupIndex("accounts_by_owner", record.String("owner-4"))
		for _, r := range rows {
			if r[0].AsInt() == 4 {
				return errors.New("stale index entry for old owner")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanRangeAndScanTable(t *testing.T) {
	e := newBankEngine(t, Config{}, 20)
	err := e.Exec(func(tx *Tx) error {
		var ids []int64
		if err := tx.ScanRange("accounts", []record.Value{record.Int(5)}, []record.Value{record.Int(9)}, func(r record.Row) bool {
			ids = append(ids, r[0].AsInt())
			return true
		}); err != nil {
			return err
		}
		if len(ids) != 5 || ids[0] != 5 || ids[4] != 9 {
			return fmt.Errorf("range scan ids = %v", ids)
		}
		count := 0
		if err := tx.ScanTable("accounts", func(r record.Row) bool {
			count++
			return true
		}); err != nil {
			return err
		}
		if count != 20 {
			return fmt.Errorf("full scan saw %d rows, want 20", count)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnknownTableErrors(t *testing.T) {
	e := Open(Config{})
	defer e.Close()
	err := e.Exec(func(tx *Tx) error {
		if err := tx.Insert("nope", record.Row{record.Int(1)}); err == nil {
			return errors.New("insert into unknown table accepted")
		}
		if _, _, err := tx.Get("nope", record.Int(1)); err == nil {
			return errors.New("get from unknown table accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("", accountSchema(), []string{"id"}); err == nil {
		t.Fatal("empty table name accepted")
	}
	if err := e.CreateIndex("ix", "nope", []string{"id"}, false); err == nil {
		t.Fatal("index on unknown table accepted")
	}
}

func TestClosedEngineRejectsWork(t *testing.T) {
	e := Open(Config{Agents: 1})
	e.Close()
	if err := e.Exec(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := e.CreateTable("t", accountSchema(), []string{"id"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestCreateIndexBackfillsExistingRows(t *testing.T) {
	e := newBankEngine(t, Config{}, 12)
	if err := e.CreateIndex("by_balance", "accounts", []string{"balance"}, false); err != nil {
		t.Fatal(err)
	}
	err := e.Exec(func(tx *Tx) error {
		rows, err := tx.LookupIndex("by_balance", record.Float(100))
		if err != nil {
			return err
		}
		if len(rows) != 12 {
			return fmt.Errorf("backfilled index returned %d rows, want 12", len(rows))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// transferMoney is the classic concurrent-transfer invariant test: total
// balance must be conserved under concurrent random transfers, both with and
// without SLI.
func transferMoney(t *testing.T, sli bool) {
	t.Helper()
	const accounts = 20
	const workers = 8
	const transfersPerWorker = 100
	e := newBankEngine(t, Config{Agents: 4, SLI: sli}, accounts)
	var wg sync.WaitGroup
	errCh := make(chan error, workers*transfersPerWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < transfersPerWorker; i++ {
				from := int64((w*7 + i) % accounts)
				to := int64((w*13 + i*3 + 1) % accounts)
				if from == to {
					continue
				}
				err := e.Exec(func(tx *Tx) error {
					// Lock in a canonical order to avoid deadlocks.
					first, second := from, to
					if first > second {
						first, second = second, first
					}
					for _, id := range []int64{first, second} {
						delta := -10.0
						if id == to {
							delta = 10.0
						}
						if err := tx.Update("accounts", []record.Value{record.Int(id)}, func(r record.Row) (record.Row, error) {
							r[2] = record.Float(r[2].AsFloat() + delta)
							return r, nil
						}); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					errCh <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Verify conservation.
	err := e.Exec(func(tx *Tx) error {
		total := 0.0
		if err := tx.ScanTable("accounts", func(r record.Row) bool {
			total += r[2].AsFloat()
			return true
		}); err != nil {
			return err
		}
		if total != accounts*100 {
			return fmt.Errorf("total balance = %v, want %v", total, accounts*100)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTransfersConserveMoneyBaseline(t *testing.T) { transferMoney(t, false) }
func TestConcurrentTransfersConserveMoneySLI(t *testing.T)      { transferMoney(t, true) }

func TestSLIEngineTogglesAndStats(t *testing.T) {
	e := newBankEngine(t, Config{Agents: 2, SLI: true, Profile: true}, 50)
	if !e.SLIEnabled() {
		t.Fatal("SLI should be enabled")
	}
	// Force the hot path: mark table + db locks hot, then run many
	// single-row reads through the agent pool.
	tbl := e.tables.Load().byName["accounts"].meta
	e.LockManager().ForceHot(lockmgr.TableLock(databaseID, tbl.ID))
	e.LockManager().ForceHot(lockmgr.DatabaseLock(databaseID))
	for i := 0; i < 300; i++ {
		id := int64(i % 50)
		if err := e.Exec(func(tx *Tx) error {
			_, _, err := tx.Get("accounts", record.Int(id))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.LockStats()
	if s.SLIPassed == 0 || s.SLIReclaimed == 0 {
		t.Fatalf("SLI never engaged: %+v", s)
	}
	if e.Profiler().Aggregate().Total() == 0 {
		t.Fatal("profiler collected nothing")
	}
	e.SetSLI(false)
	if e.SLIEnabled() {
		t.Fatal("SetSLI(false) did not disable")
	}
	if e.BufferStats().Hits == 0 {
		t.Fatal("buffer pool reported no hits")
	}
}

// TestAgentsFixedAtOpen pins the agent count Open fixes: Concurrency reports
// it, a negative count runs inline as zero does, and Exec works either way.
func TestAgentsFixedAtOpen(t *testing.T) {
	for _, tc := range []struct{ agents, want int }{{2, 2}, {0, 0}, {-5, 0}} {
		t.Run(fmt.Sprintf("agents=%d", tc.agents), func(t *testing.T) {
			e := Open(Config{Agents: tc.agents})
			t.Cleanup(func() { e.Close() })
			if got := e.Concurrency(); got != tc.want {
				t.Fatalf("Concurrency() = %d, want %d", got, tc.want)
			}
			if err := e.CreateTable("accounts", accountSchema(), []string{"id"}); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				done <- e.Exec(func(tx *Tx) error {
					_, _, err := tx.Get("accounts", record.Int(1))
					return err
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Exec of a Get did not return within 5s")
			}
		})
	}
}

func TestGetForUpdateBlocksConflictingWriter(t *testing.T) {
	e := newBankEngine(t, Config{Agents: 4}, 5)
	// Two transactions updating the same account concurrently must serialize
	// and both apply.
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := e.Exec(func(tx *Tx) error {
				return tx.Update("accounts", []record.Value{record.Int(0)}, func(r record.Row) (record.Row, error) {
					r[2] = record.Float(r[2].AsFloat() + 1)
					return r, nil
				})
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	err := e.Exec(func(tx *Tx) error {
		row, _, err := tx.Get("accounts", record.Int(0))
		if err != nil {
			return err
		}
		if row[2].AsFloat() != 110 {
			return fmt.Errorf("balance = %v, want 110 (lost updates)", row[2].AsFloat())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWALRecordsWritten(t *testing.T) {
	e := openDurable(t)
	start := e.log.LastLSN()
	loadBank(t, e, 3)
	if e.log.LastLSN() == start {
		t.Fatal("no WAL records were appended during setup")
	}
	recs := logRecords(t, e)
	if len(recs) == 0 {
		t.Fatal("no WAL records were flushed at commit")
	}
	sawCommit := false
	for _, r := range recs {
		if r.Type.String() == "COMMIT" {
			sawCommit = true
		}
	}
	if !sawCommit {
		t.Fatal("no commit record in the WAL")
	}
}

// TestVolatileEngineKeepsNoLog pins that an in-memory engine's log keeps
// nothing it has flushed: the heap must not grow with the number of
// committed updates.
func TestVolatileEngineKeepsNoLog(t *testing.T) {
	e := newBankEngine(t, Config{}, 100)
	update := func(n int) {
		for i := 0; i < n; i++ {
			if err := e.Exec(func(tx *Tx) error {
				return tx.Update("accounts", []record.Value{record.Int(int64(i % 100))}, func(r record.Row) (record.Row, error) {
					r[2] = record.Float(r[2].AsFloat() + 1)
					return r, nil
				})
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	update(2000)
	before := heap()
	update(20000)
	growth := heap() - before
	t.Logf("heap grew %d bytes over 20000 updates", growth)
	if growth >= 2<<20 {
		t.Fatalf("heap grew %d bytes over 20000 updates, want under 2 MiB", growth)
	}
}

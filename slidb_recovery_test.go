package slidb_test

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"slidb"
	"slidb/internal/wal"
)

// accountsSchema and friends model a TPC-B-style bank: branches hold the
// aggregate balance of their accounts, and every committed transfer appends
// a history row.
var (
	accountsSchema = slidb.MustSchema(
		slidb.Column{Name: "aid", Type: slidb.TypeInt},
		slidb.Column{Name: "bid", Type: slidb.TypeInt},
		slidb.Column{Name: "balance", Type: slidb.TypeInt},
	)
	branchesSchema = slidb.MustSchema(
		slidb.Column{Name: "bid", Type: slidb.TypeInt},
		slidb.Column{Name: "balance", Type: slidb.TypeInt},
	)
	historySchema = slidb.MustSchema(
		slidb.Column{Name: "hid", Type: slidb.TypeInt},
		slidb.Column{Name: "aid", Type: slidb.TypeInt},
		slidb.Column{Name: "delta", Type: slidb.TypeInt},
	)
)

func setupBank(t *testing.T, db *slidb.Engine, branches, accounts int) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.CreateTable("accounts", accountsSchema, []string{"aid"}))
	must(db.CreateTable("branches", branchesSchema, []string{"bid"}))
	must(db.CreateTable("history", historySchema, []string{"hid"}))
	must(db.CreateIndex("accounts_by_branch", "accounts", []string{"bid"}, false))
	must(db.Exec(func(tx *slidb.Tx) error {
		for b := 0; b < branches; b++ {
			if err := tx.Insert("branches", slidb.Row{slidb.Int(int64(b)), slidb.Int(0)}); err != nil {
				return err
			}
		}
		for a := 0; a < accounts; a++ {
			row := slidb.Row{slidb.Int(int64(a)), slidb.Int(int64(a % branches)), slidb.Int(0)}
			if err := tx.Insert("accounts", row); err != nil {
				return err
			}
		}
		return nil
	}))
}

// transfer applies one TPC-B-style transaction: adjust an account, its
// branch, and append a history row. When crashAfterWrites is set the
// transaction does all its writes and then aborts, making it a loser whose
// effects must be invisible after recovery.
func transfer(tx *slidb.Tx, hid, aid, bid, delta int64, crashAfterWrites bool) error {
	add := func(table string, key slidb.Value) error {
		return tx.Update(table, []slidb.Value{key}, func(r slidb.Row) (slidb.Row, error) {
			r[len(r)-1] = slidb.Int(r[len(r)-1].AsInt() + delta)
			return r, nil
		})
	}
	if err := add("accounts", slidb.Int(aid)); err != nil {
		return err
	}
	if err := add("branches", slidb.Int(bid)); err != nil {
		return err
	}
	if err := tx.Insert("history", slidb.Row{slidb.Int(hid), slidb.Int(aid), slidb.Int(delta)}); err != nil {
		return err
	}
	if crashAfterWrites {
		return errDeliberateAbort
	}
	return nil
}

var errDeliberateAbort = errors.New("deliberate mid-flight abort")

// bankState reads the recovered database back.
type bankState struct {
	accountTotal int64
	branchTotal  int64
	history      map[int64]int64 // hid -> delta
}

func readBank(t *testing.T, db *slidb.Engine) bankState {
	t.Helper()
	st := bankState{history: make(map[int64]int64)}
	err := db.Exec(func(tx *slidb.Tx) error {
		if err := tx.ScanTable("accounts", func(r slidb.Row) bool {
			st.accountTotal += r[2].AsInt()
			return true
		}); err != nil {
			return err
		}
		if err := tx.ScanTable("branches", func(r slidb.Row) bool {
			st.branchTotal += r[1].AsInt()
			return true
		}); err != nil {
			return err
		}
		return tx.ScanTable("history", func(r slidb.Row) bool {
			st.history[r[0].AsInt()] = r[2].AsInt()
			return true
		})
	})
	if err != nil {
		t.Fatalf("read bank: %v", err)
	}
	return st
}

// TestOpenAtCleanRestart covers the non-crash path: write, Close, reopen.
func TestOpenAtCleanRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := slidb.OpenAt(dir, slidb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	setupBank(t, db, 2, 10)
	if err := db.Exec(func(tx *slidb.Tx) error {
		return transfer(tx, 1, 3, 1, 42, false)
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := slidb.OpenAt(dir, slidb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st := readBank(t, db2)
	if st.accountTotal != 42 || st.branchTotal != 42 {
		t.Fatalf("recovered totals = %d/%d, want 42/42", st.accountTotal, st.branchTotal)
	}
	if len(st.history) != 1 || st.history[1] != 42 {
		t.Fatalf("recovered history = %v, want {1:42}", st.history)
	}
	if got := db2.RecoveryStats(); got.Winners == 0 {
		t.Fatalf("expected winners in recovery stats, got %+v", got)
	}
	// The secondary index must be rebuilt and queryable.
	rows, err2 := execLookup(db2, "accounts_by_branch", slidb.Int(1))
	if err2 != nil {
		t.Fatal(err2)
	}
	if len(rows) != 5 {
		t.Fatalf("index lookup returned %d rows, want 5", len(rows))
	}
}

func execLookup(db *slidb.Engine, index string, key slidb.Value) ([]slidb.Row, error) {
	var rows []slidb.Row
	err := db.Exec(func(tx *slidb.Tx) error {
		var lerr error
		rows, lerr = tx.LookupIndex(index, key)
		return lerr
	})
	return rows, err
}

// TestCrashRecoveryTorture runs a concurrent TPC-B-style workload with
// deliberate mid-flight aborts and a checkpoint in the middle, "crashes" by
// abandoning the engine without Close, reopens the directory, and asserts
// that exactly the committed transactions survived: balances conserved,
// every acknowledged history row present, no loser row visible.
func TestCrashRecoveryTorture(t *testing.T) {
	runCrashRecoveryTorture(t, slidb.Config{})
}

// TestCrashRecoveryTorturePreallocated is the same torture with preallocated
// segment files: the crash abandons a live segment carrying a zero tail at
// its full rotation size. Recovery must be indistinguishable from the
// unallocated layout's.
func TestCrashRecoveryTorturePreallocated(t *testing.T) {
	runCrashRecoveryTorture(t, slidb.Config{PreallocateSegments: true})
}

func runCrashRecoveryTorture(t *testing.T, cfg slidb.Config) {
	const (
		branches   = 4
		accounts   = 64
		workers    = 8
		perWorker  = 150
		checkpoint = 300 // committed-transfer count that triggers the checkpoint
	)
	dir := t.TempDir()
	cfg.Agents = workers
	cfg.SegmentBytes = 32 << 10
	db, err := slidb.OpenAt(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	setupBank(t, db, branches, accounts)

	var (
		mu        sync.Mutex
		committed = make(map[int64]int64) // hid -> delta, acknowledged commits
		aborted   = make(map[int64]bool)  // hid of deliberate losers
		ckptOnce  sync.Once
		ckptErr   error
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < perWorker; i++ {
				hid := int64(w)*1_000_000 + int64(i)
				aid := rng.Int63n(accounts)
				bid := aid % branches
				delta := rng.Int63n(1000) - 500
				loser := rng.Intn(10) == 0
				err := db.Exec(func(tx *slidb.Tx) error {
					return transfer(tx, hid, aid, bid, delta, loser)
				})
				mu.Lock()
				switch {
				case err == nil && !loser:
					committed[hid] = delta
				case loser && errors.Is(err, errDeliberateAbort):
					aborted[hid] = true
				case err != nil && !loser:
					t.Errorf("transfer %d failed: %v", hid, err)
				}
				n := len(committed)
				mu.Unlock()
				if n >= checkpoint {
					ckptOnce.Do(func() { ckptErr = db.Checkpoint() })
				}
			}
		}(w)
	}
	wg.Wait()
	if ckptErr != nil {
		t.Fatalf("checkpoint: %v", ckptErr)
	}
	if got := db.UndoFailures(); got != 0 {
		t.Fatalf("UndoFailures = %d, want 0 (a rollback corrupted in-memory state)", got)
	}
	// CRASH: abandon db without Close. Unflushed log buffer contents and all
	// in-memory state are lost; only what the WAL and checkpoint captured
	// survives into the reopened engine.
	db = nil

	recfg := cfg
	recfg.Agents = 2
	db2, err := slidb.OpenAt(dir, recfg)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer db2.Close()

	st := readBank(t, db2)
	var wantTotal int64
	for _, d := range committed {
		wantTotal += d
	}
	if st.accountTotal != wantTotal {
		t.Errorf("sum(accounts) = %d, want %d (balance not conserved)", st.accountTotal, wantTotal)
	}
	if st.branchTotal != wantTotal {
		t.Errorf("sum(branches) = %d, want %d (balance not conserved)", st.branchTotal, wantTotal)
	}
	for hid, delta := range committed {
		got, ok := st.history[hid]
		if !ok {
			t.Errorf("committed transfer %d missing after recovery", hid)
		} else if got != delta {
			t.Errorf("transfer %d recovered delta %d, want %d", hid, got, delta)
		}
	}
	for hid := range st.history {
		if _, ok := committed[hid]; !ok {
			t.Errorf("history row %d visible after recovery but never committed (aborted=%v)", hid, aborted[hid])
		}
	}
	stats := db2.RecoveryStats()
	if stats.CheckpointLSN == 0 {
		t.Errorf("recovery ignored the checkpoint: %+v", stats)
	}
	if stats.Losers == 0 {
		t.Errorf("expected loser transactions in the log tail: %+v", stats)
	}

	// The recovered engine must remain fully usable and durable.
	if err := db2.Exec(func(tx *slidb.Tx) error {
		return transfer(tx, 9_999_999, 1, 1, 7, false)
	}); err != nil {
		t.Fatalf("post-recovery transfer: %v", err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := slidb.OpenAt(dir, slidb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	st3 := readBank(t, db3)
	if st3.accountTotal != wantTotal+7 {
		t.Errorf("second restart: sum(accounts) = %d, want %d", st3.accountTotal, wantTotal+7)
	}
}

// TestELRCrashInPreCommitWindow injects a crash into the window Early Lock
// Release opens: transactions have appended their commit record, released
// their locks, and exposed their writes to other transactions — but the
// commit record has not been forced to disk. A crash there must roll every
// such transaction back as a loser while keeping every durably-acked
// transaction intact.
func TestELRCrashInPreCommitWindow(t *testing.T) {
	const (
		durableTransfers = 20
		windowTransfers  = 10
	)
	dir := t.TempDir()
	db, err := slidb.OpenAt(dir, slidb.Config{
		Agents:           4,
		EarlyLockRelease: true,
		AsyncCommit:      true,
		// A slow simulated force (relative to the milliseconds the crash
		// below takes to land) guarantees the phase-2 commit records never
		// reach the disk: a crash inside the force keeps its batch off it.
		LogFlushDelay: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupBank(t, db, 2, 16)

	// Phase 1: transfers we wait out — durably acked, must survive. They are
	// submitted as one batch so they share group-commit cycles.
	durable := make(map[int64]int64)
	var phase1 []<-chan error
	for i := 0; i < durableTransfers; i++ {
		hid, delta := int64(i), int64(i+1)
		phase1 = append(phase1, db.ExecAsync(func(tx *slidb.Tx) error {
			return transfer(tx, hid, hid%16, hid%2, delta, false)
		}))
		durable[hid] = delta
	}
	for i, fut := range phase1 {
		if err := <-fut; err != nil {
			t.Fatalf("phase-1 transfer %d: %v", i, err)
		}
	}

	// Phase 2: transfers we do NOT wait for. Their futures resolve only when
	// the 500ms force completes; we crash long before that.
	var futures []<-chan error
	for i := 0; i < windowTransfers; i++ {
		hid, delta := int64(1000+i), int64(7)
		futures = append(futures, db.ExecAsync(func(tx *slidb.Tx) error {
			return transfer(tx, hid, hid%16, hid%2, delta, false)
		}))
	}
	// Wait until every phase-2 transaction is pre-committed: its locks are
	// released and its history row is visible to a read-only transaction
	// (read-only transactions never wait for a flush).
	deadline := time.Now().Add(5 * time.Second)
	for {
		visible := 0
		if err := db.Exec(func(tx *slidb.Tx) error {
			return tx.ScanTable("history", func(r slidb.Row) bool {
				if r[0].AsInt() >= 1000 {
					visible++
				}
				return true
			})
		}); err != nil {
			t.Fatal(err)
		}
		if visible == windowTransfers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d pre-committed transfers became visible", visible, windowTransfers)
		}
		time.Sleep(time.Millisecond)
	}

	// CRASH inside the force: commit records appended, nothing written.
	db.SimulateCrash()
	for i, fut := range futures {
		select {
		case err := <-fut:
			if err == nil {
				t.Fatalf("phase-2 future %d acked durable despite crash before flush", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("phase-2 future %d never resolved after crash", i)
		}
	}

	db2, err := slidb.OpenAt(dir, slidb.Config{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer db2.Close()
	st := readBank(t, db2)

	var wantTotal int64
	for _, d := range durable {
		wantTotal += d
	}
	if st.accountTotal != wantTotal || st.branchTotal != wantTotal {
		t.Errorf("recovered totals = %d/%d, want %d/%d (pre-committed losers leaked or winners lost)",
			st.accountTotal, st.branchTotal, wantTotal, wantTotal)
	}
	for hid, delta := range durable {
		if got, ok := st.history[hid]; !ok || got != delta {
			t.Errorf("durably-acked transfer %d not recovered intact (got %d, present=%v)", hid, got, ok)
		}
	}
	for hid := range st.history {
		if hid >= 1000 {
			t.Errorf("pre-committed (never durable) transfer %d survived the crash", hid)
		}
	}
}

// writeCraftedLog writes recs — records iterated out of a real log, each
// carrying its byte-offset LSN — to a fresh segment directory as the bytes
// of the virtual log they came from: every frame at its LSN, zero padding
// wherever the original stream had ring padding between two frames.
func writeCraftedLog(t *testing.T, dir string, recs []wal.Record) {
	t.Helper()
	out, err := wal.OpenSegments(dir, wal.DefaultSegmentBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) > 0 {
		first := recs[0].LSN
		var data []byte
		for _, r := range recs {
			data = append(data, make([]byte, r.LSN.Distance(first)-int64(len(data)))...)
			data = append(data, r.Encode()...)
		}
		if err := out.WriteRanges([]wal.Range{{Data: data, First: first}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringAbortTorture exercises every crash point inside a
// compensation-logged rollback. A transaction under ELR + AsyncCommit
// inserts, updates and deletes, then aborts; the resulting log — data
// records, the CLR chain, the abort record — is replayed into a fresh data
// directory truncated at every record boundary, simulating a crash that
// lost the tail at exactly that point. Whatever the cut, slidb.OpenAt must
// recover the pre-transaction state: rollback work whose CLR reached disk
// is redone verbatim and never undone a second time (double-undo of the
// delete would duplicate the re-inserted row; double-undo of the insert
// would fail the recovery outright), while uncompensated work is completed
// by the restart undo pass.
func TestCrashDuringAbortTorture(t *testing.T) {
	srcDir := t.TempDir()
	db, err := slidb.OpenAt(srcDir, slidb.Config{
		Agents:                 2,
		EarlyLockRelease:       true,
		EarlyLockReleaseAborts: true,
		AsyncCommit:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.CreateTable("accounts", accountsSchema, []string{"aid"}))
	must(db.Exec(func(tx *slidb.Tx) error {
		for aid := int64(0); aid < 3; aid++ {
			if err := tx.Insert("accounts", slidb.Row{slidb.Int(aid), slidb.Int(0), slidb.Int(100)}); err != nil {
				return err
			}
		}
		return nil
	}))
	// The aborting transaction: one of each mutation kind, then rollback.
	err = db.Exec(func(tx *slidb.Tx) error {
		if err := tx.Insert("accounts", slidb.Row{slidb.Int(50), slidb.Int(0), slidb.Int(1)}); err != nil {
			return err
		}
		if err := tx.Update("accounts", []slidb.Value{slidb.Int(0)}, func(r slidb.Row) (slidb.Row, error) {
			r[2] = slidb.Int(r[2].AsInt() + 10)
			return r, nil
		}); err != nil {
			return err
		}
		if err := tx.Delete("accounts", slidb.Int(2)); err != nil {
			return err
		}
		return errDeliberateAbort
	})
	if !errors.Is(err, errDeliberateAbort) {
		t.Fatalf("aborting tx returned %v, want errDeliberateAbort", err)
	}
	if got := db.ELRAborts(); got != 1 {
		t.Fatalf("ELRAborts = %d, want 1", got)
	}
	if got := db.UndoFailures(); got != 0 {
		t.Fatalf("UndoFailures = %d, want 0", got)
	}
	// Close drains the log: the full CLR chain and abort record reach disk.
	must(db.Close())

	segs, err := wal.OpenSegments(srcDir, wal.DefaultSegmentBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	must(segs.Iterate(1, func(r wal.Record) error {
		recs = append(recs, r)
		return nil
	}))
	must(segs.Close())

	// The aborting transaction has the highest XID; its first record marks
	// the earliest interesting cut point.
	var abortXID uint64
	for _, r := range recs {
		if r.XID > abortXID {
			abortXID = r.XID
		}
	}
	base := -1
	for i, r := range recs {
		if r.XID == abortXID {
			base = i
			break
		}
	}
	if base < 0 {
		t.Fatal("aborting transaction not found in the log")
	}

	for cut := base; cut <= len(recs); cut++ {
		kept := recs[:cut]
		// Predict the undo pass's workload from the kept tail: each durable
		// CLR compensates one data record; a durable abort record (or a CLR
		// closing the chain) leaves nothing to undo.
		dataN, clrN, complete := 0, 0, false
		for _, r := range kept {
			if r.XID != abortXID {
				continue
			}
			switch r.Type {
			case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
				dataN++
			case wal.RecCLR:
				clrN++
				complete = r.UndoNext == 0
			case wal.RecAbort:
				complete = true
			}
		}
		wantUndone := dataN - clrN
		if complete {
			wantUndone = 0
		}

		dir := t.TempDir()
		writeCraftedLog(t, dir, kept)

		db2, err := slidb.OpenAt(dir, slidb.Config{})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		rows := make(map[int64]int64)
		count := 0
		if err := db2.Exec(func(tx *slidb.Tx) error {
			return tx.ScanTable("accounts", func(r slidb.Row) bool {
				rows[r[0].AsInt()] = r[2].AsInt()
				count++
				return true
			})
		}); err != nil {
			t.Fatalf("cut %d: read: %v", cut, err)
		}
		if count != 3 {
			t.Errorf("cut %d: %d heap rows, want 3 (double-undo duplicates or lost rows): %v", cut, count, rows)
		}
		for aid := int64(0); aid < 3; aid++ {
			if rows[aid] != 100 {
				t.Errorf("cut %d: account %d balance = %d, want 100", cut, aid, rows[aid])
			}
		}
		if _, leaked := rows[50]; leaked {
			t.Errorf("cut %d: aborted insert leaked through recovery", cut)
		}
		st := db2.RecoveryStats()
		if st.RecordsUndone != wantUndone {
			t.Errorf("cut %d: RecordsUndone = %d, want %d (stats %+v)", cut, st.RecordsUndone, wantUndone, st)
		}
		if clrN > 0 && !complete && st.RollbacksResumed != 1 {
			t.Errorf("cut %d: RollbacksResumed = %d, want 1 (partial CLR chain)", cut, st.RollbacksResumed)
		}
		if complete && dataN > 0 && st.RollbacksComplete == 0 {
			t.Errorf("cut %d: rollback fully logged but not classified complete (stats %+v)", cut, st)
		}
		// The recovered engine stays usable: commit a transfer and verify.
		if err := db2.Exec(func(tx *slidb.Tx) error {
			return tx.Update("accounts", []slidb.Value{slidb.Int(1)}, func(r slidb.Row) (slidb.Row, error) {
				r[2] = slidb.Int(r[2].AsInt() + 5)
				return r, nil
			})
		}); err != nil {
			t.Fatalf("cut %d: post-recovery update: %v", cut, err)
		}
		if got := db2.UndoFailures(); got != 0 {
			t.Errorf("cut %d: UndoFailures = %d, want 0", cut, got)
		}
		must(db2.Close())
	}
}

// TestRestartUndoIsLoggedExactlyOnce is the regression test for restart
// undo re-execution: recovery that rolls back an interrupted loser must log
// that rollback (CLRs + abort record) into the new log, because otherwise a
// LATER restart still sees the loser as interrupted and re-applies the old
// undo on top of work committed after the first recovery — silently
// reverting durable commits.
func TestRestartUndoIsLoggedExactlyOnce(t *testing.T) {
	srcDir := t.TempDir()
	db, err := slidb.OpenAt(srcDir, slidb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.CreateTable("accounts", accountsSchema, []string{"aid"}))
	must(db.Exec(func(tx *slidb.Tx) error {
		return tx.Insert("accounts", slidb.Row{slidb.Int(1), slidb.Int(0), slidb.Int(100)})
	}))
	// The soon-to-be loser: an update and an insert, committed for now —
	// the commit record is dropped below to simulate a lost tail.
	must(db.Exec(func(tx *slidb.Tx) error {
		if err := tx.Update("accounts", []slidb.Value{slidb.Int(1)}, func(r slidb.Row) (slidb.Row, error) {
			r[2] = slidb.Int(200)
			return r, nil
		}); err != nil {
			return err
		}
		return tx.Insert("accounts", slidb.Row{slidb.Int(2), slidb.Int(0), slidb.Int(1)})
	}))
	must(db.Close())

	// Rewrite the log without the final commit record: the second
	// transaction's data records are durable but its outcome is not.
	segs, err := wal.OpenSegments(srcDir, wal.DefaultSegmentBytes, false)
	must(err)
	var recs []wal.Record
	must(segs.Iterate(1, func(r wal.Record) error {
		recs = append(recs, r)
		return nil
	}))
	must(segs.Close())
	if recs[len(recs)-1].Type != wal.RecCommit {
		t.Fatalf("last record is %v, want COMMIT", recs[len(recs)-1].Type)
	}
	dir := t.TempDir()
	writeCraftedLog(t, dir, recs[:len(recs)-1])

	// Restart 1: the loser is undone (row 1 back to 100, row 2 gone).
	db1, err := slidb.OpenAt(dir, slidb.Config{})
	must(err)
	if st := db1.RecoveryStats(); st.TxUndone != 1 || st.RecordsUndone != 2 {
		t.Fatalf("restart 1: TxUndone=%d RecordsUndone=%d, want 1/2 (stats %+v)", st.TxUndone, st.RecordsUndone, st)
	}
	// New work commits on top of the undone state.
	must(db1.Exec(func(tx *slidb.Tx) error {
		if err := tx.Update("accounts", []slidb.Value{slidb.Int(1)}, func(r slidb.Row) (slidb.Row, error) {
			r[2] = slidb.Int(300)
			return r, nil
		}); err != nil {
			return err
		}
		return tx.Insert("accounts", slidb.Row{slidb.Int(2), slidb.Int(0), slidb.Int(55)})
	}))
	must(db1.Close())

	// Restart 2: the stale loser must be seen as fully rolled back; the
	// committed 300/55 must survive, not be reverted by a re-run undo.
	db2, err := slidb.OpenAt(dir, slidb.Config{})
	must(err)
	defer db2.Close()
	if st := db2.RecoveryStats(); st.RecordsUndone != 0 || st.TxUndone != 0 {
		t.Errorf("restart 2 re-ran the undo: %+v", st)
	}
	rows := map[int64]int64{}
	count := 0
	must(db2.Exec(func(tx *slidb.Tx) error {
		return tx.ScanTable("accounts", func(r slidb.Row) bool {
			rows[r[0].AsInt()] = r[2].AsInt()
			count++
			return true
		})
	}))
	if count != 2 || rows[1] != 300 || rows[2] != 55 {
		t.Fatalf("state after second restart = %v (%d rows), want {1:300 2:55}", rows, count)
	}
}

// TestCheckpointTruncatesSegments asserts the operational property the
// checkpoint exists for: old segments are deleted and the next restart only
// scans the short tail.
func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	db, err := slidb.OpenAt(dir, slidb.Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	setupBank(t, db, 2, 20)
	for i := 0; i < 400; i++ {
		if err := db.Exec(func(tx *slidb.Tx) error {
			return transfer(tx, int64(i), int64(i%20), int64(i%2), 1, false)
		}); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segsBefore) < 3 {
		t.Fatalf("expected several segments before checkpoint, got %d", len(segsBefore))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segsAfter, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("checkpoint kept %d of %d segments", len(segsAfter), len(segsBefore))
	}
	// A few post-checkpoint transactions, then crash without Close.
	for i := 400; i < 410; i++ {
		if err := db.Exec(func(tx *slidb.Tx) error {
			return transfer(tx, int64(i), int64(i%20), int64(i%2), 1, false)
		}); err != nil {
			t.Fatal(err)
		}
	}
	db = nil // crash

	db2, err := slidb.OpenAt(dir, slidb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	stats := db2.RecoveryStats()
	if stats.CheckpointLSN == 0 {
		t.Fatalf("restart did not use the checkpoint: %+v", stats)
	}
	// 410 transfers ran; only the ~10 after the checkpoint may need redo.
	if stats.RecordsRedone > 100 {
		t.Errorf("checkpoint failed to bound redo work: %d records redone (%+v)", stats.RecordsRedone, stats)
	}
	st := readBank(t, db2)
	if st.accountTotal != 410 {
		t.Errorf("sum(accounts) = %d, want 410", st.accountTotal)
	}
	if len(st.history) != 410 {
		t.Errorf("history has %d rows, want 410", len(st.history))
	}
}

// TestCheckpointRequiresDataDir pins the ErrNotDurable contract.
func TestCheckpointRequiresDataDir(t *testing.T) {
	db := slidb.Open(slidb.Config{})
	defer db.Close()
	if err := db.Checkpoint(); !errors.Is(err, slidb.ErrNotDurable) {
		t.Fatalf("Checkpoint on volatile engine = %v, want ErrNotDurable", err)
	}
}

// TestReopenFlushBelowStartLSNAcksImmediately pins the WAL clamp-then-
// recheck reopen edge through the public API: right after OpenAt on an
// existing directory the log's next LSN equals its recovered StartLSN with
// nothing appended, so any durability subscription at or below the
// recovered prefix (Checkpoint's "flush everything appended so far" is
// exactly that) must acknowledge immediately instead of parking a waiter
// that no flush cycle ever satisfies — which would hang Checkpoint and
// Close forever.
func TestReopenFlushBelowStartLSNAcksImmediately(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	db, err := slidb.OpenAt(dir, slidb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	setupBank(t, db, 2, 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := slidb.OpenAt(dir, slidb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Checkpoint flushes up to LastLSN == StartLSN-1 before snapshotting:
		// the subscription below StartLSN that used to be able to hang.
		if err := db2.Checkpoint(); err != nil {
			done <- err
			return
		}
		done <- db2.Close()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Checkpoint/Close after reopen hung: flush subscription below StartLSN never acked")
	}

	// The directory is still recoverable after the checkpoint.
	db3, err := slidb.OpenAt(dir, slidb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	rows := 0
	err = db3.Exec(func(tx *slidb.Tx) error {
		return tx.ScanTable("accounts", func(slidb.Row) bool { rows++; return true })
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 10 {
		t.Fatalf("accounts after checkpointed reopen = %d, want 10", rows)
	}
}

// TestOldFormatDirectoryFailsLoudly is the upgrade-path acceptance test for
// the byte-offset LSN format: a data directory written by a pre-upgrade
// build — old headerless segment files, or an old checkpoint — must make
// slidb.OpenAt fail with ErrLogFormat instead of silently truncating the
// unreadable log as a torn tail and coming up empty.
func TestOldFormatDirectoryFailsLoudly(t *testing.T) {
	t.Run("v1-segments", func(t *testing.T) {
		dir := t.TempDir()
		// A v1 segment is a bare frame stream with no header; its first byte
		// is a frame length prefix, not the segment magic.
		v1 := append(wal.Record{XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("old-row")}.Encode(),
			wal.Record{XID: 1, Type: wal.RecCommit}.Encode()...)
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), v1, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := slidb.OpenAt(dir, slidb.Config{})
		if !errors.Is(err, slidb.ErrLogFormat) {
			t.Fatalf("OpenAt on v1 segments: err = %v, want ErrLogFormat", err)
		}
	})
	t.Run("v1-checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		// An old checkpoint: correct v1 magic, arbitrary payload. The format
		// gate must fire on the magic, before any payload validation.
		old := append([]byte("SLDBCKP1"), make([]byte, 12)...)
		if err := os.WriteFile(filepath.Join(dir, "checkpoint.db"), old, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := slidb.OpenAt(dir, slidb.Config{})
		if !errors.Is(err, slidb.ErrLogFormat) {
			t.Fatalf("OpenAt on v1 checkpoint: err = %v, want ErrLogFormat", err)
		}
	})
	t.Run("current-format-reopens", func(t *testing.T) {
		// Control arm: a directory this build wrote reopens cleanly.
		dir := t.TempDir()
		db, err := slidb.OpenAt(dir, slidb.Config{})
		if err != nil {
			t.Fatal(err)
		}
		setupBank(t, db, 1, 2)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := slidb.OpenAt(dir, slidb.Config{})
		if err != nil {
			t.Fatalf("reopen of current-format directory: %v", err)
		}
		db2.Close()
	})
}

// TestCheckpointBoundaryReplayExact is the regression test for the dense-LSN
// "+1" assumptions that used to sit at the checkpoint boundary (replay from
// snap.LSN+1, restart allocation at MaxLSN+1): with byte-offset LSNs the
// checkpoint stores the durable watermark and replay resumes at exactly that
// frame boundary. Commits made after the checkpoint — and only those — must
// be redone on reopen, with none skipped and none applied twice.
func TestCheckpointBoundaryReplayExact(t *testing.T) {
	dir := t.TempDir()
	db, err := slidb.OpenAt(dir, slidb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	setupBank(t, db, 1, 4)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint work: deposit 7 into each account, twice.
	for round := 0; round < 2; round++ {
		for aid := 0; aid < 4; aid++ {
			if err := db.Exec(func(tx *slidb.Tx) error {
				return tx.Update("accounts", []slidb.Value{slidb.Int(int64(aid))}, func(r slidb.Row) (slidb.Row, error) {
					r[2] = slidb.Int(r[2].AsInt() + 7)
					return r, nil
				})
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.SimulateCrash()

	db2, err := slidb.OpenAt(dir, slidb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st := db2.RecoveryStats()
	if st.CheckpointLSN == 0 {
		t.Fatal("restart did not use the checkpoint")
	}
	// Exactly the 8 post-checkpoint updates replay: a boundary error would
	// either skip the first (7 redone) or double-apply records the snapshot
	// already holds.
	if st.RecordsRedone != 8 {
		t.Fatalf("RecordsRedone = %d, want exactly the 8 post-checkpoint updates (stats %+v)", st.RecordsRedone, st)
	}
	for aid := 0; aid < 4; aid++ {
		var bal int64
		if err := db2.Exec(func(tx *slidb.Tx) error {
			row, ok, err := tx.Get("accounts", slidb.Int(int64(aid)))
			if err != nil || !ok {
				t.Fatalf("account %d missing after recovery (err=%v)", aid, err)
			}
			bal = row[2].AsInt()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if bal != 14 {
			t.Fatalf("account %d balance = %d, want 14 (0 seed + 2x7)", aid, bal)
		}
	}
}

// TestSavepointCrashRecovery drives the savepoint machinery through a real
// crash: a transaction updates, partially rolls back to a savepoint,
// continues, and commits; a second transaction does the same but crashes
// before its commit record is forced. Recovery must keep the first
// transaction's exact post-savepoint state and erase the second entirely —
// including its continuation records, which sit ABOVE its CLR chain in the
// log.
func TestSavepointCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := slidb.OpenAt(dir, slidb.Config{
		Agents:                 2,
		EarlyLockRelease:       true,
		EarlyLockReleaseAborts: true,
		AsyncCommit:            true,
		// A slow simulated force keeps the second transaction's commit
		// record off disk until the crash lands.
		LogFlushDelay: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupBank(t, db, 1, 3)

	// Transaction 1: savepoint dance, committed and durable.
	if err := db.Exec(func(tx *slidb.Tx) error {
		if err := tx.Update("accounts", []slidb.Value{slidb.Int(0)}, func(r slidb.Row) (slidb.Row, error) {
			r[2] = slidb.Int(r[2].AsInt() + 100)
			return r, nil
		}); err != nil {
			return err
		}
		sp := tx.Savepoint()
		if err := tx.Update("accounts", []slidb.Value{slidb.Int(1)}, func(r slidb.Row) (slidb.Row, error) {
			r[2] = slidb.Int(-1)
			return r, nil
		}); err != nil {
			return err
		}
		if err := tx.RollbackTo(sp); err != nil {
			return err
		}
		return tx.Update("accounts", []slidb.Value{slidb.Int(2)}, func(r slidb.Row) (slidb.Row, error) {
			r[2] = slidb.Int(r[2].AsInt() + 5)
			return r, nil
		})
	}); err != nil {
		t.Fatal(err)
	}

	// Transaction 2: same shape, but pre-committed only — its commit record
	// sits inside the force when the machine dies.
	pending := db.ExecAsync(func(tx *slidb.Tx) error {
		if err := tx.Update("accounts", []slidb.Value{slidb.Int(0)}, func(r slidb.Row) (slidb.Row, error) {
			r[2] = slidb.Int(r[2].AsInt() + 1000)
			return r, nil
		}); err != nil {
			return err
		}
		sp := tx.Savepoint()
		if err := tx.Update("accounts", []slidb.Value{slidb.Int(1)}, func(r slidb.Row) (slidb.Row, error) {
			r[2] = slidb.Int(-2)
			return r, nil
		}); err != nil {
			return err
		}
		if err := tx.RollbackTo(sp); err != nil {
			return err
		}
		if err := tx.Update("accounts", []slidb.Value{slidb.Int(2)}, func(r slidb.Row) (slidb.Row, error) {
			r[2] = slidb.Int(r[2].AsInt() + 2000)
			return r, nil
		}); err != nil {
			return err
		}
		// A SECOND savepoint rollback: the crash now leaves two separate
		// compensated spans in this loser's log, the shape that a
		// watermark-based analysis would double-undo (restart would then
		// subtract 2000 from account 2 twice — or fail outright).
		sp2 := tx.Savepoint()
		if err := tx.Update("accounts", []slidb.Value{slidb.Int(1)}, func(r slidb.Row) (slidb.Row, error) {
			r[2] = slidb.Int(-3)
			return r, nil
		}); err != nil {
			return err
		}
		if err := tx.RollbackTo(sp2); err != nil {
			return err
		}
		return tx.Update("accounts", []slidb.Value{slidb.Int(0)}, func(r slidb.Row) (slidb.Row, error) {
			r[2] = slidb.Int(r[2].AsInt() + 4000)
			return r, nil
		})
	})
	// Give the pre-commit a moment to append (the delay holds the write).
	time.Sleep(50 * time.Millisecond)
	db.SimulateCrash()
	<-pending // resolves with the crash error; ignore it

	db2, err := slidb.OpenAt(dir, slidb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	want := map[int64]int64{0: 100, 1: 0, 2: 5}
	for aid, wantBal := range want {
		if err := db2.Exec(func(tx *slidb.Tx) error {
			row, ok, err := tx.Get("accounts", slidb.Int(aid))
			if err != nil || !ok {
				t.Fatalf("account %d missing (err=%v)", aid, err)
			}
			if got := row[2].AsInt(); got != wantBal {
				t.Errorf("account %d = %d, want %d", aid, got, wantBal)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := db2.UndoFailures(); got != 0 {
		t.Fatalf("UndoFailures = %d, want 0", got)
	}
}

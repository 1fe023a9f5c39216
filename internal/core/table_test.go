package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slidb/internal/btree"
	"slidb/internal/heap"
	"slidb/internal/record"
)

// TestApplierDuplicateInsertLeavesNothing replays an insert whose primary key
// a committed row already holds. The applier must refuse it with
// ErrDuplicateKey and leave no heap row or index entry behind: an orphan row
// would show in a table scan and in the secondary indexes.
func TestApplierDuplicateInsertLeavesNothing(t *testing.T) {
	e := Open(Config{})
	defer e.Close()
	schema := record.MustSchema(
		record.Column{Name: "k", Type: record.TypeInt},
		record.Column{Name: "code", Type: record.TypeString},
		record.Column{Name: "grp", Type: record.TypeInt},
	)
	if err := e.CreateTable("t", schema, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("t_code", "t", []string{"code"}, true); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("t_grp", "t", []string{"grp"}, false); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Tx) error {
		return tx.Insert("t", record.Row{record.Int(1), record.String("a"), record.Int(7)})
	}); err != nil {
		t.Fatal(err)
	}
	dup, err := schema.Encode(record.Row{record.Int(1), record.String("b"), record.Int(8)})
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.tables.Load().byName["t"].meta
	if err := (engineApplier{e: e}).Insert(tbl.ID, dup); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("applier Insert of a duplicate key = %v, want ErrDuplicateKey", err)
	}
	rows := 0
	if err := e.Exec(func(tx *Tx) error {
		return tx.ScanTable("t", func(record.Row) bool { rows++; return true })
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Errorf("ScanTable sees %d rows, want 1", rows)
	}
	set := e.tables.Load()
	for name, tree := range map[string]*btree.Tree[heap.RID]{"primary key": set.byName["t"].pk.tree, "t_code": set.indexes["t_code"].tree, "t_grp": set.indexes["t_grp"].tree} {
		if n := tree.Len(); n != 1 {
			t.Errorf("%s holds %d entries, want 1", name, n)
		}
	}
}

// TestDDLWhileTransactionsRun creates tables and indexes while agents insert
// into, read and look up an existing table. Every transaction must commit,
// every new table and index must resolve afterwards, and every committed row
// must be found by key and through the existing index.
func TestDDLWhileTransactionsRun(t *testing.T) {
	e := Open(Config{Agents: 4, SLI: true})
	defer e.Close()
	if err := e.CreateTable("accounts", accountSchema(), []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("accounts_by_owner", "accounts", []string{"owner"}, false); err != nil {
		t.Fatal(err)
	}
	const clients, tables = 4, 20
	var ddlDone, failed atomic.Bool
	var commits atomic.Int64
	var wg sync.WaitGroup
	committed := make([]int, clients)
	errs := make(chan error, clients+1) // one send at most per goroutine
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !ddlDone.Load() || i < 20; i++ {
				id := int64(c*100000 + i)
				owner := fmt.Sprintf("c%d-%d", c, i)
				if err := e.Exec(func(tx *Tx) error {
					if err := tx.Insert("accounts", record.Row{record.Int(id), record.String(owner), record.Float(1)}); err != nil {
						return err
					}
					if _, found, err := tx.Get("accounts", record.Int(id)); err != nil || !found {
						return fmt.Errorf("own row %d: found=%v err=%v", id, found, err)
					}
					rows, err := tx.LookupIndex("accounts_by_owner", record.String(owner))
					if err == nil && len(rows) != 1 {
						err = fmt.Errorf("own row %d through the index: %d rows", id, len(rows))
					}
					return err
				}); err != nil {
					failed.Store(true)
					errs <- err
					return
				}
				committed[c] = i + 1
				commits.Add(1)
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ddlDone.Store(true)
		for i := 0; i < tables; i++ {
			// Let every client commit between two DDLs, so the two interleave.
			for want := commits.Load() + clients; commits.Load() < want && !failed.Load(); {
				time.Sleep(100 * time.Microsecond)
			}
			name := fmt.Sprintf("new%d", i)
			if err := e.CreateTable(name, accountSchema(), []string{"id"}); err != nil {
				errs <- err
				return
			}
			if err := e.CreateIndex(name+"_by_owner", name, []string{"owner"}, true); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("new%d", i)
		if err := e.Exec(func(tx *Tx) error {
			if err := tx.Insert(name, record.Row{record.Int(1), record.String("o"), record.Float(1)}); err != nil {
				return err
			}
			rows, err := tx.LookupIndex(name+"_by_owner", record.String("o"))
			if err == nil && len(rows) != 1 {
				err = fmt.Errorf("%s_by_owner finds %d rows, want 1", name, len(rows))
			}
			return err
		}); err != nil {
			t.Fatalf("table %s after the DDL: %v", name, err)
		}
	}
	for c, n := range committed {
		for i := 0; i < n; i++ {
			id := int64(c*100000 + i)
			owner := record.String(fmt.Sprintf("c%d-%d", c, i))
			if err := e.Exec(func(tx *Tx) error {
				if _, found, err := tx.Get("accounts", record.Int(id)); err != nil || !found {
					return fmt.Errorf("row %d by key: found=%v err=%v", id, found, err)
				}
				rows, err := tx.LookupIndex("accounts_by_owner", owner)
				if err == nil && len(rows) != 1 {
					err = fmt.Errorf("row %d through the index: %d rows", id, len(rows))
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// writeTxnAllocs is what one TPC-B-shaped write transaction allocates on an
// inline in-memory engine: Exec, three updates, one insert and the commit.
// The row changes read their keys from encoded rows and log the heap bytes
// they read; building keys from Row values or re-encoding the row just
// decoded costs more and fails TestWriteTxnAllocs. The count is 104; a
// -race build inlines less and allocates once more.
const writeTxnAllocs = 105

// TestWriteTxnAllocs guards the allocations of the write path. The account
// and history tables carry a non-unique secondary index each, so an update
// computes unchanged secondary keys and an insert enters a new one.
func TestWriteTxnAllocs(t *testing.T) {
	e := Open(Config{})
	defer e.Close()
	schema := record.MustSchema(
		record.Column{Name: "id", Type: record.TypeInt},
		record.Column{Name: "branch", Type: record.TypeInt},
		record.Column{Name: "balance", Type: record.TypeFloat},
		record.Column{Name: "filler", Type: record.TypeString},
	)
	for _, name := range []string{"branches", "tellers", "accounts", "history"} {
		if err := e.CreateTable(name, schema, []string{"id"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"accounts", "history"} {
		if err := e.CreateIndex(name+"_by_branch", name, []string{"branch"}, false); err != nil {
			t.Fatal(err)
		}
	}
	filler := record.String("xxxxxxxxxxxxxxxxxxxxxxxx")
	if err := e.Exec(func(tx *Tx) error {
		for _, name := range []string{"branches", "tellers", "accounts"} {
			if err := tx.Insert(name, record.Row{record.Int(1), record.Int(1), record.Float(0), filler}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	deposit := func(r record.Row) (record.Row, error) {
		r[2] = record.Float(r[2].AsFloat() + 1)
		return r, nil
	}
	one := []record.Value{record.Int(1)}
	var historyID int64
	txn := func(tx *Tx) error {
		for _, name := range []string{"accounts", "tellers", "branches"} {
			if err := tx.Update(name, one, deposit); err != nil {
				return err
			}
		}
		historyID++
		return tx.Insert("history", record.Row{record.Int(historyID), record.Int(1), record.Float(1), filler})
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := e.Exec(txn); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per transaction", allocs)
	if allocs > writeTxnAllocs {
		t.Fatalf("one write transaction allocates %.1f times, want at most %d", allocs, writeTxnAllocs)
	}
}

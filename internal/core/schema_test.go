package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"slidb/internal/catalog"
	"slidb/internal/record"
	"slidb/internal/recovery"
	"slidb/internal/wal"
)

// tableID returns the ID the engine's published table set gives name.
func tableID(t *testing.T, e *Engine, name string) uint32 {
	t.Helper()
	rt := e.tables.Load().byName[name]
	if rt == nil {
		t.Fatalf("table %q is not published", name)
	}
	return rt.meta.ID
}

func TestTableIDsAreDistinct(t *testing.T) {
	e := Open(Config{})
	defer e.Close()
	names := []string{"a", "b", "c", "d"}
	ids := map[uint32]bool{}
	for _, name := range names {
		if err := e.CreateTable(name, accountSchema(), []string{"id"}); err != nil {
			t.Fatal(err)
		}
		id := tableID(t, e, name)
		if id == 0 || ids[id] {
			t.Fatalf("table %q got ID %d; taken: %v", name, id, ids)
		}
		ids[id] = true
	}
	if got := e.Tables(); !slices.Equal(got, names) {
		t.Fatalf("Tables() = %v, want %v", got, names)
	}
	if err := e.CreateTable("b", accountSchema(), []string{"id"}); err == nil || !strings.Contains(err.Error(), `table "b" already exists`) {
		t.Fatalf("second table b: %v", err)
	}
	if err := e.CreateIndex("ix", "missing", []string{"id"}, false); err == nil {
		t.Fatal("index on a missing table accepted")
	}
	if err := e.CreateIndex("a_owner", "a", []string{"owner"}, false); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("a_owner", "b", []string{"owner"}, false); err == nil || !strings.Contains(err.Error(), `index "a_owner" already exists`) {
		t.Fatalf("second index a_owner: %v", err)
	}
}

// TestRestorePreservesIDsAndAdvancesAllocator opens a table with ID 7 and an
// index on it once from a checkpoint and once by DDL redo from the log. Both
// restarts must keep the ID, a new table must get a higher one, and a
// restart of that must keep both. A second table under a taken ID, or an
// index on a table that does not exist, fails the restore.
func TestRestorePreservesIDsAndAdvancesAllocator(t *testing.T) {
	meta := catalog.TableMeta{ID: 7, Name: "restored", Columns: []record.Column{{Name: "id", Type: record.TypeInt}}, PrimaryKey: []string{"id"}}
	ix := catalog.IndexMeta{Name: "ix", TableID: 7, Columns: []string{"id"}}
	fromCheckpoint, fromLog := t.TempDir(), t.TempDir()
	if err := recovery.WriteCheckpoint(fromCheckpoint, &recovery.Snapshot{Tables: []recovery.TableSnapshot{{Meta: meta}}, Indexes: []catalog.IndexMeta{ix}}); err != nil {
		t.Fatal(err)
	}
	writeLog(t, fromLog, wal.Record{Type: wal.RecCreateTable, After: meta.Encode()}, wal.Record{Type: wal.RecCreateIndex, After: ix.Encode()})
	for path, dir := range map[string]string{"checkpoint": fromCheckpoint, "log": fromLog} {
		e, err := OpenAt(dir, Config{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if id := tableID(t, e, "restored"); id != 7 {
			t.Fatalf("%s: restored ID = %d, want 7", path, id)
		}
		if secs := e.tables.Load().byID[7].secs; len(secs) != 1 || secs[0] != e.tables.Load().indexes["ix"] {
			t.Fatalf("%s: restored index not registered on its table: %v", path, secs)
		}
		if err := e.CreateTable("restored", accountSchema(), []string{"id"}); err == nil {
			t.Fatalf("%s: a second table restored accepted", path)
		}
		if err := e.CreateTable("fresh", accountSchema(), []string{"id"}); err != nil {
			t.Fatal(err)
		}
		fresh := tableID(t, e, "fresh")
		if fresh <= 7 {
			t.Fatalf("%s: allocator did not advance past restored ID: got %d", path, fresh)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if e, err = OpenAt(dir, Config{}); err != nil {
			t.Fatal(err)
		}
		if got := e.Tables(); !slices.Equal(got, []string{"restored", "fresh"}) || tableID(t, e, "restored") != 7 || tableID(t, e, "fresh") != fresh {
			t.Fatalf("%s: after reopening, tables %v with IDs %d, %d", path, got, tableID(t, e, "restored"), tableID(t, e, "fresh"))
		}
		e.Close()
	}

	other := meta
	other.Name = "other"
	dupID := t.TempDir()
	if err := recovery.WriteCheckpoint(dupID, &recovery.Snapshot{Tables: []recovery.TableSnapshot{{Meta: meta}, {Meta: other}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAt(dupID, Config{}); err == nil || !strings.Contains(err.Error(), "table ID 7 already exists") {
		t.Fatalf("restore of two tables with ID 7: %v", err)
	}
	orphan := ix
	orphan.TableID = 99
	noTable := t.TempDir()
	writeLog(t, noTable, wal.Record{Type: wal.RecCreateTable, After: meta.Encode()}, wal.Record{Type: wal.RecCreateIndex, After: orphan.Encode()})
	if _, err := OpenAt(noTable, Config{}); err == nil {
		t.Fatal("redo of an index on unknown table 99 succeeded")
	}
}

// TestFailedDDLLeavesNoTrace fails a DDL call in each way it can fail after
// validation: a unique index over duplicate values, and a table whose DDL
// record the crashed log refuses. Neither may leave anything behind.
func TestFailedDDLLeavesNoTrace(t *testing.T) {
	schema := record.MustSchema(record.Column{Name: "id", Type: record.TypeInt}, record.Column{Name: "code", Type: record.TypeString})
	e := openDurable(t)
	if err := e.CreateTable("t", schema, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *Tx) error {
		for id := int64(1); id <= 2; id++ {
			if err := tx.Insert("t", record.Row{record.Int(id), record.String("same")}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("t_code", "t", []string{"code"}, true); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("unique index over duplicate values = %v, want ErrDuplicateKey", err)
	}
	if err := e.CreateIndex("t_code", "t", []string{"code"}, false); err != nil {
		t.Fatalf("the same name non-unique after the failure: %v", err)
	}
	var rows []record.Row
	if err := e.Exec(func(tx *Tx) (err error) {
		rows, err = tx.LookupIndex("t_code", record.String("same"))
		return err
	}); err != nil || len(rows) != 2 {
		t.Fatalf("LookupIndex after the failed and the good CreateIndex = %v, %v; want both rows", rows, err)
	}

	e.log.Crash()
	if err := e.CreateTable("lost", schema, []string{"id"}); err == nil {
		t.Fatal("CreateTable on a crashed log succeeded")
	}
	if got := e.Tables(); !slices.Equal(got, []string{"t"}) {
		t.Fatalf("after the failed CreateTable, Tables() = %v, want [t]", got)
	}
}

// TestSameHistoryWritesSameBytes runs one single-client program — inserts of
// mixed sizes, deletes, inserts that reuse the freed room, updates that
// change a row's size, aborts and a checkpoint — on two fresh directories.
// The log segments and the checkpoint must come out byte for byte the same.
func TestSameHistoryWritesSameBytes(t *testing.T) {
	schema := record.MustSchema(record.Column{Name: "id", Type: record.TypeInt}, record.Column{Name: "pad", Type: record.TypeString})
	row := func(id, size int) record.Row {
		return record.Row{record.Int(int64(id)), record.String(strings.Repeat("x", size))}
	}
	run := func(dir string) {
		e, err := OpenAt(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		exec := func(fn func(tx *Tx) error) {
			if err := e.Exec(fn); err != nil && !errors.Is(err, Abort) {
				t.Fatal(err)
			}
		}
		if err := e.CreateTable("t", schema, []string{"id"}); err != nil {
			t.Fatal(err)
		}
		if err := e.CreateIndex("t_pad", "t", []string{"pad"}, false); err != nil {
			t.Fatal(err)
		}
		insert := func(from, to int) {
			for id := from; id < to; id += 10 {
				exec(func(tx *Tx) error {
					for i := id; i < min(id+10, to); i++ {
						if err := tx.Insert("t", row(i, 40+i*37%160)); err != nil {
							return err
						}
					}
					return nil
				})
			}
		}
		insert(0, 1500)
		for id := 0; id < 1500; id += 7 {
			exec(func(tx *Tx) error { return tx.Delete("t", record.Int(int64(id))) })
		}
		insert(1500, 1700)
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for id := 1; id < 1700; id += 11 {
			exec(func(tx *Tx) error {
				err := tx.Update("t", []record.Value{record.Int(int64(id))}, func(record.Row) (record.Row, error) { return row(id, 20+id%30), nil })
				if errors.Is(err, ErrNotFound) {
					return nil
				}
				if err == nil && id%3 == 0 {
					return Abort
				}
				return err
			})
		}
		for id := 2; id < 1700; id += 13 {
			exec(func(tx *Tx) error {
				if err := tx.Delete("t", record.Int(int64(id))); err != nil && !errors.Is(err, ErrNotFound) {
					return err
				}
				return nil
			})
		}
		insert(1700, 1800)
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		insert(1800, 1850)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	files := func(dir string) map[string][]byte {
		out := map[string][]byte{}
		for _, pattern := range []string{"wal-*.seg", "checkpoint.db"} {
			names, err := filepath.Glob(filepath.Join(dir, pattern))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				data, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				out[filepath.Base(name)] = data
			}
		}
		return out
	}
	a, b := t.TempDir(), t.TempDir()
	run(a)
	run(b)
	fa, fb := files(a), files(b)
	if len(fa) < 2 || fa["checkpoint.db"] == nil {
		t.Fatalf("the program left %d files, want a checkpoint and log segments", len(fa))
	}
	for name, data := range fa {
		if !bytes.Equal(data, fb[name]) {
			t.Errorf("%s differs between two runs of one history (%d vs %d bytes)", name, len(data), len(fb[name]))
		}
	}
	if len(fb) != len(fa) {
		t.Errorf("the runs left %d and %d files", len(fa), len(fb))
	}
}

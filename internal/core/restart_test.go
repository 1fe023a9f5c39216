package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"slidb/internal/btree"
	"slidb/internal/catalog"
	"slidb/internal/heap"
	"slidb/internal/record"
	"slidb/internal/recovery"
)

// TestRestartKeysFromBytes guards the keys restart builds straight from
// encoded rows. The primary key is declared out of column order, as a
// string holding a zero byte then an int; a unique index sits on another
// string and a non-unique one on (float, int), also out of column order and
// created only after the checkpoint, so its backfill runs during redo. The
// log tail inserts, updates every secondary key and deletes. After a crash
// every row must be reachable by primary key and through both indexes, and
// each index must hold exactly one entry per row.
func TestRestartKeysFromBytes(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenAt(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	schema := record.MustSchema(
		record.Column{Name: "n", Type: record.TypeInt},
		record.Column{Name: "grp", Type: record.TypeInt},
		record.Column{Name: "name", Type: record.TypeString},
		record.Column{Name: "code", Type: record.TypeString},
		record.Column{Name: "score", Type: record.TypeFloat},
	)
	if err := e.CreateTable("t", schema, []string{"name", "n"}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("t_code", "t", []string{"code"}, true); err != nil {
		t.Fatal(err)
	}
	model := map[int]record.Row{}
	rowOf := func(i int, code string, grp int64, score float64) record.Row {
		return record.Row{record.Int(int64(i)), record.Int(grp), record.String(fmt.Sprintf("k\x00%d", i%7)), record.String(code), record.Float(score)}
	}
	pk := func(r record.Row) []record.Value { return []record.Value{r[2], r[0]} }
	insert := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			r := rowOf(i, fmt.Sprintf("c\x00%d", i), int64(i%5), -float64(i%3))
			if err := e.Exec(func(tx *Tx) error { return tx.Insert("t", r) }); err != nil {
				t.Fatal(err)
			}
			model[i] = r
		}
	}
	insert(0, 200)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(200, 250)
	if err := e.CreateIndex("t_score_grp", "t", []string{"score", "grp"}, false); err != nil {
		t.Fatal(err)
	}
	insert(250, 300)
	for i := 0; i < 300; i += 3 { // new code, group and score: both secondary keys change
		r := rowOf(i, fmt.Sprintf("u%d", i), int64(100+i%4), float64(i%2)+0.5)
		if err := e.Exec(func(tx *Tx) error {
			return tx.Update("t", pk(r), func(record.Row) (record.Row, error) { return r, nil })
		}); err != nil {
			t.Fatal(err)
		}
		model[i] = r
	}
	for i := 1; i < 300; i += 7 {
		if err := e.Exec(func(tx *Tx) error { return tx.Delete("t", pk(model[i])...) }); err != nil {
			t.Fatal(err)
		}
		delete(model, i)
	}
	e.SimulateCrash()

	e, err = OpenAt(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if st := e.RecoveryStats(); st.RowsRestored != 200 || st.RecordsRedone == 0 || st.DDLReplayed == 0 {
		t.Fatalf("restart did not exercise restore, redo and index DDL: %+v", st)
	}
	for i, want := range model {
		if err := e.Exec(func(tx *Tx) error {
			got, found, err := tx.Get("t", pk(want)...)
			if err != nil || !found || !reflect.DeepEqual(got, want) {
				return fmt.Errorf("row %d by primary key: %v found=%v err=%v", i, got, found, err)
			}
			if rows, err := tx.LookupIndex("t_code", want[3]); err != nil || len(rows) != 1 || !reflect.DeepEqual(rows[0], want) {
				return fmt.Errorf("row %d by t_code: %v, %v", i, rows, err)
			}
			rows, err := tx.LookupIndex("t_score_grp", want[4], want[1])
			for _, r := range rows {
				if reflect.DeepEqual(r, want) {
					return err
				}
			}
			return fmt.Errorf("row %d missing from t_score_grp (%d rows, %v)", i, len(rows), err)
		}); err != nil {
			t.Fatal(err)
		}
	}
	set := e.tables.Load()
	trees := map[string]*btree.Tree[heap.RID]{"primary key": set.byName["t"].pk.tree, "t_code": set.indexes["t_code"].tree, "t_score_grp": set.indexes["t_score_grp"].tree}
	for name, tree := range trees {
		if n := tree.Len(); n != len(model) {
			t.Errorf("%s holds %d entries for %d rows", name, n, len(model))
		}
	}
}

// checkIndexesMatchHeap asserts that every heap row of every table is found
// under its key through the primary key and every secondary index, and that
// no index holds anything else.
func checkIndexesMatchHeap(t *testing.T, e *Engine) {
	t.Helper()
	for name, rt := range e.tables.Load().byName {
		indexes := append([]*index{rt.pk}, rt.secs...)
		rows := 0
		if err := rt.hf.Scan(nil, func(rid heap.RID, rec []byte) bool {
			rows++
			for _, idx := range indexes {
				key, err := rowKey(rt.meta, idx.meta, rec, rid)
				if got, ok := idx.tree.Get(key); err != nil || !ok || got != rid {
					t.Errorf("%s: row at %v not found through index %v: %v, %v, %v", name, rid, idx.meta, got, ok, err)
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, idx := range indexes {
			if n := idx.tree.Len(); n != rows {
				t.Errorf("%s: index %v holds %d entries for %d rows", name, idx.meta, n, rows)
			}
		}
	}
}

// TestRestoreRejectsDuplicateKey restores checkpoints written by hand: a
// duplicate primary key and a duplicate in a unique index must fail OpenAt
// with ErrDuplicateKey, while equal values in a non-unique index restore
// and are both found. The good restore then takes inserts, updates and
// deletes, crashes and reopens, and every index must still agree with the
// heap.
func TestRestoreRejectsDuplicateKey(t *testing.T) {
	base := t.TempDir()
	e, err := OpenAt(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	schema := record.MustSchema(
		record.Column{Name: "id", Type: record.TypeInt},
		record.Column{Name: "code", Type: record.TypeString},
	)
	if err := e.CreateTable("t", schema, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	row := func(id int, code string) record.Row { return record.Row{record.Int(int64(id)), record.String(code)} }
	for i, code := range []string{"a", "b", "c"} {
		if err := e.Exec(func(tx *Tx) error { return tx.Insert("t", row(i+1, code)) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	snap, ok, err := recovery.ReadCheckpoint(base)
	if err != nil || !ok {
		t.Fatalf("ReadCheckpoint = %v, %v", ok, err)
	}
	tableID := snap.Tables[0].Meta.ID
	sameCode, err := schema.Encode(row(4, "a")) // a new id with row 1's code
	if err != nil {
		t.Fatal(err)
	}
	// restore writes snap with extra rows and an index on code, and opens it.
	restore := func(extra []byte, codeIndex *catalog.IndexMeta) (string, *Engine, error) {
		s := *snap
		s.Tables = slices.Clone(snap.Tables)
		s.Tables[0].Rows = append(slices.Clip(snap.Tables[0].Rows), extra)
		if codeIndex != nil {
			s.Indexes = []catalog.IndexMeta{*codeIndex}
		}
		dir := t.TempDir()
		if err := recovery.WriteCheckpoint(dir, &s); err != nil {
			t.Fatal(err)
		}
		e, err := OpenAt(dir, Config{})
		return dir, e, err
	}
	if _, _, err := restore(snap.Tables[0].Rows[0], nil); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("restore of a duplicate primary key = %v, want ErrDuplicateKey", err)
	}
	unique := &catalog.IndexMeta{Name: "t_code", TableID: tableID, Columns: []string{"code"}, Unique: true}
	if _, _, err := restore(sameCode, unique); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("restore of a duplicate in a unique index = %v, want ErrDuplicateKey", err)
	}
	nonUnique := &catalog.IndexMeta{Name: "t_code", TableID: tableID, Columns: []string{"code"}}
	dir, e, err := restore(sameCode, nonUnique)
	if err != nil {
		t.Fatalf("restore of equal values in a non-unique index: %v", err)
	}
	lookup := func(code string) (ids []int64) {
		t.Helper()
		if err := e.Exec(func(tx *Tx) error {
			rows, err := tx.LookupIndex("t_code", record.String(code))
			for _, r := range rows {
				ids = append(ids, r[0].AsInt())
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		slices.Sort(ids)
		return ids
	}
	if got := lookup("a"); !slices.Equal(got, []int64{1, 4}) {
		t.Fatalf("LookupIndex(a) after restore = %v, want [1 4]", got)
	}
	checkIndexesMatchHeap(t, e)
	for _, fn := range []func(tx *Tx) error{
		func(tx *Tx) error { return tx.Insert("t", row(5, "a")) },
		func(tx *Tx) error {
			return tx.Update("t", []record.Value{record.Int(2)}, func(record.Row) (record.Row, error) { return row(2, "a"), nil })
		},
		func(tx *Tx) error { return tx.Delete("t", record.Int(1)) },
	} {
		if err := e.Exec(fn); err != nil {
			t.Fatal(err)
		}
	}
	checkIndexesMatchHeap(t, e)
	e.SimulateCrash()
	if e, err = OpenAt(dir, Config{}); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if st := e.RecoveryStats(); st.RowsRestored != 4 || st.RecordsRedone != 3 {
		t.Fatalf("second restart did not restore 4 rows and redo 3 records: %+v", st)
	}
	checkIndexesMatchHeap(t, e)
	if got := lookup("a"); !slices.Equal(got, []int64{2, 4, 5}) {
		t.Fatalf("LookupIndex(a) after the second restart = %v, want [2 4 5]", got)
	}
}

// TestUniqueIndexRejectsDuplicateWrites checks that the live engine never
// writes a duplicate into a unique index, which a checkpoint could then not
// restore: an Update onto a value another row holds fails with
// ErrDuplicateKey and leaves the row and every index as they were (also
// after its transaction aborts), and a
// unique CreateIndex over duplicate rows fails and leaves no index. The
// directory must then reopen, by redo and by restore.
func TestUniqueIndexRejectsDuplicateWrites(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenAt(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	schema := record.MustSchema(
		record.Column{Name: "id", Type: record.TypeInt},
		record.Column{Name: "note", Type: record.TypeString},
		record.Column{Name: "code", Type: record.TypeString},
	)
	row := func(id int, note, code string) record.Row {
		return record.Row{record.Int(int64(id)), record.String(note), record.String(code)}
	}
	for _, name := range []string{"t", "u"} {
		if err := e.CreateTable(name, schema, []string{"id"}); err != nil {
			t.Fatal(err)
		}
	}
	// The non-unique index comes first, so the failing update has moved its
	// key before it meets the unique one.
	if err := e.CreateIndex("t_note", "t", []string{"note"}, false); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("t_code", "t", []string{"code"}, true); err != nil {
		t.Fatal(err)
	}
	for _, r := range []record.Row{row(1, "x", "a"), row(2, "y", "b")} {
		if err := e.Exec(func(tx *Tx) error { return tx.Insert("t", r) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []record.Row{row(1, "x", "a"), row(2, "y", "a")} {
		if err := e.Exec(func(tx *Tx) error { return tx.Insert("u", r) }); err != nil {
			t.Fatal(err)
		}
	}
	update := func(tx *Tx, code string) error {
		return tx.Update("t", []record.Value{record.Int(2)}, func(record.Row) (record.Row, error) { return row(2, "z", code), nil })
	}
	// The transaction goes on after the failed update and then aborts, so
	// its rollback must not touch the key row 1 holds.
	errAbort := errors.New("abort")
	if err := e.Exec(func(tx *Tx) error {
		if err := update(tx, "a"); !errors.Is(err, ErrDuplicateKey) {
			return fmt.Errorf("Update onto a held unique value = %v, want ErrDuplicateKey", err)
		}
		if err := tx.Insert("t", row(3, "w", "d")); err != nil {
			return err
		}
		return errAbort
	}); err != errAbort {
		t.Fatal(err)
	}
	if n := e.UndoFailures(); n != 0 {
		t.Fatalf("UndoFailures = %d", n)
	}
	if err := e.Exec(func(tx *Tx) error {
		got, _, err := tx.Get("t", record.Int(2))
		if err == nil && !reflect.DeepEqual(got, row(2, "y", "b")) {
			err = fmt.Errorf("row 2 after the failed update = %v", got)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	checkIndexesMatchHeap(t, e)
	if err := e.CreateIndex("u_code", "u", []string{"code"}, true); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("unique CreateIndex over duplicate rows = %v, want ErrDuplicateKey", err)
	}
	if ix := e.tables.Load().indexes["u_code"]; ix != nil || len(e.tables.Load().byName["u"].secs) != 0 {
		t.Fatalf("the failed CreateIndex left index %v", ix)
	}
	if err := e.Exec(func(tx *Tx) error { return update(tx, "c") }); err != nil {
		t.Fatal(err)
	}
	checkIndexesMatchHeap(t, e)

	e.SimulateCrash()
	if e, err = OpenAt(dir, Config{}); err != nil {
		t.Fatalf("reopen by redo: %v", err)
	}
	checkIndexesMatchHeap(t, e)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if e, err = OpenAt(dir, Config{}); err != nil {
		t.Fatalf("reopen by restore: %v", err)
	}
	defer e.Close()
	if st := e.RecoveryStats(); st.RowsRestored != 4 {
		t.Fatalf("restore did not restore 4 rows: %+v", st)
	}
	checkIndexesMatchHeap(t, e)
	if err := e.Exec(func(tx *Tx) error {
		rows, err := tx.LookupIndex("t_code", record.String("c"))
		if err == nil && (len(rows) != 1 || !reflect.DeepEqual(rows[0], row(2, "z", "c"))) {
			err = fmt.Errorf("LookupIndex(t_code, c) = %v", rows)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

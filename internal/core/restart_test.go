package core

import (
	"fmt"
	"reflect"
	"testing"

	"slidb/internal/record"
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
	trees := map[string]*indexTree{"primary key": set.byName["t"].pk.tree, "t_code": set.indexes["t_code"].tree, "t_score_grp": set.indexes["t_score_grp"].tree}
	for name, tree := range trees {
		if n := tree.t.Len(); n != len(model) {
			t.Errorf("%s holds %d entries for %d rows", name, n, len(model))
		}
	}
}

package catalog

import (
	"reflect"
	"testing"

	"slidb/internal/record"
)

func subscriberSchema() *record.Schema {
	return record.MustSchema(
		record.Column{Name: "s_id", Type: record.TypeInt},
		record.Column{Name: "sub_nbr", Type: record.TypeString},
		record.Column{Name: "vlr_location", Type: record.TypeInt},
	)
}

func subscriberMeta(pk ...string) TableMeta {
	return TableMeta{ID: 3, Name: "subscriber", Columns: subscriberSchema().Columns(), PrimaryKey: pk}
}

// TestCreateTableAndLookup builds a table descriptor and reads its metadata
// back through the embedded TableMeta; the descriptor owns copies of the
// caller's slices.
func TestCreateTableAndLookup(t *testing.T) {
	pk := []string{"s_id"}
	tbl, err := NewTable(subscriberMeta(pk...))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != 3 || tbl.Name != "subscriber" || !reflect.DeepEqual(tbl.PrimaryKey, []string{"s_id"}) {
		t.Fatalf("descriptor = %+v", tbl.TableMeta)
	}
	if !reflect.DeepEqual(tbl.Columns, tbl.Schema.Columns()) || tbl.Schema.NumColumns() != 3 {
		t.Fatalf("columns %v, schema %v", tbl.Columns, tbl.Schema.Columns())
	}
	pk[0] = "changed"
	if tbl.PrimaryKey[0] != "s_id" {
		t.Fatal("descriptor shares the caller's primary-key slice")
	}
}

func TestCreateTableErrors(t *testing.T) {
	for name, m := range map[string]TableMeta{
		"empty name":          {ID: 1, Columns: subscriberSchema().Columns(), PrimaryKey: []string{"s_id"}},
		"reserved ID 0":       {Name: "t", Columns: subscriberSchema().Columns(), PrimaryKey: []string{"s_id"}},
		"no columns":          {ID: 1, Name: "t", PrimaryKey: []string{"s_id"}},
		"duplicate column":    {ID: 1, Name: "t", Columns: []record.Column{{Name: "a", Type: record.TypeInt}, {Name: "a", Type: record.TypeInt}}, PrimaryKey: []string{"a"}},
		"missing primary key": {ID: 1, Name: "t", Columns: subscriberSchema().Columns()},
		"unknown key column":  {ID: 1, Name: "t", Columns: subscriberSchema().Columns(), PrimaryKey: []string{"nope"}},
	} {
		if _, err := NewTable(m); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := NewTable(subscriberMeta("s_id")); err != nil {
		t.Fatal(err)
	}
}

func TestPrimaryKeyExtraction(t *testing.T) {
	tbl, err := NewTable(subscriberMeta("s_id", "sub_nbr"))
	if err != nil {
		t.Fatal(err)
	}
	row := record.Row{record.Int(7), record.String("555-0001"), record.Int(99)}
	pk := tbl.PrimaryKeyIndexes()
	if len(pk) != 2 || pk[0] != 0 || pk[1] != 1 {
		t.Fatalf("PrimaryKeyIndexes = %v, want [0 1]", pk)
	}
	if row[pk[0]].AsInt() != 7 || row[pk[1]].AsString() != "555-0001" {
		t.Fatalf("primary key = %v, %v", row[pk[0]], row[pk[1]])
	}
}

func TestCreateIndexAndKeyExtraction(t *testing.T) {
	tbl, err := NewTable(subscriberMeta("s_id"))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(IndexMeta{Name: "sub_by_nbr", TableID: tbl.ID, Columns: []string{"sub_nbr"}, Unique: true}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Unique || ix.TableID != tbl.ID || ix.Name != "sub_by_nbr" {
		t.Fatalf("index metadata wrong: %+v", ix.IndexMeta)
	}
	for name, m := range map[string]IndexMeta{
		"index on missing column": {Name: "bad", TableID: tbl.ID, Columns: []string{"missing"}},
		"nameless index":          {TableID: tbl.ID, Columns: []string{"sub_nbr"}},
		"index without columns":   {Name: "bad", TableID: tbl.ID},
	} {
		if _, err := NewIndex(m, tbl); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	row := record.Row{record.Int(7), record.String("555-0001"), record.Int(99)}
	cols := ix.ColumnIndexes()
	if len(cols) != 1 || cols[0] != 1 {
		t.Fatalf("ColumnIndexes = %v, want [1]", cols)
	}
	if key := row[cols[0]]; key.AsString() != "555-0001" {
		t.Fatalf("index key = %v", key)
	}
	two, err := NewIndex(IndexMeta{Name: "by_loc_nbr", TableID: tbl.ID, Columns: []string{"vlr_location", "sub_nbr"}}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if cols := two.ColumnIndexes(); len(cols) != 2 || cols[0] != 2 || cols[1] != 1 {
		t.Fatalf("ColumnIndexes = %v, want [2 1]", cols)
	}
}

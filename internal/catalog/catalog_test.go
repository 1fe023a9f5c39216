package catalog

import (
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

func TestCreateTableAndLookup(t *testing.T) {
	c := New()
	tbl, err := c.CreateTable("subscriber", subscriberSchema(), []string{"s_id"})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID == 0 {
		t.Fatal("table ID 0 is reserved")
	}
	got, ok := c.Table("subscriber")
	if !ok || got != tbl {
		t.Fatal("Table lookup by name failed")
	}
	got, ok = c.TableByID(tbl.ID)
	if !ok || got != tbl {
		t.Fatal("Table lookup by ID failed")
	}
	if _, ok := c.Table("missing"); ok {
		t.Fatal("lookup of missing table succeeded")
	}
	if len(c.Tables()) != 1 {
		t.Fatal("Tables() wrong length")
	}
}

func TestCreateTableErrors(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("", subscriberSchema(), []string{"s_id"}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.CreateTable("t", subscriberSchema(), nil); err == nil {
		t.Fatal("missing primary key accepted")
	}
	if _, err := c.CreateTable("t", subscriberSchema(), []string{"nope"}); err == nil {
		t.Fatal("unknown primary key column accepted")
	}
	if _, err := c.CreateTable("t", subscriberSchema(), []string{"s_id"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", subscriberSchema(), []string{"s_id"}); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestTableIDsAreDistinct(t *testing.T) {
	c := New()
	ids := map[uint32]bool{}
	for _, name := range []string{"a", "b", "c", "d"} {
		tbl, err := c.CreateTable(name, subscriberSchema(), []string{"s_id"})
		if err != nil {
			t.Fatal(err)
		}
		if ids[tbl.ID] {
			t.Fatalf("duplicate table id %d", tbl.ID)
		}
		ids[tbl.ID] = true
	}
	if got := len(c.Tables()); got != 4 {
		t.Fatalf("Tables() = %d, want 4", got)
	}
}

func TestPrimaryKeyExtraction(t *testing.T) {
	c := New()
	tbl, _ := c.CreateTable("subscriber", subscriberSchema(), []string{"s_id", "sub_nbr"})
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
	c := New()
	if _, err := c.CreateIndex("ix", "missing", []string{"s_id"}, false); err == nil {
		t.Fatal("index on missing table accepted")
	}
	c.CreateTable("subscriber", subscriberSchema(), []string{"s_id"})
	ix, err := c.CreateIndex("sub_by_nbr", "subscriber", []string{"sub_nbr"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Unique || ix.TableID == 0 {
		t.Fatalf("index metadata wrong: %+v", ix)
	}
	if _, err := c.CreateIndex("sub_by_nbr", "subscriber", []string{"sub_nbr"}, true); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := c.CreateIndex("bad", "subscriber", []string{"missing"}, false); err == nil {
		t.Fatal("index on missing column accepted")
	}
	if _, err := c.CreateIndex("", "subscriber", nil, false); err == nil {
		t.Fatal("nameless index accepted")
	}

	row := record.Row{record.Int(7), record.String("555-0001"), record.Int(99)}
	cols := ix.ColumnIndexes()
	if len(cols) != 1 || cols[0] != 1 {
		t.Fatalf("ColumnIndexes = %v, want [1]", cols)
	}
	if key := row[cols[0]]; key.AsString() != "555-0001" {
		t.Fatalf("index key = %v", key)
	}

	got, ok := c.Index("sub_by_nbr")
	if !ok || got != ix {
		t.Fatal("Index lookup failed")
	}
	if _, ok := c.Index("nope"); ok {
		t.Fatal("missing index lookup succeeded")
	}
	tbl, _ := c.Table("subscriber")
	if len(c.TableIndexes(tbl.ID)) != 1 {
		t.Fatal("TableIndexes wrong")
	}
	if len(c.TableIndexes(999)) != 0 {
		t.Fatal("TableIndexes of unknown table should be empty")
	}
}

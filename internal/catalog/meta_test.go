package catalog

import (
	"reflect"
	"testing"

	"slidb/internal/record"
)

func TestTableMetaRoundTrip(t *testing.T) {
	tbl, err := NewTable(TableMeta{ID: 5, Name: "players", Columns: []record.Column{
		{Name: "id", Type: record.TypeInt},
		{Name: "region", Type: record.TypeString},
		{Name: "score", Type: record.TypeFloat},
	}, PrimaryKey: []string{"id", "region"}})
	if err != nil {
		t.Fatal(err)
	}
	m := tbl.TableMeta
	got, err := DecodeTableMeta(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n in: %+v\nout: %+v", m, got)
	}
	if _, err := DecodeTableMeta(m.Encode()[:3]); err == nil {
		t.Fatal("truncated metadata decoded without error")
	}
}

func TestIndexMetaRoundTrip(t *testing.T) {
	m := IndexMeta{Name: "players_by_region", TableID: 9, Columns: []string{"region"}, Unique: true}
	got, err := DecodeIndexMeta(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n in: %+v\nout: %+v", m, got)
	}
	if _, err := DecodeIndexMeta(append(m.Encode(), 0)); err == nil {
		t.Fatal("metadata with a trailing byte decoded without error")
	}
}

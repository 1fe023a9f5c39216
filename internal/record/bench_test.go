package record

import (
	"fmt"
	"testing"
)

// benchRow is shaped like TM-1's subscriber row: an int key, a string, and
// 32 more int columns.
func benchRow(b *testing.B) (*Schema, []byte) {
	cols := []Column{{Name: "s_id", Type: TypeInt}, {Name: "sub_nbr", Type: TypeString}}
	row := Row{Int(123456), String("000000000123456")}
	for i := 0; i < 32; i++ {
		cols = append(cols, Column{Name: fmt.Sprintf("c%d", i), Type: TypeInt})
		row = append(row, Int(int64(i)))
	}
	s := MustSchema(cols...)
	data, err := s.Encode(row)
	if err != nil {
		b.Fatal(err)
	}
	return s, data
}

// BenchmarkAppendKey builds a primary key straight from an encoded row.
func BenchmarkAppendKey(b *testing.B) {
	s, data := benchRow(b)
	cols := []int{0}
	var buf [64]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.AppendKey(buf[:0], data, cols); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeEncodeKey is the same key built the way restart used to:
// decode the whole row, then encode the key columns.
func BenchmarkDecodeEncodeKey(b *testing.B) {
	s, data := benchRow(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row, err := s.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		_ = EncodeKey(row[0])
	}
}

// BenchmarkDecode decodes the whole row.
func BenchmarkDecode(b *testing.B) {
	s, data := benchRow(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

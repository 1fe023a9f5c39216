package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"slidb/internal/record"
)

// BenchmarkOpenAtCheckpoint times OpenAt restoring a checkpoint of 100 000
// rows with a primary key and one non-unique secondary index, on a fresh
// copy of the data directory per iteration. The log tail is empty, so the
// restore is all it measures.
func BenchmarkOpenAtCheckpoint(b *testing.B) {
	const rows, batch = 100_000, 1_000
	src := b.TempDir()
	e, err := OpenAt(src, Config{})
	if err != nil {
		b.Fatal(err)
	}
	schema := record.MustSchema(
		record.Column{Name: "id", Type: record.TypeInt},
		record.Column{Name: "grp", Type: record.TypeInt},
		record.Column{Name: "name", Type: record.TypeString},
	)
	if err := e.CreateTable("t", schema, []string{"id"}); err != nil {
		b.Fatal(err)
	}
	if err := e.CreateIndex("t_grp", "t", []string{"grp"}, false); err != nil {
		b.Fatal(err)
	}
	for from := 0; from < rows; from += batch {
		if err := e.Exec(func(tx *Tx) error {
			for i := from; i < from+batch; i++ {
				r := record.Row{record.Int(int64(i)), record.Int(int64(i % 100)), record.String(fmt.Sprintf("name-%06d", i))}
				if err := tx.Insert("t", r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "db")
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		e, err := OpenAt(dir, Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := e.RecoveryStats(); st.RowsRestored != rows {
			b.Fatalf("restored %d rows, want %d", st.RowsRestored, rows)
		}
		e.Close()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

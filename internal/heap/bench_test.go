package heap

import (
	"bytes"
	"testing"

	"slidb/internal/buffer"
)

// BenchmarkAppendLoad bulk-loads 200 000 fixed-size rows into a fresh heap
// file, the way restart restores a checkpoint: each page keeps a remainder
// too small for the next row, so a free-space choice that rescans the file
// whenever the append page fills makes the load quadratic in pages.
func BenchmarkAppendLoad(b *testing.B) {
	const rows = 200_000
	rec := bytes.Repeat([]byte("r"), 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := NewFile(1, buffer.NewPool(nil, buffer.Config{Frames: 16}))
		for r := 0; r < rows; r++ {
			if _, err := f.Insert(nil, rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

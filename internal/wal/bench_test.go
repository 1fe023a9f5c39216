package wal

import (
	"sync"
	"testing"
)

// benchRecord is benchmark/'s probe record: an update with 64-byte before
// and after images (~150 encoded bytes).
func benchRecord() Record {
	return Record{Type: RecUpdate, XID: 1, Table: 1, Page: 1, Slot: 1, Before: make([]byte, 64), After: make([]byte, 64)}
}

// benchAppend appends b.N records from `appenders` goroutines. A fresh log is
// started (timer stopped) before the default 4 MiB buffer could fill, so what
// is timed is reserve/fill/publish and never a drain — the same measurement
// as benchmark/'s wal.append_ns and wal.append_2p_ns probes.
func benchAppend(b *testing.B, appenders int) {
	const perLog = 16000 // × ~150 B stays under the default buffer
	rec := benchRecord()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += perLog {
		b.StopTimer()
		l := New(Config{})
		n := min(perLog, b.N-done)
		b.StartTimer()
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := a; i < n; i += appenders {
					if _, err := l.Append(rec); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkAppend is one uncontended Append.
func BenchmarkAppend(b *testing.B) { benchAppend(b, 1) }

// BenchmarkAppend2P is two appenders racing on one log's head and publish
// watermark.
func BenchmarkAppend2P(b *testing.B) { benchAppend(b, 2) }

// nopSink accepts and forgets everything: the flush cycle without the fsync.
type nopSink struct{}

func (nopSink) WriteRanges([]Range) error { return nil }
func (nopSink) Sync() error               { return nil }

// BenchmarkAppendFlush is one commit record and a Flush of it: a whole
// group-commit cycle with nothing to batch — hand-off to the flusher,
// consume, one WriteRanges, Sync, ack — into a sink that does no I/O
// (benchmark/'s wal.commit_flush_us is the same cycle with a real fsync).
func BenchmarkAppendFlush(b *testing.B) {
	l := New(Config{Durable: nopSink{}})
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn, err := l.Append(Record{Type: RecCommit, XID: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Flush(lsn); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendAllocs holds a warm append — unprofiled and profiled — to zero
// heap allocations: the record is encoded straight into the shared buffer.
func TestAppendAllocs(t *testing.T) {
	l := New(Config{})
	defer l.Close()
	rec := benchRecord()
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"Append", func() error { _, err := l.Append(rec); return err }},
		{"AppendTimed", func() error { _, _, err := l.AppendTimed(rec); return err }},
	} {
		var err error
		if n := testing.AllocsPerRun(2000, func() { err = c.op() }); n > 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkIterate is one record of restart's log read: b.N TPC-B-shaped
// records in 4 MiB segments, read back with Segments.Iterate. Its allocs/op
// column is the per-record decode cost (TestIterateAllocs holds it to one).
func BenchmarkIterate(b *testing.B) {
	dir := b.TempDir()
	writeTPCBLog(b, dir, b.N)
	segs, err := OpenSegments(dir, 4<<20, false)
	if err != nil {
		b.Fatal(err)
	}
	defer segs.Crash()
	seen := 0
	b.ReportAllocs()
	b.ResetTimer()
	if err := segs.Iterate(0, func(Record) error { seen++; return nil }); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if seen != b.N {
		b.Fatalf("Iterate delivered %d of %d records", seen, b.N)
	}
}

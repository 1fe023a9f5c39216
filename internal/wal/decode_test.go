package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// tpcbTxn returns one TPC-B transaction's records: three row updates
// (account, teller, branch) with 100-byte images, a 50-byte history insert
// and the commit — about the 720 log bytes per transaction the engine writes.
func tpcbTxn(xid uint64) []Record {
	img := func(tag byte, n int) []byte { return bytes.Repeat([]byte{tag, byte(xid)}, n/2) }
	return []Record{
		{XID: xid, Type: RecUpdate, Table: 1, Page: 3, Slot: 7, Before: img('a', 100), After: img('A', 100)},
		{XID: xid, Type: RecUpdate, Table: 2, Page: 1, Slot: 2, Before: img('t', 100), After: img('T', 100)},
		{XID: xid, Type: RecUpdate, Table: 3, Page: 1, Slot: 0, Before: img('b', 100), After: img('B', 100)},
		{XID: xid, Type: RecInsert, Table: 4, Page: 9, Slot: 4, After: img('h', 50)},
		{XID: xid, Type: RecCommit},
	}
}

// writeTPCBLog appends n TPC-B-shaped records to a durable log in dir
// (4 MiB segments) and closes it.
func writeTPCBLog(tb testing.TB, dir string, n int) {
	tb.Helper()
	segs, err := OpenSegments(dir, 4<<20, false)
	if err != nil {
		tb.Fatal(err)
	}
	l := New(Config{Durable: segs})
	for xid := uint64(1); n > 0; xid++ {
		recs := tpcbTxn(xid)
		for _, rec := range recs[:min(n, len(recs))] {
			if _, err := l.Append(rec); err != nil {
				tb.Fatal(err)
			}
		}
		n -= len(recs)
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := segs.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestIterateAllocs holds restart's log reads to their allocation budget:
// Iterate allocates each record's frame once (its images alias it), and
// OpenSegments' validation scan reuses one buffer, so its allocations do not
// grow with the number of records. Each size reads the minimum of five
// measurements: a stray runtime allocation (GC, a concurrent test binary)
// can only add to a reading, while a per-record allocation would add
// thousands to every one of them.
func TestIterateAllocs(t *testing.T) {
	openAllocs := func(n int) float64 {
		dir := t.TempDir()
		writeTPCBLog(t, dir, n)
		if files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(files) != 1 {
			t.Fatalf("%d records span %d segments, want 1", n, len(files))
		}
		least := math.Inf(1)
		for range 5 {
			least = min(least, testing.AllocsPerRun(3, func() {
				segs, err := OpenSegments(dir, 4<<20, false)
				if err != nil {
					t.Fatal(err)
				}
				segs.Crash()
			}))
		}
		return least
	}
	if small, big := openAllocs(2000), openAllocs(16000); big > small {
		t.Errorf("OpenSegments: %v allocs for 2000 records, %v for 16000; want no growth", small, big)
	}

	const n = 20000
	dir := t.TempDir()
	writeTPCBLog(t, dir, n)
	segs, err := OpenSegments(dir, 4<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	defer segs.Crash()
	seen := 0
	count := func(Record) error { seen++; return nil }
	allocs := testing.AllocsPerRun(3, func() {
		if err := segs.Iterate(0, count); err != nil {
			t.Fatal(err)
		}
	})
	if seen != 4*n { // one warm-up run and three measured
		t.Fatalf("Iterate delivered %d records over 4 runs, want %d", seen, 4*n)
	}
	// Beyond one allocation per record, a run may only pay for opening its
	// segment: the directory listing, the file and its read buffer.
	if allocs > float64(n+64) {
		t.Errorf("Iterate: %v allocs for %d records, want at most one per record", allocs, n)
	}
}

// TestScanAndIterateAgreeAtEveryCut cuts a small segment at every byte
// offset: the end OpenSegments' scan finds must be the end of the last
// record Iterate delivers, and the delivered records must be exactly the
// uncut log's prefix. Both read frames through one decoder.
func TestScanAndIterateAgreeAtEveryCut(t *testing.T) {
	dir := t.TempDir()
	segs, err := OpenSegments(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	start := segs.End()
	var stream []byte
	var full []Record
	for i, rec := range tpcbTxn(1)[2:] {
		if i == 1 {
			stream = append(stream, 0, 0) // wraparound padding
		}
		rec.LSN = start.Advance(int64(len(stream)))
		full = append(full, rec)
		stream = append(stream, rec.Encode()...)
	}
	if err := segs.WriteRanges([]Range{{Data: stream, First: start}}); err != nil {
		t.Fatal(err)
	}
	segs.Crash()
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(files) != 1 {
		t.Fatalf("want 1 segment, got %d", len(files))
	}
	whole, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(whole); cut++ {
		if err := os.WriteFile(files[0], whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		segs, err := OpenSegments(dir, 0, false)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := collect(t, segs, 0)
		end := segs.End()
		segs.Crash()
		// The prefix is every record whose whole frame lies before the cut.
		k := 0
		for k < len(full) && segHeaderSize+full[k].LSN.Distance(start)+int64(full[k].EncodedSize()) <= int64(cut) {
			k++
		}
		if len(got) != k || (k > 0 && !reflect.DeepEqual(got, full[:k])) {
			t.Fatalf("cut %d: delivered %+v, want %+v", cut, got, full[:k])
		}
		wantEnd := start
		if k > 0 {
			wantEnd = full[k-1].LSN.Advance(int64(full[k-1].EncodedSize()))
		}
		if end != wantEnd {
			t.Fatalf("cut %d: scan ends at %d, last delivered record at %d", cut, end, wantEnd)
		}
	}
}

package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// logTo creates a Log backed by a Segments sink.
func logTo(t *testing.T, dir string, segBytes int64) (*Log, *Segments) {
	t.Helper()
	segs, err := OpenSegments(dir, segBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Durable: segs}), segs
}

// appendN appends n records and returns their byte-offset LSNs.
func appendN(t *testing.T, l *Log, xid uint64, n int) []LSN {
	t.Helper()
	lsns := make([]LSN, 0, n)
	for i := 0; i < n; i++ {
		lsn, err := l.Append(Record{XID: xid, Type: RecInsert, Table: 1, After: []byte("payload-payload")})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	return lsns
}

// writeRecord lands rec's frame at its byte-offset LSN through the sink's
// one write path.
func writeRecord(segs *Segments, rec Record) error {
	return segs.WriteRanges([]Range{{Data: rec.Encode(), First: rec.LSN}})
}

func collect(t *testing.T, segs *Segments, from LSN) []Record {
	t.Helper()
	var out []Record
	if err := segs.Iterate(from, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSegmentsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, segs := logTo(t, dir, 0)
	lsns := appendN(t, l, 7, 10)
	if err := l.Flush(lsns[9]); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, segs, 0)
	if len(recs) != 10 {
		t.Fatalf("iterated %d records, want 10", len(recs))
	}
	for i, r := range recs {
		// Byte-offset LSNs: the iterated record's LSN must be exactly the
		// offset Append returned, recovered from its position on disk.
		if r.LSN != lsns[i] || r.XID != 7 || r.Type != RecInsert {
			t.Fatalf("record %d = %+v, want LSN %d", i, r, lsns[i])
		}
	}
	// Iterate from the middle: addressing is arithmetic, not scanning, so
	// starting at a record's exact byte offset yields that record first.
	if got := collect(t, segs, lsns[5]); len(got) != 5 || got[0].LSN != lsns[5] {
		t.Fatalf("partial iterate = %d records starting at %v, want 5 from %d", len(got), got[0].LSN, lsns[5])
	}
	// End is the offset just past the last frame.
	wantEnd := lsns[9].Advance(int64(recs[9].EncodedSize()))
	if segs.End() != wantEnd {
		t.Fatalf("End = %d, want %d", segs.End(), wantEnd)
	}
}

func TestSegmentsRotationAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, segs := logTo(t, dir, 128) // tiny segments force rotation
	lsns := appendN(t, l, 1, 50)
	if err := l.Flush(lsns[49]); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(files) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(files))
	}
	if got := collect(t, segs, 0); len(got) != 50 {
		t.Fatalf("iterated %d records across segments, want 50", len(got))
	}
	// Checkpoint at record 25's start offset covers exactly records 0..24
	// (the watermark is an exclusive end): segments holding newer records
	// survive and iteration resumes at the boundary.
	if err := segs.Checkpoint(lsns[25]); err != nil {
		t.Fatal(err)
	}
	got := collect(t, segs, lsns[25])
	if len(got) != 25 || got[0].LSN != lsns[25] {
		t.Fatalf("after partial checkpoint: %d records from LSN %d, want 25 from %d", len(got), got[0].LSN, lsns[25])
	}
	// Checkpoint covering everything deletes every segment.
	if err := segs.Checkpoint(segs.End()); err != nil {
		t.Fatal(err)
	}
	files, _ = filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(files) != 0 {
		t.Fatalf("full checkpoint left %d segments", len(files))
	}
	// The log keeps appending into a fresh segment afterwards, at offsets
	// above everything checkpointed away.
	more := appendN(t, l, 2, 3)
	if err := l.Flush(more[2]); err != nil {
		t.Fatal(err)
	}
	got = collect(t, segs, 0)
	if len(got) != 3 || got[0].LSN != more[0] || more[0] <= lsns[49] {
		t.Fatalf("post-checkpoint records = %v (first appended at %d)", got, more[0])
	}
}

func TestSegmentsReopenResumesLSN(t *testing.T) {
	dir := t.TempDir()
	l, segs := logTo(t, dir, 0)
	lsns := appendN(t, l, 1, 5)
	if err := l.Flush(lsns[4]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	end := segs.End()
	if err := segs.Close(); err != nil {
		t.Fatal(err)
	}

	segs2, err := OpenSegments(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if segs2.End() != end {
		t.Fatalf("reopened End = %d, want %d", segs2.End(), end)
	}
	l2 := New(Config{Durable: segs2, StartLSN: segs2.End()})
	more := appendN(t, l2, 2, 2)
	if more[0] != end {
		t.Fatalf("resumed LSN = %d, want %d (appends continue at the recovered end)", more[0], end)
	}
	if err := l2.Flush(more[1]); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, segs2, 0)
	if len(recs) != 7 {
		t.Fatalf("after reopen+append: %d records, want 7", len(recs))
	}
}

func TestSegmentsTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, segs := logTo(t, dir, 0)
	lsns := appendN(t, l, 1, 5)
	if err := l.Flush(lsns[4]); err != nil {
		t.Fatal(err)
	}
	end := segs.End()
	segs.Close()

	// Simulate a crash mid-write: garbage half-frame at the segment tail.
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(files) != 1 {
		t.Fatalf("want 1 segment, got %d", len(files))
	}
	f, err := os.OpenFile(files[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A truncated frame followed by bytes that parse as an absurd length
	// prefix: the scanner must treat both as a torn tail, not allocate.
	if _, err := f.Write([]byte{0x40, 0x01, 0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	segs2, err := OpenSegments(dir, 0, false)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer segs2.Close()
	if segs2.End() != end {
		t.Fatalf("End after torn tail = %d, want %d", segs2.End(), end)
	}
	if got := collect(t, segs2, 0); len(got) != 5 {
		t.Fatalf("iterated %d records, want 5 (torn frame must be dropped)", len(got))
	}
	// Appends after truncation extend a valid log.
	l2 := New(Config{Durable: segs2, StartLSN: segs2.End()})
	more := appendN(t, l2, 2, 1)
	if err := l2.Flush(more[0]); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, segs2, 0); len(got) != 6 || got[5].LSN != end {
		t.Fatalf("append after torn-tail truncation: %v", got)
	}
}

// TestTornTailAcrossRotationBoundary covers the crash signature where the
// torn record straddles a segment rotation: the previous segment ends clean
// at a frame boundary and the freshly rotated segment holds only its header
// plus the partial first frame that was mid-write when the machine died.
// Repair must truncate the new segment back to its header (not reject it,
// and not disturb the full previous segments), recover the log end from the
// earlier segments, and let appends resume into a valid log.
func TestTornTailAcrossRotationBoundary(t *testing.T) {
	dir := t.TempDir()
	l, segs := logTo(t, dir, 128) // tiny segments force rotation
	lsns := appendN(t, l, 1, 20)
	if err := l.Flush(lsns[19]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	end := segs.End()
	if err := segs.Close(); err != nil {
		t.Fatal(err)
	}
	if n := segs.SegmentCount(); n < 2 {
		t.Fatalf("setup needs several segments, got %d", n)
	}

	// Simulate the crash: a new segment was created at rotation (header
	// fully written) and the first record's frame only partially reached it.
	// The partial frame is a valid length prefix with a truncated body — the
	// straddle signature.
	torn := Record{XID: 2, Type: RecInsert, Table: 1, After: []byte("payload-payload")}.Encode()
	torn = torn[:len(torn)/2]
	path := filepath.Join(dir, segmentName(end))
	if err := os.WriteFile(path, append(encodeHeader(end), torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	segs2, err := OpenSegments(dir, 128, false)
	if err != nil {
		t.Fatalf("reopen with torn rotated segment: %v", err)
	}
	defer segs2.Close()
	if got := segs2.End(); got != end {
		t.Fatalf("End = %d, want %d (torn first record of rotated segment must not count)", got, end)
	}
	if got := collect(t, segs2, 0); len(got) != 20 {
		t.Fatalf("iterated %d records, want 20", len(got))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != segHeaderSize {
		t.Fatalf("torn rotated segment not truncated to its header: size=%v err=%v", fi.Size(), err)
	}

	// Appends resume seamlessly above the repaired tail.
	l2 := New(Config{Durable: segs2, StartLSN: segs2.End()})
	more := appendN(t, l2, 3, 2)
	if err := l2.Flush(more[1]); err != nil {
		t.Fatal(err)
	}
	got := collect(t, segs2, 0)
	if len(got) != 22 || got[21].LSN != more[1] {
		t.Fatalf("append after straddle repair: %d records, last LSN %d (want %d)", len(got), got[len(got)-1].LSN, more[1])
	}
}

// TestTornHeaderAtRotationRepaired covers the narrower crash window where
// the machine died between creating a rotated segment file and its header
// reaching disk: the file exists but is empty (or holds a partial header).
// Reopen must rewrite the header — not report ErrLogFormat, which is for
// wrong-format files, not torn ones.
func TestTornHeaderAtRotationRepaired(t *testing.T) {
	dir := t.TempDir()
	l, segs := logTo(t, dir, 0)
	lsns := appendN(t, l, 1, 3)
	if err := l.Flush(lsns[2]); err != nil {
		t.Fatal(err)
	}
	end := segs.End()
	segs.Checkpoint(0) // seal the current segment so the next one is fresh
	segs.Close()

	for _, partial := range [][]byte{nil, encodeHeader(end)[:3]} {
		path := filepath.Join(dir, segmentName(end))
		if err := os.WriteFile(path, partial, 0o644); err != nil {
			t.Fatal(err)
		}
		segs2, err := OpenSegments(dir, 0, false)
		if err != nil {
			t.Fatalf("reopen with %d-byte torn header: %v", len(partial), err)
		}
		if segs2.End() != end {
			t.Fatalf("End after torn-header repair = %d, want %d", segs2.End(), end)
		}
		l2 := New(Config{Durable: segs2, StartLSN: segs2.End()})
		more := appendN(t, l2, 2, 1)
		if err := l2.Flush(more[0]); err != nil {
			t.Fatal(err)
		}
		if got := collect(t, segs2, 0); len(got) != 4 || got[3].LSN != end {
			t.Fatalf("append after torn-header repair: %v", got)
		}
		segs2.Close()
		os.Remove(path)
	}
}

// TestOldFormatSegmentsFailLoudly pins the format gate: a data directory
// whose segment files predate the byte-offset LSN format (headerless v1
// frames, or a future version byte) must fail OpenSegments with
// ErrLogFormat — never scan as a torn tail and silently truncate.
func TestOldFormatSegmentsFailLoudly(t *testing.T) {
	t.Run("headerless-v1", func(t *testing.T) {
		dir := t.TempDir()
		// A v1 segment is a bare frame stream: no magic, the first byte is a
		// frame length prefix.
		v1 := append(Record{XID: 1, Type: RecInsert, After: []byte("old-format-row")}.Encode(),
			Record{XID: 1, Type: RecCommit}.Encode()...)
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), v1, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSegments(dir, 0, false)
		if !errors.Is(err, ErrLogFormat) {
			t.Fatalf("OpenSegments on v1 segment: err = %v, want ErrLogFormat", err)
		}
	})
	t.Run("future-version", func(t *testing.T) {
		dir := t.TempDir()
		h := encodeHeader(1)
		h[len(segMagic)] = segVersion + 1
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), h, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSegments(dir, 0, false)
		if !errors.Is(err, ErrLogFormat) {
			t.Fatalf("OpenSegments on future-version segment: err = %v, want ErrLogFormat", err)
		}
	})
	t.Run("iterate-rejects-too", func(t *testing.T) {
		dir := t.TempDir()
		l, segs := logTo(t, dir, 0)
		lsns := appendN(t, l, 1, 1)
		if err := l.Flush(lsns[0]); err != nil {
			t.Fatal(err)
		}
		// Corrupt the magic in place after opening: Iterate re-reads files.
		files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		data[0] = 'X'
		if err := os.WriteFile(files[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := segs.Iterate(0, func(Record) error { return nil }); !errors.Is(err, ErrLogFormat) {
			t.Fatalf("Iterate on clobbered magic: err = %v, want ErrLogFormat", err)
		}
		segs.Close()
	})
}

// TestRangeWriteRotationMatchesPerRecord pins WriteRanges' rotation rule:
// rotation is decided per frame — a frame goes to the current segment iff
// the segment is under the rotation size when the frame starts — so a
// multi-frame range is never split inside a frame, and every record comes
// back at exactly the byte offset it was placed at.
func TestRangeWriteRotationMatchesPerRecord(t *testing.T) {
	dir := t.TempDir()
	segs, err := OpenSegments(dir, 256, false)
	if err != nil {
		t.Fatal(err)
	}
	defer segs.Close()
	// One large range of many frames starting at offset 1: rotation must
	// slice it at frame boundaries into several segments.
	var rng []byte
	var want []LSN
	at := LSN(1)
	for i := 1; i <= 40; i++ {
		rec := Record{XID: 7, Type: RecInsert, Table: 1, After: []byte("0123456789abcdef")}
		want = append(want, at)
		enc := rec.Encode()
		rng = append(rng, enc...)
		at = at.Advance(int64(len(enc)))
	}
	if err := segs.WriteRanges([]Range{{Data: rng, First: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := segs.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := segs.SegmentCount(); n < 3 {
		t.Fatalf("range write produced %d segments, want rotation to several", n)
	}
	if got := segs.End(); got != at {
		t.Fatalf("End = %d, want %d", got, at)
	}
	// Every segment must scan clean (no frame split across files) and every
	// record must surface at its original offset.
	got := collect(t, segs, 0)
	if len(got) != 40 {
		t.Fatalf("iterated %d records, want 40", len(got))
	}
	for i, r := range got {
		if r.LSN != want[i] {
			t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, want[i])
		}
	}
}

// TestWriteRangesGapFailsLoudly pins the sink's contiguity check: the log
// buffer writes its wraparound padding as real bytes inside the ranges, so a
// range starting above the stored end can only be a log-buffer bug and must
// fail with ErrCorrupt — never be papered over with zeros — and so must a
// range overlapping the end.
func TestWriteRangesGapFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	segs, err := OpenSegments(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer segs.Close()
	r1 := Record{LSN: 1, XID: 1, Type: RecInsert, After: []byte("a")}
	if err := writeRecord(segs, r1); err != nil {
		t.Fatal(err)
	}
	end := segs.End()
	gapped := Record{LSN: end.Advance(13), XID: 1, Type: RecCommit}
	if err := writeRecord(segs, gapped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gapped range: err = %v, want ErrCorrupt", err)
	}
	if err := writeRecord(segs, r1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlapping range: err = %v, want ErrCorrupt", err)
	}
	// Neither rejected range reached the file: the log still ends after r1
	// and continues contiguously.
	if got := segs.End(); got != end {
		t.Fatalf("End = %d after rejected ranges, want %d", got, end)
	}
	if err := writeRecord(segs, Record{LSN: end, XID: 1, Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, segs, 0); len(got) != 2 || got[1].LSN != end {
		t.Fatalf("read back %+v", got)
	}
}

// TestCloseDrainsPendingRecords pins the Close/Flush contract: records
// appended but never explicitly flushed must still reach the sink before
// Close returns.
func TestCloseDrainsPendingRecords(t *testing.T) {
	dir := t.TempDir()
	l, segs := logTo(t, dir, 0)
	appendN(t, l, 3, 8) // no Flush
	if n := l.LastLSN().Distance(l.DurableLSN()); n <= 0 {
		t.Fatalf("pending bytes = %d before Close, want > 0", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := l.LastLSN().Distance(l.DurableLSN()); n != 0 {
		t.Fatalf("Close left %d pending bytes", n)
	}
	if got, want := l.DurableLSN(), l.LastLSN(); got != want {
		t.Fatalf("DurableLSN after Close = %d, want %d", got, want)
	}
	if got := collect(t, segs, 0); len(got) != 8 {
		t.Fatalf("sink received %d records, want all 8", len(got))
	}
	if _, err := l.Append(Record{Type: RecBegin}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

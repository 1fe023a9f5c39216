package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// swapPrealloc replaces the platform fallocate hook for one test.
func swapPrealloc(t *testing.T, fn func(*os.File, int64) error) {
	t.Helper()
	old := sysPrealloc
	sysPrealloc = fn
	t.Cleanup(func() { sysPrealloc = old })
}

// segFiles returns the segment paths in name (= first-offset) order.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestWriteRangesTwoRotationsMatchesWriteRange pins the vectored path's
// boundary rule: a single WriteRanges call whose batch spans two segment
// rotations must leave byte-for-byte the same files as writing the same
// ranges one call per range, split at exactly the same frame boundaries —
// and must land each segment's share in one submission (writes == segments
// touched, not frames written).
func TestWriteRangesTwoRotationsMatchesWriteRange(t *testing.T) {
	const segBytes = 256
	// Two contiguous ranges of whole frames, together long enough to cross
	// at least two rotation boundaries.
	var r1, r2 []byte
	at := LSN(1)
	for i := 0; i < 40; i++ {
		enc := Record{XID: 9, Type: RecInsert, Table: 1, After: []byte("0123456789abcdef")}.Encode()
		if i < 15 {
			r1 = append(r1, enc...)
		} else {
			r2 = append(r2, enc...)
		}
		at = at.Advance(int64(len(enc)))
	}
	mid := LSN(1 + len(r1))

	vecDir, refDir := t.TempDir(), t.TempDir()
	vec, err := OpenSegments(vecDir, segBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	defer vec.Close()
	if err := vec.WriteRanges([]Range{{Data: r1, First: 1}, {Data: r2, First: mid}}); err != nil {
		t.Fatal(err)
	}
	ref, err := OpenSegments(refDir, segBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.WriteRanges([]Range{{Data: r1, First: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteRanges([]Range{{Data: r2, First: mid}}); err != nil {
		t.Fatal(err)
	}

	if vec.End() != at || ref.End() != at {
		t.Fatalf("End: vectored %d, per-range %d, want %d", vec.End(), ref.End(), at)
	}
	vecFiles, refFiles := segFiles(t, vecDir), segFiles(t, refDir)
	if len(vecFiles) < 3 {
		t.Fatalf("batch produced %d segments, want at least two rotations", len(vecFiles))
	}
	if len(vecFiles) != len(refFiles) {
		t.Fatalf("segment counts differ: vectored %d, per-range %d", len(vecFiles), len(refFiles))
	}
	for i := range vecFiles {
		if filepath.Base(vecFiles[i]) != filepath.Base(refFiles[i]) {
			t.Fatalf("segment %d named %s vs %s: rotation split at a different frame",
				i, filepath.Base(vecFiles[i]), filepath.Base(refFiles[i]))
		}
		vb, err := os.ReadFile(vecFiles[i])
		if err != nil {
			t.Fatal(err)
		}
		rb, err := os.ReadFile(refFiles[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vb, rb) {
			t.Fatalf("segment %s differs between vectored and per-range paths", filepath.Base(vecFiles[i]))
		}
	}
	// One submission per segment file touched: the whole batch cost three
	// writes, not forty.
	if got, want := vec.Stats().Writes, uint64(len(vecFiles)); got != want {
		t.Fatalf("vectored path issued %d writes across %d segments, want one per segment", got, want)
	}
}

// TestPreallocENOTSUPFallsBackToTruncate pins the graceful-degradation chain:
// a file system refusing fallocate must not disable preallocation — the
// segment is extended with truncate instead — and sealing must trim the zero
// tail either way.
func TestPreallocENOTSUPFallsBackToTruncate(t *testing.T) {
	swapPrealloc(t, func(*os.File, int64) error { return syscall.ENOTSUP })
	const segBytes = 4096
	dir := t.TempDir()
	segs, err := OpenSegments(dir, segBytes, true)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{LSN: 1, XID: 1, Type: RecInsert, After: []byte("x")}
	if err := writeRecord(segs, rec); err != nil {
		t.Fatal(err)
	}
	files := segFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("got %d segments, want 1", len(files))
	}
	st, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != segBytes {
		t.Fatalf("live segment is %d bytes, want preallocated %d", st.Size(), segBytes)
	}
	ss := segs.Stats()
	if ss.Preallocs != 0 || ss.PreallocFallbacks == 0 {
		t.Fatalf("stats = %+v, want only truncate fallbacks", ss)
	}
	if err := segs.Close(); err != nil {
		t.Fatal(err)
	}
	// Sealing trims the unused tail: sealed segments are byte-identical to
	// ones written without preallocation.
	st, err = os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= segBytes {
		t.Fatalf("sealed segment still %d bytes, want zero tail trimmed", st.Size())
	}
	reopened, err := OpenSegments(dir, segBytes, true)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := collect(t, reopened, 0); len(got) != 1 || got[0].LSN != 1 {
		t.Fatalf("reopen read back %+v", got)
	}
}

// TestPreallocHardFailureDisablesPrealloc pins that a real I/O error (not an
// unsupported-operation errno) switches preallocation off instead of failing
// the write path: preallocation is strictly an optimization.
func TestPreallocHardFailureDisablesPrealloc(t *testing.T) {
	swapPrealloc(t, func(*os.File, int64) error { return syscall.EIO })
	dir := t.TempDir()
	segs, err := OpenSegments(dir, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	defer segs.Close()
	rec := Record{LSN: 1, XID: 1, Type: RecInsert, After: []byte("x")}
	if err := writeRecord(segs, rec); err != nil {
		t.Fatal(err)
	}
	if ss := segs.Stats(); ss.Preallocs != 0 || ss.PreallocFallbacks != 0 {
		t.Fatalf("stats = %+v, want preallocation abandoned", ss)
	}
	if got := collect(t, segs, 0); len(got) != 1 {
		t.Fatalf("read back %d records, want 1", len(got))
	}
}

// TestCrashMidPreallocatedSegmentRecoversIdentically is the zero-frame cutoff
// regression test: a crash leaves the live preallocated segment at its full
// rotation size with a zero tail after the last frame, and recovery must see
// exactly the records an unallocated layout recovers — the zero run is
// end-of-log, never payload.
func TestCrashMidPreallocatedSegmentRecoversIdentically(t *testing.T) {
	const segBytes = 256
	write := func(dir string, prealloc bool) {
		segs, err := OpenSegments(dir, segBytes, prealloc)
		if err != nil {
			t.Fatal(err)
		}
		at := LSN(1)
		for i := 0; i < 20; i++ {
			rec := Record{LSN: at, XID: 5, Type: RecInsert, Table: 2, After: []byte("payload-payload")}
			enc := rec.Encode()
			if err := writeRecord(segs, rec); err != nil {
				t.Fatal(err)
			}
			at = at.Advance(int64(len(enc)))
		}
		if err := segs.Sync(); err != nil {
			t.Fatal(err)
		}
		segs.Crash() // close without sealing: the zero tail stays
	}
	preDir, refDir := t.TempDir(), t.TempDir()
	write(preDir, true)
	write(refDir, false)

	// The crashed preallocated layout really does carry a zero tail on its
	// live segment — otherwise this test pins nothing.
	preFiles := segFiles(t, preDir)
	if len(preFiles) < 2 {
		t.Fatalf("got %d segments, want rotation before the crash", len(preFiles))
	}
	if st, err := os.Stat(preFiles[len(preFiles)-1]); err != nil || st.Size() != segBytes {
		t.Fatalf("crashed live segment size = %v (err %v), want full %d", st.Size(), err, segBytes)
	}

	pre, err := OpenSegments(preDir, segBytes, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pre.Close()
	ref, err := OpenSegments(refDir, segBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	preRecs, refRecs := collect(t, pre, 0), collect(t, ref, 0)
	if len(preRecs) != 20 {
		t.Fatalf("preallocated recovery found %d records, want 20", len(preRecs))
	}
	if !reflect.DeepEqual(preRecs, refRecs) {
		t.Fatalf("recoveries differ:\npreallocated %+v\nunallocated  %+v", preRecs, refRecs)
	}
	if pre.End() != ref.End() {
		t.Fatalf("End differs: preallocated %d, unallocated %d", pre.End(), ref.End())
	}
	// Appending after recovery resumes inside the re-extended segment and
	// stays readable.
	rec := Record{LSN: pre.End(), XID: 6, Type: RecCommit}
	if err := writeRecord(pre, rec); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, pre, 0); len(got) != 21 || got[20].XID != 6 {
		t.Fatalf("post-recovery append read back %d records", len(got))
	}
}

// TestZeroTailCutoffOnUnpreallocatedSegment pins the scan cutoff in
// isolation: zeros appended past the valid frames of a live segment (a torn
// pad write, or a preallocated tail) never count as payload and are trimmed
// at reopen.
func TestZeroTailCutoffOnUnpreallocatedSegment(t *testing.T) {
	dir := t.TempDir()
	segs, err := OpenSegments(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{LSN: 1, XID: 1, Type: RecInsert, After: []byte("abc")}
	if err := writeRecord(segs, rec); err != nil {
		t.Fatal(err)
	}
	end := segs.End()
	segs.Crash()
	files := segFiles(t, dir)
	f, err := os.OpenFile(files[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	reopened, err := OpenSegments(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.End(); got != end {
		t.Fatalf("End after zero tail = %d, want %d", got, end)
	}
	if got := collect(t, reopened, 0); len(got) != 1 || got[0].LSN != 1 {
		t.Fatalf("read back %+v", got)
	}
}

// TestVectoredFlushOneWritePerCycle is the acceptance check for the vectored
// flush path: with no rotations, every data-carrying group-commit cycle must
// reach the segment sink as exactly one physical write submission.
func TestVectoredFlushOneWritePerCycle(t *testing.T) {
	dir := t.TempDir()
	segs, err := OpenSegments(dir, 0, false) // default (large) rotation size
	if err != nil {
		t.Fatal(err)
	}
	l := New(Config{Durable: segs, DropAfterFlush: true})
	for i := 0; i < 10; i++ {
		lsns := appendN(t, l, uint64(i), 5)
		if err := l.Flush(lsns[4]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ts, ss := l.TailStats(), segs.Stats()
	if ss.Rotations != 1 { // the initial segment's creation, nothing more
		t.Fatalf("unexpected rotations: %d", ss.Rotations)
	}
	if ts.FlushCycles < 10 {
		t.Fatalf("flush cycles = %d, want at least one per Flush", ts.FlushCycles)
	}
	if ss.Writes != ts.FlushCycles {
		t.Fatalf("writes = %d over %d cycles, want exactly one write per cycle", ss.Writes, ts.FlushCycles)
	}
	if got := collect(t, segs, 0); len(got) != 50 {
		t.Fatalf("read back %d records, want 50", len(got))
	}
}

// TestFenceWaitStatsAndDelivery checks the append-wait accounting: timed
// appends charge their reservation and their publish to the reserve-wait and
// fence-wait stats, and every record is still delivered (the fuzz harness
// covers the hard interleavings).
func TestFenceWaitStatsAndDelivery(t *testing.T) {
	sink := &captureSink{}
	l := New(Config{Durable: sink, DropAfterFlush: true})
	var last LSN
	for i := 0; i < 25; i++ {
		lsn, w, err := l.AppendTimed(Record{XID: 3, Type: RecInsert, Table: 1, After: []byte("payload-payload")})
		if err != nil {
			t.Fatal(err)
		}
		if w.Reserve < 0 || w.BufferFull != 0 {
			t.Fatalf("append %d waits = %+v, want non-negative reserve and no buffer-full wait", i, w)
		}
		last = lsn
	}
	if err := l.Flush(last); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if ts := l.TailStats(); ts.FenceWait <= 0 || ts.ReserveWait <= 0 {
		t.Fatalf("fence wait %v, reserve wait %v: want timed appends counted in both", ts.FenceWait, ts.ReserveWait)
	}
	if recs := decodeAll(t, sink.bytes(), 1); len(recs) != 25 {
		t.Fatalf("delivered %d records, want 25", len(recs))
	}
}

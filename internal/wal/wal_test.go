package wal

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func sampleRecord() Record {
	return Record{
		XID:    42,
		Type:   RecUpdate,
		Table:  7,
		Page:   123456,
		Slot:   3,
		Before: []byte("old value"),
		After:  []byte("new value"),
	}
}

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	rec := sampleRecord()
	rec.LSN = 99 // not serialized: the LSN is the frame's position, not data
	data := rec.Encode()
	got, n, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) {
		t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
	}
	want := rec
	want.LSN = 0
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestEncodedSizeIndependentOfLSN pins the property the fetch-and-add
// reservation depends on: a frame's size must not vary with its address,
// or reservations could not be sized before the offset is claimed.
func TestEncodedSizeIndependentOfLSN(t *testing.T) {
	rec := sampleRecord()
	base := rec.EncodedSize()
	for _, lsn := range []LSN{0, 1, 1 << 20, 1 << 40, 1<<63 - 1} {
		rec.LSN = lsn
		if got := rec.EncodedSize(); got != base {
			t.Fatalf("EncodedSize at LSN %d = %d, want %d (size must not depend on LSN)", lsn, got, base)
		}
		if got := len(rec.Encode()); got != base {
			t.Fatalf("Encode at LSN %d produced %d bytes, want %d", lsn, got, base)
		}
	}
}

func TestRecordDecodeFromStream(t *testing.T) {
	var buf bytes.Buffer
	recs := []Record{
		{XID: 1, Type: RecBegin},
		{XID: 1, Type: RecInsert, Table: 3, Page: 4, Slot: 5, After: []byte("x")},
		{XID: 1, Type: RecCommit},
	}
	for _, r := range recs {
		buf.Write(r.Encode())
	}
	reader := bytes.NewReader(buf.Bytes())
	for i := range recs {
		got, err := DecodeFrom(reader)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, recs[i]) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got, recs[i])
		}
	}
	if _, err := DecodeFrom(reader); err == nil {
		t.Fatal("expected EOF-ish error at end of stream")
	}
}

// TestDecodeSkipsPadding pins the padding contract: zero bytes between
// frames (the log buffer's ring-wraparound filler, real bytes of the
// virtual log) are skipped by both decoders, and a stream of only padding
// is a clean EOF, not corruption.
func TestDecodeSkipsPadding(t *testing.T) {
	rec := sampleRecord()
	stream := append(bytes.Repeat([]byte{0}, 7), rec.Encode()...)
	got, n, err := Decode(stream)
	if err != nil || n != len(stream) {
		t.Fatalf("Decode over padding: n=%d err=%v", n, err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("padded round trip mismatch: %+v vs %+v", got, rec)
	}
	r := bytes.NewReader(stream)
	got2, pad, frame, err := decodeCounted(r)
	if err != nil || pad != 7 || frame != int64(rec.EncodedSize()) {
		t.Fatalf("decodeCounted over padding: pad=%d frame=%d err=%v", pad, frame, err)
	}
	if !reflect.DeepEqual(got2, rec) {
		t.Fatalf("decodeCounted mismatch: %+v", got2)
	}
	// Trailing padding then EOF is a clean boundary.
	if _, err := DecodeFrom(bytes.NewReader(bytes.Repeat([]byte{0}, 5))); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("padding-only stream: err = %v, want clean EOF", err)
	}
}

func TestRecordDecodeCorruption(t *testing.T) {
	data := sampleRecord().Encode()
	for cut := 1; cut < len(data)-1; cut++ {
		if _, _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := Decode(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestDecodeRejectsHugeLengthPrefixes pins the overflow guards found by
// FuzzRecordDecode (regression corpus in testdata/fuzz): a frame length or
// image length near 2^64 used to wrap negative in the int conversion and
// panic the slice expressions; both must decode as ErrCorrupt instead.
func TestDecodeRejectsHugeLengthPrefixes(t *testing.T) {
	// Frame length ≈ 2^63: a valid 10-byte uvarint far beyond the frame cap.
	hugeVarint := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if _, _, err := Decode(hugeVarint); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge frame length: err = %v, want ErrCorrupt", err)
	}
	// Valid frame whose body claims a ≈2^63-byte before-image.
	body := []byte{1, byte(RecUpdate), 0, 0, 0, 0} // XID, type, table, page, slot, undoNext
	body = append(body, hugeVarint...)             // before-image length
	frame := append([]byte{byte(len(body))}, body...)
	if _, _, err := Decode(frame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge image length: err = %v, want ErrCorrupt", err)
	}
}

func TestRecordEncodeDecodeQuick(t *testing.T) {
	f := func(xid uint64, table uint32, pageNo uint64, slot uint32, before, after []byte) bool {
		rec := Record{XID: xid, Type: RecUpdate, Table: table, Page: pageNo, Slot: slot, Before: before, After: after}
		if len(before) == 0 {
			rec.Before = nil
		}
		if len(after) == 0 {
			rec.After = nil
		}
		got, n, err := Decode(rec.Encode())
		return err == nil && n == len(rec.Encode()) && reflect.DeepEqual(rec, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCLRRoundTrip pins the compensation-record format: UndoNext survives
// both decoders, and a zero UndoNext (rollback complete) is preserved rather
// than conflated with "no field".
func TestCLRRoundTrip(t *testing.T) {
	for _, undoNext := range []LSN{0, 7, 1 << 40} {
		rec := Record{
			XID: 5, Type: RecCLR,
			Table: 2, Page: 9, Slot: 1,
			UndoNext: undoNext,
			Before:   []byte("compensated new"),
			After:    []byte("restored old"),
		}
		enc := rec.Encode()
		got, n, err := Decode(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("Decode: n=%d err=%v", n, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("CLR round trip mismatch:\nwant %+v\ngot  %+v", rec, got)
		}
		got2, err := DecodeFrom(bytes.NewReader(enc))
		if err != nil || !reflect.DeepEqual(rec, got2) {
			t.Fatalf("DecodeFrom mismatch (err=%v): %+v vs %+v", err, rec, got2)
		}
	}
}

func TestRecTypeStrings(t *testing.T) {
	for _, rt := range []RecType{RecBegin, RecInsert, RecUpdate, RecDelete, RecCommit, RecAbort, RecCreateTable, RecCreateIndex, RecCLR} {
		if rt.String() == "" {
			t.Fatalf("empty name for %d", rt)
		}
	}
	if RecType(99).String() == "" {
		t.Fatal("unknown type should still render")
	}
}

// TestAppendAssignsByteOffsetLSNs pins the new addressing: each record's LSN
// is the byte offset of its frame, so consecutive appends differ by exactly
// the previous record's encoded size (no wraparound in a fresh big buffer).
func TestAppendAssignsByteOffsetLSNs(t *testing.T) {
	l := New(Config{})
	rec := Record{XID: 1, Type: RecInsert}
	want := LSN(1) // the virtual log begins at offset 1
	for i := 0; i < 10; i++ {
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != want {
			t.Fatalf("append %d: LSN %d, want byte offset %d", i, lsn, want)
		}
		want = want.Advance(int64(rec.EncodedSize()))
	}
	if got := l.PendingBytes(); got != want.Distance(1) {
		t.Fatalf("pending = %d bytes, want %d", got, want.Distance(1))
	}
	if got := l.LastLSN(); got != want {
		t.Fatalf("LastLSN = %d, want end offset %d", got, want)
	}
}

func TestFlushMakesRecordsDurable(t *testing.T) {
	sink := &captureSink{}
	l := New(Config{Durable: sink})
	lsn, _ := l.Append(Record{XID: 1, Type: RecBegin})
	lsn2, _ := l.Append(Record{XID: 1, Type: RecCommit})
	if l.DurableLSN() > lsn {
		t.Fatal("nothing should be durable before flush")
	}
	if err := l.Flush(lsn2); err != nil {
		t.Fatal(err)
	}
	if l.DurableLSN() <= lsn2 || l.DurableLSN() <= lsn {
		t.Fatalf("durable watermark = %d, want > %d", l.DurableLSN(), lsn2)
	}
	if got := len(l.Records()); got != 2 {
		t.Fatalf("flushed records = %d, want 2", got)
	}
	// The sink content must decode back to the same records.
	reader := bytes.NewReader(sink.bytes())
	r1, err := DecodeFrom(reader)
	if err != nil || r1.Type != RecBegin {
		t.Fatalf("sink record 1: %+v, %v", r1, err)
	}
	r2, err := DecodeFrom(reader)
	if err != nil || r2.Type != RecCommit {
		t.Fatalf("sink record 2: %+v, %v", r2, err)
	}
}

func TestFlushIdempotentAndOrdered(t *testing.T) {
	l := New(Config{})
	lsn1, _ := l.Append(Record{XID: 1, Type: RecBegin})
	if err := l.Flush(lsn1); err != nil {
		t.Fatal(err)
	}
	// Flushing an already-durable LSN returns immediately.
	if err := l.Flush(lsn1); err != nil {
		t.Fatal(err)
	}
	lsn2, _ := l.Append(Record{XID: 2, Type: RecBegin})
	if err := l.Flush(lsn2); err != nil {
		t.Fatal(err)
	}
	recs := l.Records()
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatal("flushed records out of LSN order")
		}
	}
}

func TestGroupCommitBatchesConcurrentCommitters(t *testing.T) {
	l := New(Config{FlushDelay: 3 * time.Millisecond})
	const committers = 16
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(xid uint64) {
			defer wg.Done()
			lsn, err := l.Append(Record{XID: xid, Type: RecCommit})
			if err != nil {
				t.Error(err)
				return
			}
			if err := l.Flush(lsn); err != nil {
				t.Error(err)
			}
		}(uint64(i))
	}
	wg.Wait()
	elapsed := time.Since(start)
	_, flushes, synced := l.StatsSnapshot()
	if synced != committers {
		t.Fatalf("synced = %d, want %d", synced, committers)
	}
	if flushes >= committers {
		t.Fatalf("group commit did not batch: %d flushes for %d committers", flushes, committers)
	}
	// Without batching this would take committers * delay ≈ 48ms.
	if elapsed > 40*time.Millisecond {
		t.Logf("warning: group commit slower than expected: %v (%d flushes)", elapsed, flushes)
	}
}

func TestCloseFlushesAndRejectsFurtherAppends(t *testing.T) {
	l := New(Config{})
	l.Append(Record{XID: 1, Type: RecBegin})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.PendingBytes() != 0 {
		t.Fatal("Close did not flush pending records")
	}
	if _, err := l.Append(Record{XID: 2, Type: RecBegin}); err == nil {
		t.Fatal("append after close accepted")
	}
	if err := l.Flush(1 << 30); err == nil {
		t.Fatal("flush beyond durable watermark after close should fail")
	}
}

func TestDropAfterFlush(t *testing.T) {
	l := New(Config{DropAfterFlush: true})
	lsn, _ := l.Append(Record{XID: 1, Type: RecBegin})
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	if len(l.Records()) != 0 {
		t.Fatal("DropAfterFlush retained records in memory")
	}
}

func TestFlushAsyncAcknowledgesDurability(t *testing.T) {
	l := New(Config{FlushDelay: time.Millisecond})
	lsn1, _ := l.Append(Record{XID: 1, Type: RecCommit})
	lsn2, _ := l.Append(Record{XID: 2, Type: RecCommit})
	ack1 := l.FlushAsync(lsn1)
	ack2 := l.FlushAsync(lsn2)
	if err := <-ack2; err != nil {
		t.Fatal(err)
	}
	// Acks are delivered in LSN order: once lsn2 is acked, lsn1's ack must
	// already be in its buffered channel.
	select {
	case err := <-ack1:
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatal("ack for lower LSN not delivered before higher LSN's ack")
	}
	if l.DurableLSN() <= lsn2 {
		t.Fatalf("durable watermark = %d, want > %d", l.DurableLSN(), lsn2)
	}
	// Subscribing to an already-durable LSN resolves immediately.
	select {
	case err := <-l.FlushAsync(lsn1):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("FlushAsync on durable LSN did not resolve immediately")
	}
}

func TestCrashFailsWaitersAndDiscardsBuffer(t *testing.T) {
	// A slow simulated force guarantees the crash lands before the sync.
	l := New(Config{FlushDelay: 200 * time.Millisecond})
	lsn, _ := l.Append(Record{XID: 1, Type: RecCommit})
	ack := l.FlushAsync(lsn)
	l.Crash()
	select {
	case err := <-ack:
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("ack err = %v, want ErrCrashed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("crash did not fail the pending flush subscription")
	}
	if l.DurableLSN() > lsn {
		t.Fatal("crashed log reported the unsynced record durable")
	}
	if _, err := l.Append(Record{XID: 2, Type: RecBegin}); err == nil {
		t.Fatal("append after crash accepted")
	}
	if err := <-l.FlushAsync(lsn); !errors.Is(err, ErrCrashed) {
		t.Fatalf("FlushAsync after crash = %v, want ErrCrashed", err)
	}
}

// TestCrashInsideFlushDelayReachesNoSink pins where the simulated force
// latency sits in a cycle: after the consume, before the write. A crash while
// the cycle sleeps must leave its batch off the sink, as a crash before a
// real write would.
func TestCrashInsideFlushDelayReachesNoSink(t *testing.T) {
	sink := &captureSink{}
	l := New(Config{Durable: sink, FlushDelay: 200 * time.Millisecond})
	lsn, err := l.Append(Record{XID: 1, Type: RecCommit})
	if err != nil {
		t.Fatal(err)
	}
	ack := l.FlushAsync(lsn)
	time.Sleep(20 * time.Millisecond) // the cycle has consumed the record and is inside the delay
	l.Crash()
	select {
	case err := <-ack:
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("ack err = %v, want ErrCrashed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("crash did not fail the pending flush subscription")
	}
	if n := len(sink.bytes()); n != 0 {
		t.Fatalf("sink holds %d bytes, want the crashed batch kept off it", n)
	}
	if l.DurableLSN() > lsn {
		t.Fatal("crashed log reported the unwritten record durable")
	}
}

func TestErrCorruptIsSentinel(t *testing.T) {
	_, _, err := Decode([]byte{0x05, 0x01})
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

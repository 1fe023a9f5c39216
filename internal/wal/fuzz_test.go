package wal

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// FuzzRecordRoundTrip builds a record from fuzzed fields, encodes it, and
// requires decoding to return the identical record with nothing left over.
// The LSN field is deliberately NOT round-tripped: frames carry no LSN (the
// address is the frame's position), so whatever LSN the record was built
// with, the decoded record's LSN is zero.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(42), byte(RecUpdate), uint32(3), uint64(9), uint32(4), uint64(0), []byte("before"), []byte("after"))
	f.Add(uint64(0), uint64(0), byte(RecBegin), uint32(0), uint64(0), uint32(0), uint64(0), []byte(nil), []byte(nil))
	f.Add(uint64(1<<63), uint64(1<<62), byte(RecCreateTable), uint32(1<<31), uint64(1)<<60, uint32(7), uint64(0), []byte{0, 0xff}, bytes.Repeat([]byte{0xaa}, 300))
	f.Add(uint64(17), uint64(9), byte(RecCLR), uint32(2), uint64(5), uint32(1), uint64(12), []byte("new"), []byte("old"))
	f.Fuzz(func(t *testing.T, lsn, xid uint64, typ byte, table uint32, page uint64, slot uint32, undoNext uint64, before, after []byte) {
		in := Record{
			LSN: LSN(lsn), XID: xid, Type: RecType(typ),
			Table: table, Page: page, Slot: slot,
			UndoNext: LSN(undoNext),
			Before:   before, After: after,
		}
		// The LSN is positional, not data; Decode also normalizes empty
		// images to nil. Mirror both for comparison.
		want := in
		want.LSN = 0
		if len(want.Before) == 0 {
			want.Before = nil
		}
		if len(want.After) == 0 {
			want.After = nil
		}
		enc := in.Encode()
		if got := in.EncodedSize(); got != len(enc) {
			t.Fatalf("EncodedSize %d != len(Encode) %d", got, len(enc))
		}
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)) failed: %v", in, err)
		}
		if n != len(enc) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(enc))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", want, got)
		}
		// The streaming decoder must agree with the slice decoder.
		got2, err := DecodeFrom(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("DecodeFrom failed: %v", err)
		}
		if !reflect.DeepEqual(got2, want) {
			t.Fatalf("DecodeFrom mismatch: %+v vs %+v", got2, want)
		}
	})
}

// FuzzConcurrentReserveFillPublish drives the consolidated log buffer with
// fuzzed concurrency parameters — appender count, records per appender,
// payload sizes, buffer size — and requires every record to round-trip
// byte-identically from the range-written stream at exactly the byte-offset
// LSN its Append returned. This is the torture harness for the
// reserve/fill/publish protocol: wraparound padding, buffer-full waits,
// out-of-order publication and flusher consumption all happen here depending
// on the fuzzed shape, and the publish fence may never expose unfilled bytes
// to the flusher (which would surface here as a decode failure or mismatch).
func FuzzConcurrentReserveFillPublish(f *testing.F) {
	f.Add(uint8(4), uint8(50), uint16(64), uint16(7), uint16(4096))
	f.Add(uint8(1), uint8(1), uint16(0), uint16(0), uint16(0))
	f.Add(uint8(8), uint8(30), uint16(900), uint16(333), uint16(5000))
	f.Add(uint8(2), uint8(30), uint16(900), uint16(333), uint16(5000))
	f.Add(uint8(8), uint8(30), uint16(900), uint16(333), uint16(16384))
	f.Add(uint8(6), uint8(40), uint16(200), uint16(90), uint16(4096))
	f.Add(uint8(5), uint8(20), uint16(128), uint16(48), uint16(4096))
	f.Fuzz(func(t *testing.T, appenders, perAppender uint8, sizeA, sizeB, bufBytes uint16) {
		nApp := int(appenders)%8 + 1
		nRec := int(perAppender)%64 + 1
		sink := &captureSink{}
		l := New(Config{
			Durable:     sink,
			BufferBytes: int64(bufBytes), // clamped to the minimum internally
		})
		var mu sync.Mutex
		want := make(map[LSN]Record)
		var wg sync.WaitGroup
		for g := 0; g < nApp; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < nRec; i++ {
					// Alternate the fuzzed payload sizes so reservation sizes
					// vary within one run.
					size := int(sizeA) % 1024
					if i%2 == 1 {
						size = int(sizeB) % 1024
					}
					rec := Record{
						XID:   uint64(g)<<32 | uint64(i),
						Type:  RecUpdate,
						Table: uint32(g),
						Page:  uint64(i),
						After: bytes.Repeat([]byte{byte(g*37 + i)}, size),
					}
					lsn, err := l.Append(rec)
					if err != nil {
						t.Errorf("append: %v", err)
						return
					}
					rec.LSN = lsn
					if len(rec.After) == 0 {
						rec.After = nil // decodeBody normalizes empty to nil
					}
					mu.Lock()
					want[lsn] = rec
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got := decodeAll(t, sink.bytes(), 1)
		if len(got) != nApp*nRec {
			t.Fatalf("decoded %d records, want %d", len(got), nApp*nRec)
		}
		for _, rec := range got {
			w, ok := want[rec.LSN]
			if !ok {
				t.Fatalf("no record appended at offset %d", rec.LSN)
			}
			if !reflect.DeepEqual(rec, w) {
				t.Fatalf("LSN %d mismatch:\nwant %+v\ngot  %+v", rec.LSN, w, rec)
			}
		}
	})
}

// FuzzLogMatchesReference is the log's differential fuzz target: a
// deterministic (single-goroutine) sequence of fuzzed record sizes is
// appended to the log, and its stream must be
// bit-identical to referenceLog's — same frames, same wraparound padding,
// same offsets — with every returned LSN equal to the reference's.
func FuzzLogMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint16(4096))
	f.Add([]byte{255, 0, 17, 99, 200, 5}, uint16(5000))
	f.Add(bytes.Repeat([]byte{251}, 40), uint16(0))
	f.Add([]byte{9, 40, 80, 120, 7, 7, 7, 33}, uint16(4096))
	f.Fuzz(func(t *testing.T, sizes []byte, bufBytes uint16) {
		if len(sizes) > 512 {
			sizes = sizes[:512]
		}
		sink := &captureSink{}
		l := New(Config{Durable: sink, BufferBytes: int64(bufBytes)})
		var recs []Record
		var lsns []LSN
		for i, sz := range sizes {
			rec := Record{XID: uint64(i), Type: RecInsert, Table: 1, Page: uint64(sz),
				After: bytes.Repeat([]byte{sz}, int(sz)*3)}
			lsn, err := l.Append(rec)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
			lsns = append(lsns, lsn)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		stream, refLSNs := referenceLog(recs, l.lb.size)
		if !bytes.Equal(sink.bytes(), stream) {
			t.Fatal("log stream differs from the reference stream")
		}
		if !reflect.DeepEqual(lsns, refLSNs) {
			t.Fatalf("log LSNs %v differ from reference LSNs %v", lsns, refLSNs)
		}
	})
}

// FuzzRecordDecode feeds arbitrary bytes to the decoder: it must never
// panic, and anything it accepts must re-encode to a decodable record.
func FuzzRecordDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Record{XID: 1, Type: RecCommit}.Encode())
	f.Add(Record{XID: 3, Type: RecCLR, Table: 1, UndoNext: 6, After: []byte("img")}.Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(append(bytes.Repeat([]byte{0}, 9), Record{XID: 1, Type: RecBegin}.Encode()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode reported %d consumed bytes of %d", n, len(data))
		}
		re := rec.Encode()
		rec2, _, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encode of accepted record failed to decode: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("re-encode changed record: %+v vs %+v", rec, rec2)
		}
	})
}

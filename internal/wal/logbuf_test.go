package wal

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// captureSink is an in-memory DurableSink that records exactly the bytes it
// was handed, so tests can assert that the log's range writes are
// byte-identical to the records' encodings laid out at their byte-offset
// LSNs.
type captureSink struct {
	mu   sync.Mutex
	data bytes.Buffer
}

func (c *captureSink) WriteRanges(ranges []Range) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range ranges {
		c.data.Write(r.Data)
	}
	return nil
}

func (c *captureSink) Sync() error { return nil }

func (c *captureSink) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.data.Bytes()...)
}

// referenceLog is the specification of the byte stream one appender
// produces: frames back to back from offset 1, except that a frame which
// would cross a multiple of ringBytes (the ring's physical end) starts at
// that multiple instead, the skipped bytes being zero padding. It returns
// the stream and every record's LSN — the byte offset of its frame.
func referenceLog(recs []Record, ringBytes int64) ([]byte, []LSN) {
	var stream []byte
	var lsns []LSN
	at := int64(1)
	for _, r := range recs {
		frame := r.Encode()
		if end := (at/ringBytes + 1) * ringBytes; at+int64(len(frame)) > end {
			stream = append(stream, make([]byte, end-at)...)
			at = end
		}
		lsns = append(lsns, LSN(at))
		stream = append(stream, frame...)
		at += int64(len(frame))
	}
	return stream, lsns
}

// decodeAll decodes every frame in data — a contiguous slice of the virtual
// log starting at offset base — assigning each record its byte-offset LSN,
// and failing the test on any error or trailing garbage.
func decodeAll(t *testing.T, data []byte, base LSN) []Record {
	t.Helper()
	var out []Record
	reader := bytes.NewReader(data)
	at := base
	for {
		rec, pad, frame, err := decodeCounted(reader, nil)
		if err != nil {
			break
		}
		rec.LSN = at.Advance(int64(pad))
		at = at.Advance(int64(pad + frame))
		out = append(out, rec)
	}
	if reader.Len() != 0 {
		t.Fatalf("%d undecodable trailing bytes in sink stream", reader.Len())
	}
	return out
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	cases := []Record{
		{},
		{XID: 1, Type: RecBegin},
		{XID: 1 << 50, Type: RecUpdate, Table: 1 << 20, Page: 1 << 55, Slot: 1 << 30,
			Before: bytes.Repeat([]byte{0xab}, 300), After: bytes.Repeat([]byte{0xcd}, 7)},
		sampleRecord(),
	}
	for i, rec := range cases {
		enc := rec.Encode()
		if got := rec.EncodedSize(); got != len(enc) {
			t.Fatalf("case %d: EncodedSize = %d, Encode produced %d bytes", i, got, len(enc))
		}
		buf := make([]byte, rec.EncodedSize())
		if n := rec.EncodeTo(buf); n != len(enc) || !bytes.Equal(buf[:n], enc) {
			t.Fatalf("case %d: EncodeTo produced different bytes than Encode", i)
		}
	}
}

// verifyStream checks that the sink stream decodes to exactly the appended
// records, each at the byte-offset LSN Append returned, with nothing extra.
func verifyStream(t *testing.T, data []byte, want map[LSN]Record) {
	t.Helper()
	got := decodeAll(t, data, 1)
	if len(got) != len(want) {
		t.Fatalf("sink decoded %d records, want %d", len(got), len(want))
	}
	for _, rec := range got {
		w, ok := want[rec.LSN]
		if !ok {
			t.Fatalf("no record was appended at offset %d", rec.LSN)
		}
		if !reflect.DeepEqual(rec, w) {
			t.Fatalf("LSN %d round-trip mismatch:\nwant %+v\ngot  %+v", rec.LSN, w, rec)
		}
		if !bytes.Equal(rec.Encode(), w.Encode()) {
			t.Fatalf("LSN %d not byte-identical through the shared buffer", rec.LSN)
		}
	}
}

// TestConsolidatedConcurrentAppendsRoundTrip is the core reserve/fill/publish
// correctness test for the fetch-and-add protocol: many appenders race into a
// small buffer (forcing ring wraparound padding and buffer-full waits), and
// the stream handed to the sink must decode to exactly the records appended,
// each at the byte offset its Append returned. The subtest keeps the name it
// had when a latched arm ran beside it; fetch-and-add is now the only arm.
func TestConsolidatedConcurrentAppendsRoundTrip(t *testing.T) {
	t.Run("latched=false", testConcurrentAppendsRoundTrip)
}

func testConcurrentAppendsRoundTrip(t *testing.T) {
	sink := &captureSink{}
	l := New(Config{Durable: sink, BufferBytes: 8 << 10})
	const (
		appenders  = 8
		perAppend  = 200
		totalRecs  = appenders * perAppend
		maxPayload = 200
	)
	var mu sync.Mutex
	want := make(map[LSN]Record, totalRecs)
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perAppend; i++ {
				rec := Record{
					XID:   uint64(g + 1),
					Type:  RecUpdate,
					Table: uint32(g),
					Page:  uint64(i),
					Slot:  uint32(i % 7),
					After: bytes.Repeat([]byte{byte(g)}, 1+(g*31+i*17)%maxPayload),
				}
				lsn, err := l.Append(rec)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				rec.LSN = lsn
				mu.Lock()
				want[lsn] = rec
				mu.Unlock()
				// Subscribe occasionally so flushing interleaves with appends.
				if i%32 == 0 {
					//slint:ignore errwedge the subscription only interleaves flushing with appends; the ack is irrelevant
					l.FlushAsync(lsn)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	verifyStream(t, sink.bytes(), want)
	if got, wantEnd := l.DurableLSN(), l.LastLSN(); got != wantEnd {
		t.Fatalf("DurableLSN = %d, want the drained end %d", got, wantEnd)
	}
}

// TestConsolidatedBackpressureDrainsWithoutSubscriptions pins the pressure
// path: a single appender writing more bytes than the buffer holds — with no
// durability subscription anywhere — must not deadlock; blocked reservations
// kick the flusher directly.
func TestConsolidatedBackpressureDrainsWithoutSubscriptions(t *testing.T) {
	sink := &captureSink{}
	l := New(Config{Durable: sink, BufferBytes: 4 << 10})
	payload := bytes.Repeat([]byte{0x5a}, 512)
	const n = 64 // 64 * ~520B is several times the buffer
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := l.Append(Record{XID: 1, Type: RecInsert, After: payload}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("appends deadlocked on a full buffer with no flush subscription")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := decodeAll(t, sink.bytes(), 1); len(got) != n {
		t.Fatalf("sink decoded %d records, want %d", len(got), n)
	}
}

// TestWraparoundMatchesReference pins padding placement on a tiny ring: a
// deterministic single-threaded append sequence wraps the ring many times,
// and the stream the sink receives — padding bytes included — and every
// returned LSN must equal the reference stream exactly.
func TestWraparoundMatchesReference(t *testing.T) {
	sink := &captureSink{}
	l := New(Config{Durable: sink, BufferBytes: 4 << 10})
	var recs []Record
	var lsns []LSN
	frames := 0
	for i := 0; i < 400; i++ {
		rec := Record{XID: uint64(i), Type: RecUpdate, Table: 3, Page: uint64(i),
			After: bytes.Repeat([]byte{byte(i)}, (i*37)%257)}
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		lsns = append(lsns, lsn)
		frames += rec.EncodedSize()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stream, wantLSNs := referenceLog(recs, 4<<10)
	if len(stream) == frames {
		t.Fatal("reference stream has no wraparound padding; the test pins nothing")
	}
	if !bytes.Equal(sink.bytes(), stream) {
		t.Fatal("log stream differs from the reference stream")
	}
	if !reflect.DeepEqual(lsns, wantLSNs) {
		t.Fatal("appended LSNs differ from the reference LSNs")
	}
}

// TestFlushAsyncReopenEdge pins the clamp-then-recheck fix: on a log
// reopened at StartLSN with nothing appended yet, subscriptions at or below
// the recovered durable prefix — and subscriptions beyond the last append,
// which clamp down to it — must acknowledge immediately instead of
// registering a waiter that no flush cycle ever satisfies. The subtest keeps
// the name it had when a mutex-log arm ran beside it.
func TestFlushAsyncReopenEdge(t *testing.T) {
	t.Run("mutexLog=false", testFlushAsyncReopenEdge)
}

func testFlushAsyncReopenEdge(t *testing.T) {
	l := New(Config{StartLSN: 100})
	for _, upTo := range []LSN{0, 1, 50, 99, 100, 1000} {
		select {
		case err := <-l.FlushAsync(upTo):
			if err != nil {
				t.Fatalf("FlushAsync(%d) on reopened empty log: %v", upTo, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("FlushAsync(%d) on reopened empty log never acked (head == StartLSN edge)", upTo)
		}
	}
	// The log still works normally past the recovered prefix.
	lsn, err := l.Append(Record{XID: 1, Type: RecCommit})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 100 {
		t.Fatalf("first LSN after reopen = %d, want 100", lsn)
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseRacingAppendsNeverLosesAcceptedRecord pins Close's contract
// against the lock-free reservation: an Append racing Close either fails
// (and leaves no record — the claim, if any, is padded out) or succeeds and
// its record is in the sink when Close returns. The race window is a few
// instructions wide (between reserveAtomic's wedge check and its CAS), so
// hammer it.
func TestCloseRacingAppendsNeverLosesAcceptedRecord(t *testing.T) {
	for round := 0; round < 50; round++ {
		sink := &captureSink{}
		l := New(Config{Durable: sink, BufferBytes: 8 << 10})
		const appenders = 4
		accepted := make([]map[LSN]Record, appenders)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < appenders; g++ {
			accepted[g] = make(map[LSN]Record)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					rec := Record{XID: uint64(g + 1), Type: RecInsert, Page: uint64(i), After: []byte{byte(g), byte(i)}}
					lsn, err := l.Append(rec)
					if err != nil {
						return
					}
					rec.LSN = lsn
					accepted[g][lsn] = rec
					select {
					case <-stop:
						return
					default:
					}
				}
			}(g)
		}
		// Let the appenders get going, then slam the door.
		time.Sleep(200 * time.Microsecond)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		got := decodeAll(t, sink.bytes(), 1)
		have := make(map[LSN]Record, len(got))
		for _, r := range got {
			have[r.LSN] = r
		}
		for g := range accepted {
			for lsn, want := range accepted[g] {
				r, ok := have[lsn]
				if !ok {
					t.Fatalf("round %d: Append returned (lsn=%d, nil) but Close did not drain the record", round, lsn)
				}
				if !reflect.DeepEqual(r, want) {
					t.Fatalf("round %d: drained record at %d differs: %+v vs %+v", round, lsn, r, want)
				}
			}
		}
	}
}

// stuckSink parks the flusher inside its first write until released, keeping
// the buffer full so tests can observe reservers blocked on space.
type stuckSink struct {
	release chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (s *stuckSink) WriteRanges([]Range) error {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return nil
}

func (s *stuckSink) Sync() error { return nil }

// TestConsolidatedCrashFailsBlockedReservers: a reserver blocked on a full
// buffer must wake with the crash error, not hang — even while the flusher
// is wedged inside a sink write and can never drain. The CAS-loop design
// makes this clean: a waiting reserver holds no claim, so failing it leaves
// no hole in the publish fence. The subtest keeps the name it had when a
// latched arm ran beside it.
func TestConsolidatedCrashFailsBlockedReservers(t *testing.T) {
	t.Run("latched=false", testCrashFailsBlockedReservers)
}

func testCrashFailsBlockedReservers(t *testing.T) {
	sink := &stuckSink{release: make(chan struct{}), entered: make(chan struct{})}
	defer close(sink.release)
	l := New(Config{BufferBytes: 4 << 10, Durable: sink})
	payload := bytes.Repeat([]byte{1}, 1024)
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < 16; i++ {
			if _, err := l.Append(Record{XID: 1, Type: RecInsert, After: payload}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	// Wait for the flusher to wedge in the sink, then give the appender time
	// to refill the buffer and block on space that will never be released.
	select {
	case <-sink.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never reached the sink")
	}
	time.Sleep(50 * time.Millisecond)
	l.Crash()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("blocked reserver got %v, want ErrCrashed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reserver stayed blocked across Crash")
	}
}

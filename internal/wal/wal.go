// Package wal implements the write-ahead log: log sequence numbers, typed
// log records with binary encoding, an append buffer, and group commit.
//
// The log is the other classic centralized service of a storage manager
// (besides the lock manager this paper targets); it is implemented here so
// that transactions pay a realistic logging cost — append per update plus a
// group-commit flush at commit — and so that aborts can be rolled back from
// the recorded before-images.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LSN is a log sequence number. Since the byte-offset refactor it is not a
// record counter but the byte offset of the record's frame in the virtual
// log — the single monotonically growing byte address space that the log
// buffer, the on-disk segment files and the recovery passes all share. The
// virtual log begins at offset 1, so LSN 0 remains the "no LSN" sentinel.
//
// Making the LSN the byte offset is what collapses log reservation to a
// single fetch-and-add (Aether's design): assigning an LSN and assigning
// buffer space become the same operation. The cost is that LSNs are ordered
// but not dense — consumers may compare LSNs, never count them. Frames do
// not embed their LSN; a record's address is implied by its position, and
// every decoder that reads a positioned stream (the segment scanner, the
// flusher) assigns LSNs from offsets.
type LSN uint64

// The three methods below are the only sanctioned spellings of LSN
// arithmetic; everything else is flagged by the densearith analyzer
// (cmd/slint). Keeping the byte math behind named helpers is what lets the
// analyzer distinguish "moving through the virtual address space" from the
// dense-LSN bugs the PR 5 sweep hunted down.

// Advance returns the LSN n bytes further into the virtual log: the address
// of the frame that starts n encoded bytes past l.
func (l LSN) Advance(n int64) LSN { return l + LSN(n) }

// Next returns the smallest LSN strictly above l. It is NOT "the next
// record" — no record starts at l.Next() — but it is exactly the flush
// watermark that covers the frame starting at l, since watermarks only stop
// at frame boundaries.
func (l LSN) Next() LSN { return l + 1 }

// Distance returns how many bytes of virtual log separate l from from
// (negative when from is above l).
func (l LSN) Distance(from LSN) int64 { return int64(l) - int64(from) }

// RecType identifies the kind of a log record.
type RecType uint8

// Log record types.
const (
	// RecBegin marks the start of a transaction.
	RecBegin RecType = iota + 1
	// RecInsert records a newly inserted record (after-image only).
	RecInsert
	// RecUpdate records an update (before- and after-image).
	RecUpdate
	// RecDelete records a deletion (before-image only).
	RecDelete
	// RecCommit marks a transaction commit; it must be durable before the
	// transaction's effects are acknowledged.
	RecCommit
	// RecAbort marks a transaction abort after its undo completed.
	RecAbort
	// RecCreateTable records table DDL (After holds the encoded table
	// metadata). DDL is non-transactional: XID is 0 and redo applies it
	// unconditionally.
	RecCreateTable
	// RecCreateIndex records secondary-index DDL (After holds the encoded
	// index metadata).
	RecCreateIndex
	// RecCLR is an ARIES-style compensation log record: the redo-only record
	// of one undo action performed during rollback. Its images describe the
	// compensating operation directly — Before+After means "update the row
	// matching Before's primary key back to After", After alone means
	// "re-insert After" (compensating a delete), Before alone means "delete
	// the row matching Before" (compensating an insert) — and UndoNext holds
	// the LSN of the next original record of the same transaction still to
	// be undone (0 when the rollback is complete). Restart redo replays CLRs
	// like any other data record; restart undo resumes an interrupted
	// rollback from the last durable CLR's UndoNext instead of re-undoing
	// work the CLR chain already compensated.
	RecCLR
)

// String returns the record type name.
func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecInsert:
		return "INSERT"
	case RecUpdate:
		return "UPDATE"
	case RecDelete:
		return "DELETE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecCreateTable:
		return "CREATE-TABLE"
	case RecCreateIndex:
		return "CREATE-INDEX"
	case RecCLR:
		return "CLR"
	default:
		return fmt.Sprintf("rectype(%d)", uint8(t))
	}
}

// Record is one write-ahead log record.
type Record struct {
	// LSN is the record's byte offset in the virtual log, assigned by the log
	// at append time. It is not serialized into the frame — the address is
	// implied by position — so decoders of positioned streams fill it in from
	// offsets, and Decode/DecodeFrom (which see bytes without an address)
	// leave it zero.
	LSN LSN
	// XID is the transaction that produced the record.
	XID uint64
	// Type is the record type.
	Type RecType
	// Table, Page and Slot locate the affected record for data records.
	Table uint32
	Page  uint64
	Slot  uint32
	// UndoNext is the rollback resume point carried by RecCLR records: the
	// LSN of the transaction's next still-to-be-undone data record, or 0
	// when this CLR compensated the transaction's first action (rollback
	// complete). Zero on every other record type.
	UndoNext LSN
	// Before is the before-image (updates and deletes).
	Before []byte
	// After is the after-image (inserts and updates).
	After []byte
}

// uvarintLen returns the number of bytes binary.PutUvarint uses for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// bodySize returns the size of the record body — everything inside the
// length-prefixed frame. The LSN is NOT part of the body: it is the frame's
// byte offset, implied by position.
func (r Record) bodySize() int {
	return uvarintLen(r.XID) + 1 +
		uvarintLen(uint64(r.Table)) + uvarintLen(r.Page) + uvarintLen(uint64(r.Slot)) +
		uvarintLen(uint64(r.UndoNext)) +
		uvarintLen(uint64(len(r.Before))) + len(r.Before) +
		uvarintLen(uint64(len(r.After))) + len(r.After)
}

// EncodedSize returns the exact number of bytes Encode and EncodeTo produce
// for the record, including the length-prefix frame. It does not depend on
// the LSN (frames carry no LSN), which is what lets the log buffer size a
// reservation before knowing its address — the precondition for reserving
// with a single fetch-and-add.
func (r Record) EncodedSize() int {
	body := r.bodySize()
	return uvarintLen(uint64(body)) + body
}

// EncodeTo serializes the record — body and length-prefix frame together —
// into buf, which must be at least EncodedSize() bytes, and returns the
// number of bytes written. It allocates nothing, so appenders can encode
// directly into the shared log buffer.
func (r Record) EncodeTo(buf []byte) int {
	pos := 0
	put := func(v uint64) { pos += binary.PutUvarint(buf[pos:], v) }
	put(uint64(r.bodySize()))
	put(r.XID)
	buf[pos] = byte(r.Type)
	pos++
	put(uint64(r.Table))
	put(r.Page)
	put(uint64(r.Slot))
	put(uint64(r.UndoNext))
	put(uint64(len(r.Before)))
	pos += copy(buf[pos:], r.Before)
	put(uint64(len(r.After)))
	pos += copy(buf[pos:], r.After)
	return pos
}

// Encode serializes the record to a compact binary form in a single
// pre-sized allocation.
func (r Record) Encode() []byte {
	buf := make([]byte, r.EncodedSize())
	return buf[:r.EncodeTo(buf)]
}

// ErrCorrupt is returned when a log record cannot be decoded.
var ErrCorrupt = errors.New("wal: corrupt log record")

// maxFrameBytes bounds a single record frame. Legitimate records are a few
// page-sized images plus headers — far below this — so any larger length
// prefix is corruption (e.g. garbage at a torn segment tail) and must not
// drive an allocation.
const maxFrameBytes = 1 << 20

// ByteReader is the reader interface required by DecodeFrom; *bufio.Reader
// and *bytes.Reader both satisfy it.
type ByteReader interface {
	io.Reader
	io.ByteReader
}

// DecodeFrom reads one framed record from r, skipping any padding bytes that
// precede it. It returns io.EOF only at a clean frame boundary; a partial or
// oversized frame decodes as ErrCorrupt. The returned record's LSN is zero —
// a raw byte stream carries no address; positioned readers (the segment
// scanner) assign LSNs from offsets.
func DecodeFrom(r ByteReader) (Record, error) {
	rec, _, _, err := decodeCounted(r)
	return rec, err
}

// decodeCounted reads one framed record, also reporting how many padding
// bytes preceded the frame and the frame's own size. It is the single
// streaming decoder for the on-disk format, shared by DecodeFrom and the
// segment scanner. Padding bytes are single 0x00 bytes — a zero-length frame
// — written by the log buffer at ring wraparound so that every byte of the
// virtual log, padding included, has a stable offset on disk; io.EOF after
// only padding is a clean boundary.
func decodeCounted(r ByteReader) (rec Record, pad, frame int64, err error) {
	var length uint64
	for {
		lengthBytes := 0
		length, err = readUvarintCounted(r, &lengthBytes)
		if err != nil {
			if err == io.EOF && lengthBytes == 0 {
				return Record{}, pad, 0, io.EOF
			}
			return Record{}, pad, 0, ErrCorrupt
		}
		if length != 0 {
			frame = int64(lengthBytes)
			break
		}
		pad++
	}
	if length > maxFrameBytes {
		return Record{}, pad, 0, ErrCorrupt
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return Record{}, pad, 0, ErrCorrupt
	}
	rec, err = decodeBody(body)
	if err != nil {
		return Record{}, pad, 0, err
	}
	return rec, pad, frame + int64(length), nil
}

// readUvarintCounted is binary.ReadUvarint tracking consumed bytes.
func readUvarintCounted(r io.ByteReader, n *int) (uint64, error) {
	var x uint64
	var shift uint
	for i := 0; i < 10; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		*n++
		if b < 0x80 {
			if i == 9 && b > 1 {
				return 0, ErrCorrupt
			}
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, ErrCorrupt
}

// Decode parses a record from a byte slice produced by Encode, skipping any
// leading padding bytes, and returns the record and the number of bytes
// consumed (padding included). The record's LSN is zero; see DecodeFrom.
func Decode(data []byte) (Record, int, error) {
	skip := 0
	for skip < len(data) && data[skip] == 0 {
		skip++
	}
	length, n := binary.Uvarint(data[skip:])
	// The frame cap also guards the uint64→int conversion below: a garbage
	// length beyond 2^63 would convert negative and panic the slice bounds.
	if n <= 0 || length > maxFrameBytes || int(length) > len(data)-skip-n {
		return Record{}, 0, ErrCorrupt
	}
	rec, err := decodeBody(data[skip+n : skip+n+int(length)])
	return rec, skip + n + int(length), err
}

func decodeBody(body []byte) (Record, error) {
	var rec Record
	pos := 0
	get := func() (uint64, bool) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	xid, ok := get()
	if !ok {
		return rec, ErrCorrupt
	}
	if pos >= len(body) {
		return rec, ErrCorrupt
	}
	typ := RecType(body[pos])
	pos++
	table, ok := get()
	if !ok {
		return rec, ErrCorrupt
	}
	pageNo, ok := get()
	if !ok {
		return rec, ErrCorrupt
	}
	slot, ok := get()
	if !ok {
		return rec, ErrCorrupt
	}
	undoNext, ok := get()
	if !ok {
		return rec, ErrCorrupt
	}
	// Compare image lengths in uint64 space: converting a garbage length to
	// int first could wrap negative and panic the slice expressions.
	beforeLen, ok := get()
	if !ok || beforeLen > uint64(len(body)-pos) {
		return rec, ErrCorrupt
	}
	before := append([]byte(nil), body[pos:pos+int(beforeLen)]...)
	pos += int(beforeLen)
	afterLen, ok := get()
	if !ok || afterLen > uint64(len(body)-pos) {
		return rec, ErrCorrupt
	}
	after := append([]byte(nil), body[pos:pos+int(afterLen)]...)
	pos += int(afterLen)
	if pos != len(body) {
		return rec, ErrCorrupt
	}
	rec = Record{
		XID: xid, Type: typ,
		Table: uint32(table), Page: pageNo, Slot: uint32(slot),
		UndoNext: LSN(undoNext),
		Before:   before, After: after,
	}
	if len(rec.Before) == 0 {
		rec.Before = nil
	}
	if len(rec.After) == 0 {
		rec.After = nil
	}
	return rec, nil
}

// DurableSink is a stable-storage destination for the flushed log. Once per
// group-commit cycle the flusher hands it every contiguous range the cycle
// consumed from the log buffer — already-encoded frames plus any wraparound
// padding, in virtual-offset order — with one WriteRanges call, and then
// calls Sync — the single physical "force" of the group commit. Bytes are
// only counted as durable (and DurableLSN advanced) after Sync returns nil.
// Segments implements DurableSink on a directory of on-disk segment files.
type DurableSink interface {
	// WriteRanges persists one cycle's ranges. Because LSNs are byte
	// offsets, each range's First places and addresses every frame in it.
	// The ranges alias the log buffer and must not be retained after the
	// call returns.
	WriteRanges(ranges []Range) error
	// Sync forces previously written ranges to stable storage.
	Sync() error
}

// Config configures the log.
type Config struct {
	// FlushDelay simulates the latency of forcing the log to stable storage
	// (one per group-commit cycle, not per transaction). It elapses between
	// the cycle's consume and its write: commits arriving meanwhile join the
	// next cycle, and a crash inside it leaves the batch off the sink, as a
	// crash before a real write would. Zero disables it.
	FlushDelay time.Duration
	// Durable, if non-nil, receives every flushed byte followed by one Sync
	// per group-commit batch; DurableLSN only advances past bytes the sink
	// has accepted and synced. A write or sync error wedges the log: every
	// subsequent Append and Flush fails, because the durable prefix can no
	// longer grow.
	Durable DurableSink
	// StartLSN is the virtual byte offset the log starts issuing at, used
	// when reopening a log whose prefix (every byte below StartLSN) is
	// already durable on disk. Zero means start at offset 1 (offset 0 is the
	// "no LSN" sentinel).
	StartLSN LSN
	// DropAfterFlush discards flushed records instead of retaining them in
	// memory for Records() (which recovery tests read). Retention is the
	// default; long-running and disk-backed logs drop.
	DropAfterFlush bool
	// BufferBytes sizes the log buffer (default 4 MiB). A reservation that
	// does not fit blocks until the flusher drains the buffer, reported as
	// AppendWaits.BufferFull. A single record frame larger than half the
	// buffer (or than the decoder's 1 MiB frame limit, which would corrupt
	// the log for every reader) is rejected at Append.
	BufferBytes int64
}

// noCopy triggers go vet's copylocks check when a struct embedding it is
// copied by value. The typed atomics inside these structs carry their own
// no-copy guard, but the explicit field keeps the protection (and the
// intent) even if a field is ever downgraded to a plain integer.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Stats holds log counters. It is updated concurrently by appenders and the
// flusher and must never be copied by value — read it through
// StatsSnapshot.
type Stats struct {
	noCopy  noCopy
	Appends atomic.Uint64
	Flushes atomic.Uint64
	Synced  atomic.Uint64 // records made durable
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCrashed is returned to flush waiters when Crash is injected.
var ErrCrashed = errors.New("wal: simulated crash")

// flushWaiter is one registered durability subscription: ch receives exactly
// one value once the durable watermark reaches the target end offset upTo
// (nil) or the log can no longer get there (the wedging error).
type flushWaiter struct {
	upTo LSN // target durable watermark (an exclusive end offset)
	ch   chan error
}

// Log is the write-ahead log. Appends go through the consolidated
// reserve/fill/publish buffer (see logbuf.go): reservation is one
// fetch-and-add on the virtual head, and records are encoded into the shared
// buffer concurrently. Durability is driven by a single dedicated flusher
// goroutine: committers subscribe to their commit LSN with FlushAsync (or
// block in Flush) and the flusher consumes the contiguous published prefix,
// performs one physical write+sync per group-commit batch (handing every
// consumed byte range to the DurableSink in one call), advances the
// durable-LSN watermark, and acknowledges every satisfied subscription in
// LSN order.
type Log struct {
	cfg Config
	lb  *logBuffer

	mu            sync.Mutex
	flushWork     *sync.Cond // signals the flusher goroutine that work arrived
	flushed       []Record   // records already flushed (retained unless DropAfterFlush)
	flushLSN      LSN        // exclusive end of the durable prefix (first non-durable byte offset)
	closed        bool
	flusherActive bool          // the flusher goroutine has been started
	waiters       []flushWaiter // pending durability subscriptions
	failed        error         // first durable-sink error; wedges the log

	stats Stats
}

// New creates a write-ahead log.
func New(cfg Config) *Log {
	start := cfg.StartLSN
	if start == 0 {
		start = 1
	}
	l := &Log{cfg: cfg, lb: newLogBuffer(cfg.BufferBytes, start), flushLSN: start}
	l.flushWork = sync.NewCond(&l.mu)
	return l
}

// Append adds a record to the log buffer and returns its LSN. The record is
// not durable until Flush (directly or via group commit) covers its LSN.
// Unlike AppendTimed it reads no clocks, so non-profiled callers pay nothing
// for wait accounting on the hot path.
func (l *Log) Append(rec Record) (LSN, error) {
	lsn, _, err := l.append(rec, false)
	return lsn, err
}

// AppendTimed is Append, additionally reporting where the call spent blocked
// time so callers can attribute reserve waits and buffer-full waits to the
// right profiler categories (and exclude them from useful log work).
func (l *Log) AppendTimed(rec Record) (LSN, AppendWaits, error) {
	return l.append(rec, true)
}

func (l *Log) append(rec Record, timed bool) (LSN, AppendWaits, error) {
	s, w, err := l.lb.reserve(rec, l.kickFlusher, timed)
	if err != nil {
		return 0, w, err
	}
	fence := l.lb.fill(rec, s, timed)
	if timed {
		// The publish fence is serialization cost, like the reservation
		// itself: attribute it to reserve-wait so the category captures the
		// whole ordering overhead of the protocol.
		w.Reserve += fence
	}
	l.stats.Appends.Add(1)
	return LSN(s.off), w, nil
}

// kickFlusher starts (if necessary) and wakes the flusher goroutine. It is
// how a reserver blocked on a full buffer forces a drain even before any
// durability subscription exists.
func (l *Log) kickFlusher() {
	l.mu.Lock()
	if !l.closed && l.failed == nil {
		l.startFlusherLocked()
	}
	l.flushWork.Signal()
	l.mu.Unlock()
}

// DurableLSN returns the exclusive end of the durable prefix: every byte of
// the virtual log below it has been handed to the configured sinks and —
// when a DurableSink is configured — covered by a successful Sync. A record
// is durable iff its LSN is strictly below DurableLSN. Bytes at or above it
// may exist only in the in-memory append buffer and are lost on a crash.
// The watermark advances monotonically, one group-commit batch at a time.
func (l *Log) DurableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLSN
}

// LastLSN returns the virtual end offset of the log (durable or not): the
// LSN the next record would be appended at. Flush(LastLSN()) therefore means
// "force everything appended so far".
func (l *Log) LastLSN() LSN {
	return LSN(l.lb.head.Load())
}

// Flush makes the record at LSN upTo (and every record below it) durable and
// returns once it is. Concurrent callers are batched into a single physical
// flush (group commit) performed by the dedicated flusher goroutine.
func (l *Log) Flush(upTo LSN) error {
	return <-l.FlushAsync(upTo)
}

// FlushAsync subscribes to the durability of the record at LSN upTo (and,
// by the contiguity of the durable prefix, every record below it) and
// returns immediately. The returned channel receives exactly one value: nil
// once the flusher's durable watermark has passed upTo, or the error that
// permanently prevents it (a wedged or closed log). Acknowledgements are
// delivered in LSN order, so a commit whose ack arrives implies every
// lower-LSN commit is durable too — the invariant Early Lock Release relies
// on.
func (l *Log) FlushAsync(upTo LSN) <-chan error {
	ch := make(chan error, 1)
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.failed != nil:
		ch <- l.failed
	case l.flushLSN > upTo:
		// The durable watermark is exclusive-end and always sits at a frame
		// boundary, so being past the frame's start offset means the whole
		// frame is durable.
		ch <- nil
	case l.closed:
		ch <- ErrClosed
	default:
		// The waiter's target is an end offset: the smallest durable
		// watermark that covers the frame starting at upTo. Any watermark
		// above upTo covers it (watermarks only stop at frame boundaries), so
		// upTo.Next() is exact; an offset at or beyond the log's end can never be
		// reached by flushing, so clamp the target to "everything appended so
		// far". The clamp also resolves the reopen edge where nothing has
		// been appended yet (head == flushLSN == StartLSN): the target clamps
		// to the already-durable watermark and is acknowledged immediately
		// instead of parking a waiter no flush cycle would satisfy.
		target := upTo.Next()
		if end := l.LastLSN(); target > end {
			target = end
		}
		if l.flushLSN >= target {
			ch <- nil
			return ch
		}
		l.waiters = append(l.waiters, flushWaiter{upTo: target, ch: ch})
		l.startFlusherLocked()
		l.flushWork.Signal()
	}
	return ch
}

// startFlusherLocked launches the flusher goroutine on first use. Lazy start
// keeps Logs that never flush (pure decode/encode users, short tests) free of
// goroutines.
func (l *Log) startFlusherLocked() {
	if l.flusherActive {
		return
	}
	l.flusherActive = true
	go l.flusherLoop()
}

// pendingFlushLocked reports whether any subscription is still waiting for
// the durable watermark to advance.
func (l *Log) pendingFlushLocked() bool {
	for _, w := range l.waiters {
		if w.upTo > l.flushLSN {
			return true
		}
	}
	return false
}

// workPendingLocked reports whether the flusher has anything actionable:
// an unsatisfied durability subscription, or reservers blocked on a full
// buffer (which must be drained even when no commit has subscribed yet,
// e.g. a large loading transaction).
func (l *Log) workPendingLocked() bool {
	return l.pendingFlushLocked() || l.lb.fullWaiters.Load() > 0
}

// flusherLoop is the dedicated flush daemon: one group-commit cycle per
// wakeup, started as soon as work is pending and batching every record
// published up to that moment. There is no batching window: commits that
// arrive while a cycle forces the log join the next cycle, so the force
// itself is the window.
func (l *Log) flusherLoop() {
	for {
		l.mu.Lock()
		for !l.closed && l.failed == nil && !l.workPendingLocked() {
			l.flushWork.Wait()
		}
		if l.failed != nil {
			err := l.failed
			l.failWaitersLocked(err)
			l.flusherActive = false
			l.mu.Unlock()
			// Fail reservers blocked on a full buffer too: no one will ever
			// drain it again.
			l.lb.close(err)
			return
		}
		if l.closed && !l.workPendingLocked() {
			l.flusherActive = false
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
		if !l.flushCycle() {
			// Work is pending but nothing was consumable: a lower-LSN
			// reservation is still being filled (a concurrent memcpy, gone in
			// microseconds). Yield instead of spinning.
			runtime.Gosched()
		}
	}
}

// flushCycle is one group-commit cycle: consume the contiguous published
// prefix of the log buffer, hand every consumed byte range to the durable
// sink in one call — no per-record re-encode, one vectored submission for
// the whole cycle — then force, advance the watermark and acknowledge, or
// wedge the log on a sink error. It returns false when nothing was
// consumable.
func (l *Log) flushCycle() bool {
	// Records are only decoded back out of the buffer for in-memory
	// retention (Records()).
	ranges, recs, count, end := l.lb.consume(!l.cfg.DropAfterFlush)
	if end == 0 {
		return false
	}
	if l.cfg.FlushDelay > 0 {
		time.Sleep(l.cfg.FlushDelay)
		if l.Err() != nil {
			// Crashed inside the simulated force: the batch never reaches
			// the sink. The loop top fails the waiters.
			return true
		}
	}
	var durableErr error
	if l.cfg.Durable != nil {
		durableErr = l.cfg.Durable.WriteRanges(ranges)
	}
	// The physical write above is the last reader of the consumed bytes
	// (Sync forces the OS, it never touches the buffer), so the space goes
	// back to reservers before the sync latency is paid.
	l.lb.release(end)
	if durableErr == nil && l.cfg.Durable != nil {
		// The single physical force of the group commit.
		durableErr = l.cfg.Durable.Sync()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.cfg.DropAfterFlush {
		l.flushed = append(l.flushed, recs...)
	}
	l.stats.Flushes.Add(1)
	if l.failed != nil {
		// Crashed while the batch was in flight: even if the sync succeeded,
		// never acknowledge — crash semantics allow un-acked records to
		// survive, never the reverse. The loop top fails the waiters.
		return true
	}
	if durableErr != nil {
		// The durable prefix can no longer grow contiguously: wedge the log
		// so no later record is ever reported durable past the gap. The loop
		// top fails the waiters and exits.
		l.failed = durableErr
		return true
	}
	if l.flushLSN < LSN(end) {
		l.flushLSN = LSN(end)
	}
	l.stats.Synced.Add(uint64(count))
	l.notifyWaitersLocked()
	return true
}

// notifyWaitersLocked acknowledges every subscription satisfied by the
// current durable watermark, in ascending LSN order.
func (l *Log) notifyWaitersLocked() {
	var remaining []flushWaiter
	var done []flushWaiter
	for _, w := range l.waiters {
		if w.upTo <= l.flushLSN {
			done = append(done, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].upTo < done[j].upTo })
	for _, w := range done {
		w.ch <- nil
	}
	l.waiters = remaining
}

// failWaitersLocked delivers err to every pending subscription.
func (l *Log) failWaitersLocked(err error) {
	for _, w := range l.waiters {
		w.ch <- err
	}
	l.waiters = nil
}

// Err returns the error that wedged the log — the first durable-sink write
// or sync failure (or the injected crash) after which the durable prefix can
// no longer grow and every Append/Flush fails — or nil while the log is
// healthy. A cleanly closed log is not wedged: Err stays nil after Close.
// It lets callers distinguish "the log is slow" (DurableLag growing, Err nil)
// from "the log is dead" (Err non-nil) without inferring it from Exec
// failures; readiness probes flip unready on it.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Records returns a copy of every record that has been flushed, in LSN
// order, for recovery and tests. Records still in the append buffer are not
// included.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.flushed))
	copy(out, l.flushed)
	return out
}

// PendingBytes returns the number of appended-but-not-yet-durable bytes of
// the virtual log. With byte-offset LSNs this is simply the distance between
// the log's end and the durable watermark; it is zero whenever the flusher
// has caught up.
func (l *Log) PendingBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	end := l.LastLSN()
	if end <= l.flushLSN {
		return 0
	}
	return end.Distance(l.flushLSN)
}

// StatsSnapshot returns a copy of the log counters.
func (l *Log) StatsSnapshot() (appends, flushes, synced uint64) {
	return l.stats.Appends.Load(), l.stats.Flushes.Load(), l.stats.Synced.Load()
}

// TailStats is a point-in-time snapshot of the log tail: how many
// group-commit cycles ran and the cumulative time appenders spent on the
// publish fence, the reservation and a full buffer.
//
// Unlike Stats, this is a plain value snapshot built from atomic loads —
// it contains no atomics (the atomicmix analyzer verifies that) and is safe
// to copy, return and compare freely.
type TailStats struct {
	FlushCycles    uint64        // group-commit cycles completed
	FenceWait      time.Duration // cumulative publish-fence block time
	ReserveWait    time.Duration // cumulative reserve wait (profiled appends only)
	BufferFullWait time.Duration // cumulative buffer-full wait (timed unconditionally)
}

// TailStats returns the log tail snapshot.
func (l *Log) TailStats() TailStats {
	return TailStats{
		FlushCycles:    l.stats.Flushes.Load(),
		FenceWait:      time.Duration(l.lb.fenceNanos.Load()),
		ReserveWait:    time.Duration(l.lb.reserveNanos.Load()),
		BufferFullWait: time.Duration(l.lb.fullNanos.Load()),
	}
}

// Close drains every pending record to the sinks and shuts the log down.
// It re-checks for records appended concurrently with the drain, so when
// Close returns nil the sink has received (and, for a DurableSink, synced)
// every record ever accepted by Append. The flusher goroutine exits once the
// drain completes. Close is idempotent.
func (l *Log) Close() error {
	// Refuse new reservations first so the drain below is complete; records
	// already reserved still fill, publish and drain.
	l.lb.close(ErrClosed)
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return nil
		}
		end := l.LastLSN()
		if l.flushLSN >= end {
			l.closed = true
			l.flushWork.Broadcast()
			l.mu.Unlock()
			return nil
		}
		l.mu.Unlock()
		if err := l.Flush(end); err != nil {
			return err
		}
	}
}

// Crash simulates losing the machine for crash-recovery tests: the append
// buffer (records never handed to the sink) is discarded, every pending and
// future flush subscription fails with ErrCrashed, and the flusher goroutine
// stops without draining. A group-commit batch already in flight is not
// acknowledged even if its sync happens to complete — crash semantics allow
// un-acked records to survive on disk, never an acked record to be lost.
func (l *Log) Crash() {
	l.mu.Lock()
	if l.failed == nil {
		l.failed = ErrCrashed
	}
	err := l.failed
	l.closed = true
	if !l.flusherActive {
		// No flusher to deliver the failure; fail the waiters directly.
		l.failWaitersLocked(err)
	}
	l.flushWork.Broadcast()
	l.mu.Unlock()
	// Discard the buffer: reservations fail from here on and blocked
	// reservers wake with the crash error.
	l.lb.close(err)
}

package wal

// The consolidated log buffer, byte-offset edition: an Aether-style
// reserve/fill/publish protocol in which the LSN IS the byte offset, so
// reserving a record means nothing more than advancing the virtual head by
// the record's encoded size. An appender
//
//  1. reserves — a single compare-and-swap on the virtual head claims the
//     record's byte range; the range's start offset is the record's LSN.
//     No latch, no critical section: the fetch-and-add is the whole
//     reservation;
//  2. fills   — encodes the record directly into its claimed range, with no
//     lock held, concurrently with every other appender;
//  3. publishes — makes its range consumable by the flusher by completion
//     tracking (Aether's hybrid idea applied to the fence): a filler that
//     finishes out of order deposits its completed range in a small pending
//     set and returns immediately; whichever filler (or successor) holds the
//     watermark merges every contiguous completion forward. A preempted
//     filler therefore delays only the watermark, never another publisher.
//
// The ring never splits a frame across its physical end: a reservation whose
// frame would wrap claims the leftover tail bytes too and fills them with
// zeros. Those padding bytes are real bytes of the virtual log — they flow
// to disk with their neighbors and decoders skip them — which is what keeps
// every LSN equal to its stable on-disk byte offset.
//
// This is the log-side analogue of what SLI does to the lock manager, taken
// to its endpoint: there is no centralized section left on the append path.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLogBufferBytes is the default size of the consolidated log buffer.
const DefaultLogBufferBytes = 4 << 20

// minLogBufferBytes bounds how small a configured buffer may be; tiny buffers
// are allowed (tests use them to force wraparound and buffer-full waits) but
// must still hold a handful of records.
const minLogBufferBytes = 4 << 10

// AppendWaits reports where an Append spent time blocked, so callers can
// attribute it to the profiler's reserve-wait and buffer-full-wait categories
// separately from useful log work.
type AppendWaits struct {
	// Reserve is the serialization cost of the reservation protocol: CAS
	// retries on the virtual head plus the publish fence. This is the
	// contention the fetch-and-add reservation exists to remove.
	Reserve time.Duration
	// BufferFull is the time spent waiting for the flusher to drain the
	// buffer because the reservation did not fit. It indicates an undersized
	// buffer or a saturated sink, not reservation contention.
	BufferFull time.Duration
}

// reservation is one claimed byte range of the virtual log: pad zero bytes
// (at the physical end of the ring) followed by the record's frame. The
// frame's start offset is the record's LSN.
type reservation struct {
	off int64 // virtual start offset of the frame == the record's LSN
	pad int64 // zero bytes claimed before off (the claim began at off-pad)
	n   int64 // frame length in bytes
}

// Range is one physically contiguous run of published log bytes — whole
// frames plus any wraparound padding — as handed to a DurableSink. First is
// the virtual offset of Data[0].
type Range struct {
	Data  []byte
	First LSN
}

// logBuffer is the consolidated buffer itself: a byte ring addressed by
// monotonically increasing virtual offsets (phys = off % size). head is the
// next offset to reserve, published the watermark below which every fill
// has completed, tail the oldest offset whose space is still in use.
// Reservers synchronize only through head; the mutex exists for buffer-full
// waits and close. The flusher is the single consumer.
type logBuffer struct {
	size int64
	buf  []byte

	head      atomic.Int64 // next virtual offset to reserve
	published atomic.Int64 // fence: every byte below it is filled
	tail      atomic.Int64 // oldest virtual offset still in use (advanced by release)
	consumed  int64        // flusher-private: end of the last consume

	fullWaiters atomic.Int32 // reservers blocked on a full buffer (flusher pressure signal)
	wedged      atomic.Bool  // fast-path mirror of err != nil

	fenceNanos   atomic.Int64 // cumulative time appenders spent publishing (timed appends only)
	reserveNanos atomic.Int64 // cumulative timed reserve wait (profiled appends only)
	fullNanos    atomic.Int64 // cumulative buffer-full wait, timed unconditionally

	// pubMu guards the fence's completion tracking: pubPending maps a
	// completed-but-unmergeable range's claim offset to its end. Every store
	// to published happens with pubMu held (loads stay lock-free), so
	// "published == claim" is an exact handoff test.
	pubMu      sync.Mutex
	pubPending map[int64]int64

	mu      sync.Mutex
	notFull *sync.Cond
	err     error // set once by close: every later reserve fails with it
}

// newLogBuffer builds the ring, its virtual offsets starting at start.
func newLogBuffer(size int64, start LSN) *logBuffer {
	if size <= 0 {
		size = DefaultLogBufferBytes
	}
	if size < minLogBufferBytes {
		size = minLogBufferBytes
	}
	lb := &logBuffer{size: size, buf: make([]byte, size)}
	lb.notFull = sync.NewCond(&lb.mu)
	lb.pubPending = make(map[int64]int64)
	lb.head.Store(int64(start))
	lb.published.Store(int64(start))
	lb.tail.Store(int64(start))
	lb.consumed = int64(start)
	return lb
}

func (lb *logBuffer) phys(off int64) int64 { return off % lb.size }

// padFor returns the zero bytes a frame of n bytes starting after offset
// head must claim so that it does not wrap the physical end of the ring.
func (lb *logBuffer) padFor(head, n int64) int64 {
	if rem := lb.size - lb.phys(head); rem < n {
		return rem
	}
	return 0
}

// fits reports whether a frame of n bytes can be claimed at the given head
// right now, and the padding the claim must include. It is the single
// statement of the ring's admission rule, shared by the reservation and the
// full-buffer wait.
func (lb *logBuffer) fits(head, n int64) (pad int64, ok bool) {
	pad = lb.padFor(head, n)
	return pad, head+pad+n-lb.tail.Load() <= lb.size
}

// loadErr returns the wedge error under the mutex.
func (lb *logBuffer) loadErr() error {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.err
}

// reserve claims rec's byte range; the returned reservation's off is the
// record's LSN. The path is lock-free: one compare-and-swap on the virtual
// head both assigns the LSN and allocates the buffer space, because they are
// the same number. When the claim does not fit, the reserver counts itself
// as a full-waiter, kicks the flusher (so draining happens even before any
// durability subscription exists) and waits for released space. timed gates
// the wait-clock reads so non-profiled appends pay no time.Now on the hot
// path.
func (lb *logBuffer) reserve(rec Record, kick func(), timed bool) (reservation, AppendWaits, error) {
	var w AppendWaits
	n := int64(rec.EncodedSize())
	if n > maxFrameBytes || n > lb.size/2 {
		// A frame past maxFrameBytes is undecodable by every reader (the
		// decoder treats it as corruption), and one past half the buffer
		// could starve forever behind smaller reservations; reject at append
		// time instead of corrupting the log.
		return reservation{}, w, fmt.Errorf("wal: record frame of %d bytes exceeds log buffer capacity (max %d)", n, min(int64(maxFrameBytes), lb.size/2))
	}
	var start time.Time
	if timed {
		start = time.Now()
	}
	res, err := lb.reserveAtomic(n, kick, timed, &w)
	if timed && err == nil {
		w.Reserve = time.Since(start) - w.BufferFull
		lb.reserveNanos.Add(int64(w.Reserve))
	}
	return res, w, err
}

// reserveAtomic is the fetch-and-add reservation: claim [head, head+pad+n)
// with a single CAS. The CAS (rather than a blind Add) is what lets a
// reserver that finds the buffer full wait WITHOUT holding a claim — so a
// closing or crashed log can fail it cleanly instead of leaving a hole that
// would stall the publish fence forever.
//
//slint:hotpath
func (lb *logBuffer) reserveAtomic(n int64, kick func(), timed bool, w *AppendWaits) (reservation, error) {
	for {
		if lb.wedged.Load() {
			return reservation{}, lb.loadErr()
		}
		head := lb.head.Load()
		pad, ok := lb.fits(head, n)
		if !ok {
			if err := lb.waitForSpace(n, kick, timed, w); err != nil {
				return reservation{}, err
			}
			continue
		}
		if lb.head.CompareAndSwap(head, head+pad+n) {
			s := reservation{off: head + pad, pad: pad, n: n}
			if lb.wedged.Load() {
				// close() may have wedged the buffer between the entry check
				// and the CAS — and Log.Close reads the drain target from
				// head, so a claim that lands after that read would be a
				// record Close never drains despite both calls reporting
				// success. The re-check closes the race (sequential
				// consistency: a CAS that follows Close's head read also
				// follows the wedge store, so it sees wedged here): turn the
				// claim into pure padding — zero bytes every decoder skips —
				// and fail the append. Whether or not a flusher ever drains
				// the padding, no record exists at this address.
				lb.padOut(s)
				return reservation{}, lb.loadErr()
			}
			return s, nil
		}
	}
}

// padOut fills an already-claimed reservation entirely with padding bytes
// and publishes it, erasing the record that would have lived there. Used
// when the buffer wedged while the claim was in flight.
func (lb *logBuffer) padOut(s reservation) {
	if s.pad > 0 {
		p := lb.phys(s.off - s.pad)
		clear(lb.buf[p : p+s.pad])
	}
	p := lb.phys(s.off)
	clear(lb.buf[p : p+s.n])
	lb.publish(s.off-s.pad, s.off+s.n, false)
}

// publish makes the filled claim [claim, end) consumable. It never waits on
// other fillers: the watermark holder merges forward through every
// contiguous completion already deposited, and anyone else deposits its
// range and leaves — a preempted filler stalls the watermark (the flusher
// simply sees fewer bytes this cycle) but never stalls later publishers.
// The returned duration is the time spent publishing when timed; the
// cumulative total feeds the fence-wait stat.
//
//slint:hotpath
func (lb *logBuffer) publish(claim, end int64, timed bool) time.Duration {
	var fenceStart time.Time
	if timed {
		fenceStart = time.Now()
	}
	//slint:ignore hotblock pubMu is a merge-only critical section (map ops, one store), never held across waits or I/O
	lb.pubMu.Lock()
	if lb.published.Load() == claim {
		for {
			next, ok := lb.pubPending[end]
			if !ok {
				break
			}
			delete(lb.pubPending, end)
			end = next
		}
		lb.published.Store(end)
	} else {
		lb.pubPending[claim] = end
	}
	lb.pubMu.Unlock()
	if timed {
		d := time.Since(fenceStart)
		lb.fenceNanos.Add(int64(d))
		return d
	}
	return 0
}

// waitForSpace blocks until a frame of n bytes could fit (space may be
// re-taken by a faster reserver before the caller's CAS — the caller just
// retries) or the buffer wedges. The full-waiter count is raised before the
// kick so the flusher never goes to sleep between our check and our wait.
func (lb *logBuffer) waitForSpace(n int64, kick func(), timed bool, w *AppendWaits) error {
	lb.fullWaiters.Add(1)
	defer lb.fullWaiters.Add(-1)
	kick()
	lb.mu.Lock()
	defer lb.mu.Unlock()
	for {
		if lb.err != nil {
			return lb.err
		}
		if _, ok := lb.fits(lb.head.Load(), n); ok {
			return nil
		}
		// Timed unconditionally: this path already sleeps, and the
		// cumulative total is the buffer-full metric even in unprofiled
		// runs.
		fullStart := time.Now()
		lb.notFull.Wait()
		d := time.Since(fullStart)
		lb.fullNanos.Add(int64(d))
		if timed {
			w.BufferFull += d
		}
	}
}

// fill writes the reservation's bytes — zeroing any wraparound padding, then
// encoding the record at its offset — entirely outside any latch, and then
// publishes the claim. The returned duration is the time spent publishing
// (zero when untimed).
//
//slint:hotpath
func (lb *logBuffer) fill(rec Record, s reservation, timed bool) time.Duration {
	if s.pad > 0 {
		pstart := lb.phys(s.off - s.pad)
		clear(lb.buf[pstart : pstart+s.pad])
	}
	start := lb.phys(s.off)
	if n := int64(rec.EncodeTo(lb.buf[start : start+s.n])); n != s.n {
		panic(fmt.Sprintf("wal: reserved %d bytes but encoded %d", s.n, n))
	}
	return lb.publish(s.off-s.pad, s.off+s.n, timed)
}

// consume takes the published-but-unconsumed window of the virtual log and
// returns it as physically contiguous byte ranges (at most two: the window
// never exceeds the ring size, so it splits at most once at the physical
// end). It reads no frame and copies no byte: the ranges alias the buffer,
// and the caller must finish reading them and then call release(end) to hand
// the space back to reservers. end == 0 means nothing was consumable. Single
// consumer only.
func (lb *logBuffer) consume() (ranges []Range, end int64) {
	pub := lb.published.Load()
	if pub == lb.consumed {
		return nil, 0
	}
	for off := lb.consumed; off < pub; {
		p := lb.phys(off)
		runEnd := min(pub, off+(lb.size-p))
		ranges = append(ranges, Range{Data: lb.buf[p : p+(runEnd-off)], First: LSN(off)})
		off = runEnd
	}
	lb.consumed = pub
	return ranges, pub
}

// release hands consumed buffer space back to reservers once the flusher has
// finished reading it (the physical write; Sync never reads the buffer).
func (lb *logBuffer) release(end int64) {
	lb.mu.Lock()
	if end > lb.tail.Load() {
		lb.tail.Store(end)
	}
	lb.notFull.Broadcast()
	lb.mu.Unlock()
}

// close wedges the buffer: every later reserve fails with err and blocked
// reservers wake. Reservations already claimed still fill and publish, so a
// closing log can drain them.
func (lb *logBuffer) close(err error) {
	lb.mu.Lock()
	if lb.err == nil {
		lb.err = err
	}
	lb.wedged.Store(true)
	lb.notFull.Broadcast()
	lb.mu.Unlock()
}

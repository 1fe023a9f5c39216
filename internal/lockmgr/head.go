package lockmgr

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"slidb/internal/latch"
)

// lockHead represents one lock: its identity, a latch protecting the request
// queue, the FIFO queue itself, and the hot-ness tracking window (paper
// Figure 2). Heads stay in the lock table when their queue drains, so an
// uncontended acquire finds its head with a lock-free probe instead of
// creating and deleting one, until a partition sweep retires the idle ones.
type lockHead struct {
	id   LockID
	hash uint64 // id.hash()

	// part is the index of the lock-table partition the head lives in, so
	// deadlock probes can tell local wait-for edges from cross-partition
	// ones without re-hashing the LockID on every hop.
	part uint32

	// latch protects the queue, the hot-ness window and the used and dead
	// flags, and serializes writes to waiters. Its per-acquisition
	// contention signal drives hot-lock detection.
	latch latch.Mutex

	queue requestQueue

	// waiters counts waiting and converting requests; inherit reads it
	// without the latch.
	waiters atomic.Int32

	// window tracks latch contention over the most recent acquisitions; hot
	// caches the threshold decision for the SLI paths that read it without
	// the latch.
	window latch.ContentionWindow
	hot    atomic.Bool

	// dead is set when a sweep has retired the head: a requester that latches
	// a dead head must retry its lookup. used records an acquisition since
	// the last sweep: an idle head gets one sweep's grace.
	dead, used bool
}

// recordLatchAcquire folds one latch acquisition outcome into the hot-ness
// window, touching the shared hot flag only when the verdict flips. Must be
// called with the latch held.
func (h *lockHead) recordLatchAcquire(contended bool, hotMin *[latch.WindowSize + 1]uint8) {
	h.used = true
	h.window.Record(contended)
	if hot := h.window.Hot(hotMin); hot != h.hot.Load() {
		h.hot.Store(hot)
	}
}

// grantedSupremum returns the supremum of the modes of all granted,
// converting (their currently-held mode) and inherited requests, excluding
// the given request. Inherited requests are included because until they are
// invalidated they may be reclaimed at any instant and therefore still
// constrain what can be granted. Must be called with the latch held.
func (h *lockHead) grantedSupremum(except *Request) Mode {
	agg := NL
	for r := h.queue.head; r != nil; r = r.next {
		if r == except {
			continue
		}
		switch r.status.Load() {
		case statusGranted, statusConverting, statusInherited:
			agg = Supremum(agg, r.mode)
		}
	}
	return agg
}

// hasWaiters reports whether any request is waiting or converting.
func (h *lockHead) hasWaiters() bool { return h.waiters.Load() > 0 }

// headSlots is one partition's open-addressed (linear probing) array of
// heads, at most half full. Between rebuilds it only gains entries, so a
// reader needs no lock: it may miss a head published after it started or
// find one since retired, and both cases fall back to insert.
type headSlots struct {
	s    []atomic.Pointer[lockHead]
	mask uint64
}

// A partition is swept when it holds minSweepLimit heads, or twice the
// number the previous sweep found in use; its slot array starts out sized
// for initialHeads.
const (
	minSweepLimit = 256
	initialHeads  = 16
)

// partition is one shard of the lock table. mu serializes inserts and
// sweeps only; lookups do not take it. Lock order: mu, then a head latch.
type partition struct {
	mu    sync.Mutex
	slots atomic.Pointer[headSlots]
	count int      // heads in slots
	limit int      // count at which the next insert sweeps first
	_     [32]byte // keep neighbouring partitions on separate cache lines
}

// lockTable is the partitioned hash table mapping LockIDs to lock heads
// (Figure 2's "hash table" of lock heads). The low bits of a LockID's hash
// pick the partition, the bits above them the slot within it.
type lockTable struct {
	parts []partition
	mask  uint64
	shift uint
}

func newLockTable(partitions int) *lockTable {
	// Round up to a power of two so we can mask instead of mod.
	shift := uint(bits.Len(uint(partitions - 1)))
	t := &lockTable{parts: make([]partition, 1<<shift), mask: 1<<shift - 1, shift: shift}
	for i := range t.parts {
		t.parts[i].limit = minSweepLimit
		t.rebuild(&t.parts[i], &headSlots{}, initialHeads)
	}
	return t
}

func (t *lockTable) partitionIndex(id LockID) uint64 { return id.hash() & t.mask }

// probe returns the head for id in a, or nil, and the slot an insert of id
// would use.
//
//slint:hotpath
func (t *lockTable) probe(a *headSlots, id LockID, hash uint64) (*lockHead, uint64) {
	for i := hash >> t.shift; ; i++ {
		h := a.s[i&a.mask].Load()
		if h == nil || h.hash == hash && h.id == id {
			return h, i & a.mask
		}
	}
}

// lookup returns the head for id, or nil, without taking a lock or writing
// shared memory. The caller must latch the result and check it is not dead.
//
//slint:hotpath
func (t *lockTable) lookup(id LockID, hash uint64) *lockHead {
	h, _ := t.probe(t.parts[hash&t.mask].slots.Load(), id, hash)
	return h
}

// latched returns the head for id with its latch held, creating it if need
// be (a partition that has reached its limit is swept first), and reports
// what the latch acquisition cost.
func (t *lockTable) latched(id LockID, hash uint64) (h *lockHead, contended bool, wait time.Duration) {
	for h = t.lookup(id, hash); ; h = nil {
		if h == nil {
			h = t.insert(id, hash)
		}
		if contended, wait = h.latch.Lock(); !h.dead {
			return h, contended, wait
		}
		h.latch.Unlock() // retired since we found it
	}
}

func (t *lockTable) insert(id LockID, hash uint64) *lockHead {
	p := &t.parts[hash&t.mask]
	p.mu.Lock()
	defer p.mu.Unlock()
	a := p.slots.Load()
	if h, _ := t.probe(a, id, hash); h != nil {
		return h
	}
	if p.count >= p.limit {
		a = t.sweep(p)
	}
	if 2*(p.count+1) > len(a.s) {
		a = t.rebuild(p, a, 2*(p.count+1))
	}
	h := &lockHead{id: id, hash: hash, part: uint32(hash & t.mask), used: true}
	_, i := t.probe(a, id, hash)
	a.s[i].Store(h)
	p.count++
	return h
}

// rebuild publishes a fresh slot array for p with room for n heads, holding
// the heads of old that are not dead. Must be called with p.mu held, or
// before p is shared.
func (t *lockTable) rebuild(p *partition, old *headSlots, n int) *headSlots {
	size := 1 << bits.Len(uint(2*n-1))
	a := &headSlots{s: make([]atomic.Pointer[lockHead], size), mask: uint64(size - 1)}
	for i := range old.s {
		if h := old.s[i].Load(); h != nil && !h.dead {
			_, j := t.probe(a, h.id, h.hash)
			a.s[j].Store(h)
		}
	}
	p.slots.Store(a)
	return a
}

// sweep retires every head of p that is idle (empty queue, latch free) and
// was not used since the previous sweep. Heads it finds in use set the next
// limit; idle ones spared for having been used do not, so they go at the
// next sweep unless used again. Must be called with p.mu held.
func (t *lockTable) sweep(p *partition) *headSlots {
	old := p.slots.Load()
	live, busy := 0, 0
	for i := range old.s {
		h := old.s[i].Load()
		if h == nil {
			continue
		}
		idle := false
		if h.latch.TryLock() {
			idle = h.queue.empty()
			h.dead, h.used = idle && !h.used, false
			h.latch.Unlock()
		}
		if !h.dead {
			live++
		}
		if !idle {
			busy++
		}
	}
	p.count = live
	p.limit = max(minSweepLimit, 2*busy)
	return t.rebuild(p, old, max(live+1, p.limit))
}

// active returns the number of heads with a non-empty queue, for tests and
// monitoring.
func (t *lockTable) active() int {
	n := 0
	for i := range t.parts {
		p := &t.parts[i]
		p.mu.Lock()
		for a, j := p.slots.Load(), 0; j < len(a.s); j++ {
			if h := a.s[j].Load(); h != nil {
				h.latch.Lock()
				if !h.queue.empty() {
					n++
				}
				h.latch.Unlock()
			}
		}
		p.mu.Unlock()
	}
	return n
}

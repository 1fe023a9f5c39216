// Package buffer implements the buffer pool. Pages are the memory: a page is
// created on its first Fetch and lives in one Frame for the pool's whole
// life, never unmapped and never copied; durability comes from the log and
// the checkpoint. What the pool simulates is residency, as in the paper's
// set-up (§5.2): a clock over at most Config.Frames resident pages decides
// hit or miss, and each simulated page read or write-back pays IODelay (the
// paper's 6 ms disk seek) outside the pool latch, so concurrent misses
// overlap.
package buffer

import (
	"fmt"
	"sync/atomic"
	"time"

	"slidb/internal/latch"
	"slidb/internal/page"
	"slidb/internal/profiler"
)

// PageID identifies a data page globally: table plus page number in it.
type PageID struct {
	Table uint32
	Page  uint64
}

// String renders the page ID for debugging.
func (id PageID) String() string { return fmt.Sprintf("%d.%d", id.Table, id.Page) }

// MemStore, NewMemStore and NewPool's store parameter remain only because the
// benchmark still constructs a store; nothing reads it. They go once it stops
// (ROADMAP item 4(d)).
type MemStore struct{}

// NewMemStore returns a store that keeps nothing.
func NewMemStore() *MemStore { return &MemStore{} }

// Write does nothing.
func (*MemStore) Write(PageID, []byte) error { return nil }

// Frame holds one page for the pool's whole life. Callers access the page
// content under Latch: readers share it, writers exclude.
type Frame struct {
	Latch latch.RWLatch
	id    PageID
	pg    *page.Page
	dirty atomic.Bool // written since its last write-back

	// Guarded by Pool.mu.
	resident bool          // counted in the residency clock
	ref      bool          // clock reference bit
	onDisk   bool          // written back once, so a miss must read it
	loading  chan struct{} // non-nil while a miss pays its I/O delay
}

// ID returns the page the frame holds.
func (f *Frame) ID() PageID { return f.id }

// Page returns the slotted page held by the frame. Access it only while the
// Latch is held in the appropriate mode.
func (f *Frame) Page() *page.Page { return f.pg }

// StatsSnapshot is a copy of the pool's counters. A miss is a fetch of a page
// that was not resident; an eviction makes one page leave residency, and a
// write-back is the eviction of a dirty page.
type StatsSnapshot struct{ Hits, Misses, Evictions, Writebacks uint64 }

// Config configures a buffer pool.
type Config struct {
	// Frames is the number of resident pages (default 4096, 32 MiB of pages).
	Frames int
	// IODelay is the artificial latency charged to every simulated page read
	// or write-back (the paper's disk seek). Zero disables it.
	IODelay time.Duration
}

// Pool is the buffer pool.
type Pool struct {
	cfg      Config
	mu       latch.Mutex
	pages    map[PageID]*Frame
	resident []*Frame // the residency clock, at most cfg.Frames long
	hand     int

	hits, misses, evictions, writebacks atomic.Uint64
}

// NewPool creates a buffer pool. store is ignored (see MemStore).
func NewPool(store *MemStore, cfg Config) *Pool {
	if cfg.Frames <= 0 {
		cfg.Frames = 4096
	}
	return &Pool{cfg: cfg, pages: make(map[PageID]*Frame, cfg.Frames)}
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() StatsSnapshot {
	return StatsSnapshot{p.hits.Load(), p.misses.Load(), p.evictions.Load(), p.writebacks.Load()}
}

// Capacity returns the configured number of resident pages.
func (p *Pool) Capacity() int { return p.cfg.Frames }

// Fetch returns the frame holding the given page, creating an empty page on
// its first fetch. A miss makes the page resident, evicting another by the
// clock, and pays IODelay once for reading the page if it was written back
// before and once more for writing back a dirty victim. The error is always
// nil. The caller calls Unpin when done. h may be nil.
func (p *Pool) Fetch(h *profiler.Handle, id PageID) (*Frame, error) {
	workStart := time.Now()
	contended, wait := p.mu.Lock()
	if contended {
		h.Add(profiler.BufferContention, wait)
	}
	f := p.pages[id]
	if f != nil && f.resident {
		f.ref = true
		loading := f.loading
		p.mu.Unlock()
		p.hits.Add(1)
		if loading != nil {
			ioStart := time.Now()
			<-loading
			h.Add(profiler.IOWait, time.Since(ioStart))
		}
		h.Add(profiler.BufferWork, time.Since(workStart)-wait)
		return f, nil
	}
	if f == nil {
		f = &Frame{id: id, pg: page.New()}
		p.pages[id] = f
	}
	ios := 0
	if f.onDisk {
		ios++
	}
	if v := p.admitLocked(f); v != nil {
		p.evictions.Add(1)
		if v.dirty.Swap(false) {
			v.onDisk = true
			p.writebacks.Add(1)
			ios++
		}
	}
	var ch chan struct{}
	if ios > 0 && p.cfg.IODelay > 0 {
		ch = make(chan struct{})
		f.loading = ch
	}
	p.mu.Unlock()
	p.misses.Add(1)
	h.Add(profiler.BufferWork, time.Since(workStart)-wait)
	if ch != nil {
		ioStart := time.Now()
		time.Sleep(time.Duration(ios) * p.cfg.IODelay)
		p.mu.Lock()
		if f.loading == ch {
			f.loading = nil
		}
		p.mu.Unlock()
		close(ch)
		h.Add(profiler.IOWait, time.Since(ioStart))
	}
	return f, nil
}

// admitLocked makes f resident and returns the page the clock evicted for it,
// if any. Must be called with p.mu held.
func (p *Pool) admitLocked(f *Frame) (victim *Frame) {
	f.resident, f.ref = true, true
	if len(p.resident) < p.cfg.Frames {
		p.resident = append(p.resident, f)
		return nil
	}
	for {
		i := p.hand
		p.hand = (i + 1) % len(p.resident)
		v := p.resident[i]
		if v.ref {
			v.ref = false
			continue
		}
		p.resident[i], v.resident = f, false
		return v
	}
}

// Unpin ends a Fetch; dirty says the caller modified the page.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	if dirty {
		f.dirty.Store(true)
	}
}

// CachedPages returns the number of resident pages.
func (p *Pool) CachedPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.resident)
}

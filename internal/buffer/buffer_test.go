package buffer

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slidb/internal/page"
	"slidb/internal/profiler"
)

func TestFetchCreatesAndCachesPages(t *testing.T) {
	p := NewPool(nil, Config{Frames: 8})
	id := PageID{Table: 1, Page: 0}
	f, err := p.Fetch(nil, id)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != id {
		t.Fatalf("frame id = %v, want %v", f.ID(), id)
	}
	if _, err := f.Page().Insert([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, true)

	// Second fetch must be a hit and see the data.
	f2, err := p.Fetch(nil, id)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Fatal("second fetch returned a different frame (not cached)")
	}
	rec, err := f2.Page().Get(0)
	if err != nil || string(rec) != "hello" {
		t.Fatalf("cached page lost data: %q, %v", rec, err)
	}
	p.Unpin(f2, false)
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
	if id.String() != "1.0" {
		t.Fatalf("PageID.String = %q, want 1.0", id.String())
	}
}

func TestEvictionKeepsData(t *testing.T) {
	p := NewPool(nil, Config{Frames: 2})
	// Dirty page 0.
	f0, _ := p.Fetch(nil, PageID{1, 0})
	f0.Page().Insert([]byte("zero"))
	p.Unpin(f0, true)
	// Fill the pool and force eviction of page 0.
	for i := uint64(1); i <= 3; i++ {
		f, err := p.Fetch(nil, PageID{1, i})
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f, false)
	}
	// Re-fetch page 0: must come back with its data.
	f0b, err := p.Fetch(nil, PageID{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f0b.Page().Get(0)
	if err != nil || string(rec) != "zero" {
		t.Fatalf("page 0 lost data after eviction round trip: %q %v", rec, err)
	}
	p.Unpin(f0b, false)
	if s := p.Stats(); s.Writebacks != 1 || s.Evictions == 0 {
		t.Fatalf("stats = %+v, want 1 write-back and some evictions", s)
	}
}

// TestIODelayCharged holds the residency model to the paper's cost: a page
// that was never written back is created for free, evicting a dirty page
// pays one delay, re-reading a written-back page pays one, and a hit pays
// none.
func TestIODelayCharged(t *testing.T) {
	const delay = 5 * time.Millisecond
	p := NewPool(nil, Config{Frames: 1, IODelay: delay})
	prof := profiler.New(true)
	h := prof.NewHandle()
	fetch := func(pg uint64, dirty bool) time.Duration {
		t.Helper()
		start := time.Now()
		f, err := p.Fetch(h, PageID{1, pg})
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		p.Unpin(f, dirty)
		return elapsed
	}
	if d := fetch(0, true); d > 2*time.Millisecond {
		t.Fatalf("creating a page took %v, want no artificial delay", d)
	}
	if d := fetch(1, false); d < delay-time.Millisecond {
		t.Fatalf("evicting a dirty page took %v, want >= ~%v", d, delay)
	}
	if d := fetch(0, false); d < delay-time.Millisecond {
		t.Fatalf("re-reading a written-back page took %v, want >= ~%v", d, delay)
	}
	if d := fetch(0, false); d > 2*time.Millisecond {
		t.Fatalf("buffer hit took %v, want no artificial delay", d)
	}
	if s := p.Stats(); s.Writebacks != 1 || s.Misses != 3 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 write-back, 3 misses, 1 hit", s)
	}
	if got := prof.Aggregate().Get(profiler.IOWait); got < 2*delay-2*time.Millisecond {
		t.Fatalf("IO wait attributed = %v, want >= ~%v", got, 2*delay)
	}
}

func TestConcurrentFetchSamePage(t *testing.T) {
	p := NewPool(nil, Config{Frames: 16})
	id := PageID{3, 3}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := p.Fetch(nil, id)
			if err != nil {
				errs <- err
				return
			}
			f.Latch.RLock()
			_ = f.Page().NumRecords()
			f.Latch.RUnlock()
			p.Unpin(f, false)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if p.CachedPages() != 1 {
		t.Fatalf("cached pages = %d, want 1", p.CachedPages())
	}
}

func TestConcurrentFetchManyPagesWithEviction(t *testing.T) {
	p := NewPool(nil, Config{Frames: 8})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := PageID{Table: uint32(g % 2), Page: uint64(i % 32)}
				f, err := p.Fetch(nil, id)
				if err != nil {
					errs <- err
					return
				}
				f.Latch.Lock()
				if f.Page().NumRecords() == 0 {
					f.Page().Insert([]byte{byte(g)})
				}
				f.Latch.Unlock()
				p.Unpin(f, true)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if p.CachedPages() > 8 {
		t.Fatalf("pool exceeded capacity: %d cached pages", p.CachedPages())
	}
}

// TestEvictionLosesNoWrites has four writers share a pool of 8 frames over
// 64 pages. Each writer owns the pages with pg%4 == w, so it alone touches
// them. Every visit checks the counter kept in the page's last 8 bytes
// against the writer's own copy, then increments it: a write lost to an
// eviction, or a fetch that sees an older image, shows as a stale counter.
func TestEvictionLosesNoWrites(t *testing.T) {
	for _, delay := range []time.Duration{0, time.Microsecond} {
		t.Run(fmt.Sprintf("IODelay=%v", delay), func(t *testing.T) {
			const pages, writers, iters = 64, 4, 20000
			p := NewPool(NewMemStore(), Config{Frames: 8, IODelay: delay})
			var stale atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var want [pages]uint64
					for i := 0; i < iters; i++ {
						pg := (i*7 + w*13) % pages
						if pg%writers != w {
							continue
						}
						f, err := p.Fetch(nil, PageID{Table: 1, Page: uint64(pg)})
						if err != nil {
							t.Error(err)
							return
						}
						f.Latch.Lock()
						ctr := f.Page().Bytes()[page.Size-8:]
						if got := binary.LittleEndian.Uint64(ctr); got != want[pg] {
							stale.Add(1)
						}
						want[pg]++
						binary.LittleEndian.PutUint64(ctr, want[pg])
						f.Latch.Unlock()
						p.Unpin(f, true)
					}
				}(w)
			}
			wg.Wait()
			if n := stale.Load(); n != 0 {
				t.Fatalf("%d visits found a stale page counter", n)
			}
			if p.Stats().Writebacks == 0 {
				t.Fatal("no dirty page was evicted: the test exercised nothing")
			}
		})
	}
}

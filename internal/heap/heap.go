// Package heap implements heap files: unordered collections of records
// stored in slotted pages managed through the buffer pool, one heap file per
// table. It also implements the free space manager, the centralized
// structure that tracks how much room each page has left — the component the
// paper observes absorbing contention from New Order once SLI removes the
// lock-manager bottleneck (§7.2).
//
// The free space manager's invariant: every page other than the append page
// has fewer than bound free bytes. An insert needing bound or more goes to
// the append page or a new one without scanning the file, so a bulk load
// costs one lookup per row, not a pass over earlier pages.
package heap

import (
	"errors"
	"fmt"

	"slidb/internal/buffer"
	"slidb/internal/latch"
	"slidb/internal/page"
	"slidb/internal/profiler"
)

// RID identifies a record within a table: page number plus slot.
type RID struct {
	Page uint64
	Slot uint32
}

// String renders the RID for debugging.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// ErrNotFound is returned when a RID does not refer to a live record.
var ErrNotFound = errors.New("heap: record not found")

// freeSpaceManager tracks per-page free space so inserts can find a page
// with room without scanning the file. It is a single latched structure per
// heap file, mirroring Shore's free space manager. Placement is a function
// of the history of calls alone: a scan takes the lowest-numbered page with
// room.
type freeSpaceManager struct {
	latch     latch.Mutex
	free      []int // page -> free bytes (approximate); 0 once full
	numPages  uint64
	appendPos int // page currently receiving appends
	// bound > free[p] for every p != appendPos: a scan that fails for need
	// sets it to need; an update or a retirement that reaches it lifts it.
	bound   int
	visited uint64 // free-map entries examined by choosePage's scans
}

// File is a heap file: the records of one table.
type File struct {
	tableID uint32
	pool    *buffer.Pool
	fsm     freeSpaceManager
}

// NewFile creates an empty heap file for the given table.
func NewFile(tableID uint32, pool *buffer.Pool) *File {
	return &File{
		tableID: tableID,
		pool:    pool,
	}
}

// TableID returns the table this heap file belongs to.
func (f *File) TableID() uint32 { return f.tableID }

// NumPages returns the number of pages allocated to the file.
func (f *File) NumPages() uint64 {
	f.fsm.latch.Lock()
	defer f.fsm.latch.Unlock()
	return f.fsm.numPages
}

// choosePage picks a page with at least need bytes free, allocating a new
// page if necessary. The returned page number is only a hint: the insert
// re-checks under the page latch and retries on a different page if the hint
// was stale.
func (f *File) choosePage(h *profiler.Handle, need int) uint64 {
	contended, wait := f.fsm.latch.Lock()
	if contended {
		h.Add(profiler.LatchContention, wait)
	}
	defer f.fsm.latch.Unlock()
	// Prefer the current append page (the common case and the paper's
	// "roving hotspot": appends concentrate on the last page until it fills).
	if f.fsm.numPages > 0 {
		if f.fsm.free[f.fsm.appendPos] >= need {
			return uint64(f.fsm.appendPos)
		}
		// Otherwise the lowest-numbered page with room; the bound rules out
		// a scan that cannot find one.
		if need < f.fsm.bound {
			for p, free := range f.fsm.free {
				f.fsm.visited++
				if free >= need {
					return uint64(p)
				}
			}
			f.fsm.bound = need
		}
	}
	return f.newPageLocked()
}

// newPageLocked retires the append page, lifting the bound over its free
// bytes, and maps a new empty page as the append page. The caller holds the
// free space manager's latch.
func (f *File) newPageLocked() uint64 {
	if f.fsm.numPages > 0 && f.fsm.free[f.fsm.appendPos] >= f.fsm.bound {
		f.fsm.bound = f.fsm.free[f.fsm.appendPos] + 1
	}
	f.fsm.appendPos = len(f.fsm.free)
	f.fsm.free = append(f.fsm.free, page.MaxRecordSize)
	f.fsm.numPages++
	return uint64(f.fsm.appendPos)
}

// updateFree records the new free-byte count for a page.
func (f *File) updateFree(pageNo uint64, free int) {
	f.fsm.latch.Lock()
	f.fsm.free[pageNo] = max(free, 0)
	if int(pageNo) != f.fsm.appendPos && free >= f.fsm.bound {
		f.fsm.bound = free + 1
	}
	f.fsm.latch.Unlock()
}

// needFor is the free space a page must show for Insert or Load to put rec on
// it.
func needFor(rec []byte) int { return len(rec) + 8 }

// Insert stores rec and returns its RID. h may be nil.
func (f *File) Insert(h *profiler.Handle, rec []byte) (RID, error) {
	if len(rec) > page.MaxRecordSize {
		return RID{}, page.ErrTooLarge
	}
	need := needFor(rec)
	for attempt := 0; attempt < 1000; attempt++ {
		pageNo := f.choosePage(h, need)
		frame, err := f.pool.Fetch(h, buffer.PageID{Table: f.tableID, Page: pageNo})
		if err != nil {
			return RID{}, err
		}
		contended, wait := frame.Latch.Lock()
		if contended {
			h.Add(profiler.LatchContention, wait)
		}
		slot, ierr := frame.Page().Insert(rec)
		free := frame.Page().FreeSpace()
		frame.Latch.Unlock()
		f.pool.Unpin(frame, ierr == nil)
		f.updateFree(pageNo, free)
		if ierr == nil {
			return RID{Page: pageNo, Slot: uint32(slot)}, nil
		}
		if !errors.Is(ierr, page.ErrPageFull) {
			return RID{}, ierr
		}
		// Page was fuller than the FSM believed; try again with a fresh hint.
	}
	return RID{}, errors.New("heap: could not find a page with free space")
}

// Load stores rows on new pages in row order and returns their RIDs, with
// one Fetch, page latch and free-space update per page. A page takes rows
// while needFor allows, so rows of one size lie as Inserts would lay them.
// A row larger than page.MaxRecordSize fails with page.ErrTooLarge.
func (f *File) Load(rows [][]byte) ([]RID, error) {
	rids := make([]RID, 0, len(rows))
	for len(rids) < len(rows) {
		f.fsm.latch.Lock()
		pageNo := f.newPageLocked()
		f.fsm.latch.Unlock()
		frame, err := f.pool.Fetch(nil, buffer.PageID{Table: f.tableID, Page: pageNo})
		if err != nil {
			return nil, err
		}
		frame.Latch.Lock()
		pg, first := frame.Page(), len(rids)
		for _, rec := range rows[first:] {
			if len(rids) > first && pg.FreeSpace() < needFor(rec) {
				break
			}
			slot, ierr := pg.Insert(rec) // only an oversize row fails here
			if ierr != nil {
				err = ierr
				break
			}
			rids = append(rids, RID{Page: pageNo, Slot: uint32(slot)})
		}
		free := pg.FreeSpace()
		frame.Latch.Unlock()
		f.pool.Unpin(frame, len(rids) > first)
		f.updateFree(pageNo, free)
		if err != nil {
			return nil, err
		}
	}
	return rids, nil
}

// Get returns a copy of the record identified by rid.
func (f *File) Get(h *profiler.Handle, rid RID) ([]byte, error) {
	frame, err := f.pool.Fetch(h, buffer.PageID{Table: f.tableID, Page: rid.Page})
	if err != nil {
		return nil, err
	}
	contended, wait := frame.Latch.RLock()
	if contended {
		h.Add(profiler.LatchContention, wait)
	}
	data, gerr := frame.Page().Get(int(rid.Slot))
	var cp []byte
	if gerr == nil {
		cp = append([]byte(nil), data...)
	}
	frame.Latch.RUnlock()
	f.pool.Unpin(frame, false)
	if gerr != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, rid)
	}
	return cp, nil
}

// Update replaces the record at rid with rec.
func (f *File) Update(h *profiler.Handle, rid RID, rec []byte) error {
	frame, err := f.pool.Fetch(h, buffer.PageID{Table: f.tableID, Page: rid.Page})
	if err != nil {
		return err
	}
	contended, wait := frame.Latch.Lock()
	if contended {
		h.Add(profiler.LatchContention, wait)
	}
	uerr := frame.Page().Update(int(rid.Slot), rec)
	if errors.Is(uerr, page.ErrPageFull) {
		// Make room by compacting the page, then retry once.
		frame.Page().Compact()
		uerr = frame.Page().Update(int(rid.Slot), rec)
	}
	free := frame.Page().FreeSpace()
	frame.Latch.Unlock()
	f.pool.Unpin(frame, uerr == nil)
	f.updateFree(rid.Page, free)
	if errors.Is(uerr, page.ErrNoSlot) {
		return fmt.Errorf("%w: %v", ErrNotFound, rid)
	}
	return uerr
}

// Delete removes the record at rid.
func (f *File) Delete(h *profiler.Handle, rid RID) error {
	frame, err := f.pool.Fetch(h, buffer.PageID{Table: f.tableID, Page: rid.Page})
	if err != nil {
		return err
	}
	contended, wait := frame.Latch.Lock()
	if contended {
		h.Add(profiler.LatchContention, wait)
	}
	derr := frame.Page().Delete(int(rid.Slot))
	if derr == nil {
		// Reclaim the dead space immediately so the free space manager sees
		// it; deletes are rare in the targeted workloads, so the compaction
		// cost is negligible.
		frame.Page().Compact()
	}
	free := frame.Page().FreeSpace()
	frame.Latch.Unlock()
	f.pool.Unpin(frame, derr == nil)
	f.updateFree(rid.Page, free)
	if errors.Is(derr, page.ErrNoSlot) {
		return fmt.Errorf("%w: %v", ErrNotFound, rid)
	}
	return derr
}

// Scan calls fn for every live record in the file, in page then slot order.
// fn receives a copy of the record bytes. Iteration stops if fn returns
// false.
func (f *File) Scan(h *profiler.Handle, fn func(rid RID, rec []byte) bool) error {
	numPages := f.NumPages()
	for p := uint64(0); p < numPages; p++ {
		frame, err := f.pool.Fetch(h, buffer.PageID{Table: f.tableID, Page: p})
		if err != nil {
			return err
		}
		contended, wait := frame.Latch.RLock()
		if contended {
			h.Add(profiler.LatchContention, wait)
		}
		type entry struct {
			slot int
			rec  []byte
		}
		var entries []entry
		frame.Page().ForEach(func(slot int, rec []byte) bool {
			entries = append(entries, entry{slot, append([]byte(nil), rec...)})
			return true
		})
		frame.Latch.RUnlock()
		f.pool.Unpin(frame, false)
		for _, e := range entries {
			if !fn(RID{Page: p, Slot: uint32(e.slot)}, e.rec) {
				return nil
			}
		}
	}
	return nil
}

// Package page implements fixed-size slotted data pages. A slotted page
// stores variable-length records identified by a stable slot number, with a
// slot directory growing from the end of the page towards the record area.
// Pages are the unit of buffering, I/O and page-level locking.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Size is the size of every data page in bytes.
const Size = 8192

// Page header layout (little endian):
//
//	offset 0: uint16 slot count (including tombstones)
//	offset 2: uint16 free-space start (offset of first unused record byte)
//	offset 4: uint16 live record count
//	offset 6: reserved
//
// Slot directory entries are 4 bytes each, stored from the end of the page
// growing downwards: entry i lives at Size-4*(i+1) and holds
// {uint16 offset, uint16 length}. A tombstoned slot has offset == 0xFFFF.
const (
	headerSize    = 8
	slotEntrySize = 4
	tombstone     = 0xFFFF
)

// Errors returned by page operations.
var (
	// ErrPageFull indicates the record does not fit in the page's free space.
	ErrPageFull = errors.New("page: not enough free space")
	// ErrNoSlot indicates the slot does not exist or has been deleted.
	ErrNoSlot = errors.New("page: no such slot")
	// ErrTooLarge indicates the record can never fit in an empty page.
	ErrTooLarge = errors.New("page: record larger than page capacity")
)

// MaxRecordSize is the largest record that fits in an empty page.
const MaxRecordSize = Size - headerSize - slotEntrySize

// Page is a slotted page over a fixed byte buffer.
type Page struct {
	buf [Size]byte
}

// New returns an initialized empty page.
func New() *Page {
	p := &Page{}
	p.Init()
	return p
}

// Init formats the page as empty.
func (p *Page) Init() {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.setSlotCount(0)
	p.setFreeStart(headerSize)
	p.setLiveCount(0)
}

// Bytes returns the raw page image (for the buffer pool and I/O layer).
func (p *Page) Bytes() []byte { return p.buf[:] }

// Load replaces the page contents with a previously serialized image.
func (p *Page) Load(data []byte) error {
	if len(data) != Size {
		return fmt.Errorf("page: image is %d bytes, want %d", len(data), Size)
	}
	copy(p.buf[:], data)
	return nil
}

func (p *Page) slotCount() int         { return int(binary.LittleEndian.Uint16(p.buf[0:])) }
func (p *Page) setSlotCount(n int)     { binary.LittleEndian.PutUint16(p.buf[0:], uint16(n)) }
func (p *Page) freeStart() int         { return int(binary.LittleEndian.Uint16(p.buf[2:])) }
func (p *Page) setFreeStart(n int)     { binary.LittleEndian.PutUint16(p.buf[2:], uint16(n)) }
func (p *Page) liveCount() int         { return int(binary.LittleEndian.Uint16(p.buf[4:])) }
func (p *Page) setLiveCount(n int)     { binary.LittleEndian.PutUint16(p.buf[4:], uint16(n)) }
func (p *Page) slotEntryPos(i int) int { return Size - slotEntrySize*(i+1) }

func (p *Page) slotEntry(i int) (offset, length int) {
	pos := p.slotEntryPos(i)
	return int(binary.LittleEndian.Uint16(p.buf[pos:])), int(binary.LittleEndian.Uint16(p.buf[pos+2:]))
}

func (p *Page) setSlotEntry(i, offset, length int) {
	pos := p.slotEntryPos(i)
	binary.LittleEndian.PutUint16(p.buf[pos:], uint16(offset))
	binary.LittleEndian.PutUint16(p.buf[pos+2:], uint16(length))
}

// NumSlots returns the number of allocated slots, including deleted ones.
func (p *Page) NumSlots() int { return p.slotCount() }

// NumRecords returns the number of live (non-deleted) records.
func (p *Page) NumRecords() int { return p.liveCount() }

// FreeSpace returns the number of payload bytes that can still be inserted
// (accounting for the slot-directory entry a new record would need).
func (p *Page) FreeSpace() int {
	free := Size - slotEntrySize*p.slotCount() - p.freeStart() - slotEntrySize
	if free < 0 {
		return 0
	}
	return free
}

// HasRoomFor reports whether a record of n bytes fits.
func (p *Page) HasRoomFor(n int) bool { return n <= p.FreeSpace() }

// Insert stores the record and returns its slot number. Deleted slots are
// reused (their slot numbers are recycled) before new slots are allocated.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > MaxRecordSize {
		return 0, ErrTooLarge
	}
	// Find a reusable tombstoned slot first. There is none while every slot
	// is live, which skips the scan on pages that have seen no delete.
	slot := -1
	if p.liveCount() < p.slotCount() {
		for i := 0; i < p.slotCount(); i++ {
			if off, _ := p.slotEntry(i); off == tombstone {
				slot = i
				break
			}
		}
	}
	needDirectory := 0
	if slot == -1 {
		needDirectory = slotEntrySize
	}
	if len(rec)+needDirectory > Size-slotEntrySize*p.slotCount()-p.freeStart() {
		return 0, ErrPageFull
	}
	off := p.freeStart()
	copy(p.buf[off:], rec)
	p.setFreeStart(off + len(rec))
	if slot == -1 {
		slot = p.slotCount()
		p.setSlotCount(slot + 1)
	}
	p.setSlotEntry(slot, off, len(rec))
	p.setLiveCount(p.liveCount() + 1)
	return slot, nil
}

// Get returns the record stored in the given slot. The returned slice
// aliases the page buffer and must not be modified or retained after the
// page latch is released; callers that need to keep it must copy it.
func (p *Page) Get(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.slotCount() {
		return nil, ErrNoSlot
	}
	off, length := p.slotEntry(slot)
	if off == tombstone {
		return nil, ErrNoSlot
	}
	return p.buf[off : off+length], nil
}

// Update replaces the record in the given slot. If the new record is no
// larger than the old one it is updated in place; otherwise it is appended
// to the free area (the old bytes become dead space until compaction).
func (p *Page) Update(slot int, rec []byte) error {
	if slot < 0 || slot >= p.slotCount() {
		return ErrNoSlot
	}
	off, length := p.slotEntry(slot)
	if off == tombstone {
		return ErrNoSlot
	}
	if len(rec) <= length {
		copy(p.buf[off:], rec)
		p.setSlotEntry(slot, off, len(rec))
		return nil
	}
	if len(rec) > Size-slotEntrySize*p.slotCount()-p.freeStart() {
		return ErrPageFull
	}
	newOff := p.freeStart()
	copy(p.buf[newOff:], rec)
	p.setFreeStart(newOff + len(rec))
	p.setSlotEntry(slot, newOff, len(rec))
	return nil
}

// Delete tombstones the record in the given slot. The slot number may be
// reused by later inserts; the record bytes become dead space until
// compaction.
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.slotCount() {
		return ErrNoSlot
	}
	off, _ := p.slotEntry(slot)
	if off == tombstone {
		return ErrNoSlot
	}
	p.setSlotEntry(slot, tombstone, 0)
	p.setLiveCount(p.liveCount() - 1)
	return nil
}

// ForEach calls fn for every live record in slot order. fn must not modify
// the page. Iteration stops early if fn returns false.
func (p *Page) ForEach(fn func(slot int, rec []byte) bool) {
	for i := 0; i < p.slotCount(); i++ {
		off, length := p.slotEntry(i)
		if off == tombstone {
			continue
		}
		if !fn(i, p.buf[off:off+length]) {
			return
		}
	}
}

// Compact rewrites the record area to reclaim dead space left by deletes and
// grown updates. Slot numbers are preserved.
func (p *Page) Compact() {
	type live struct {
		slot int
		data []byte
	}
	var records []live
	for i := 0; i < p.slotCount(); i++ {
		off, length := p.slotEntry(i)
		if off == tombstone {
			continue
		}
		cp := make([]byte, length)
		copy(cp, p.buf[off:off+length])
		records = append(records, live{i, cp})
	}
	freeStart := headerSize
	for _, r := range records {
		copy(p.buf[freeStart:], r.data)
		p.setSlotEntry(r.slot, freeStart, len(r.data))
		freeStart += len(r.data)
	}
	p.setFreeStart(freeStart)
}

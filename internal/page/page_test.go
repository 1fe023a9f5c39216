package page

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertGetRoundTrip(t *testing.T) {
	p := New()
	recs := [][]byte{[]byte("alpha"), []byte("b"), []byte("charlie delta")}
	slots := make([]int, len(recs))
	for i, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		slots[i] = s
	}
	if p.NumRecords() != 3 || p.NumSlots() != 3 {
		t.Fatalf("counts = %d/%d, want 3/3", p.NumRecords(), p.NumSlots())
	}
	for i, s := range slots {
		got, err := p.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Fatalf("slot %d = %q, want %q", s, got, recs[i])
		}
	}
}

func TestGetErrors(t *testing.T) {
	p := New()
	if _, err := p.Get(0); !errors.Is(err, ErrNoSlot) {
		t.Fatal("Get on empty page should fail")
	}
	if _, err := p.Get(-1); !errors.Is(err, ErrNoSlot) {
		t.Fatal("negative slot should fail")
	}
	s, _ := p.Insert([]byte("x"))
	if err := p.Delete(s); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s); !errors.Is(err, ErrNoSlot) {
		t.Fatal("Get on deleted slot should fail")
	}
	if err := p.Delete(s); !errors.Is(err, ErrNoSlot) {
		t.Fatal("double delete should fail")
	}
	if err := p.Update(s, []byte("y")); !errors.Is(err, ErrNoSlot) {
		t.Fatal("update of deleted slot should fail")
	}
}

func TestUpdateInPlaceAndGrow(t *testing.T) {
	p := New()
	s, _ := p.Insert([]byte("hello world"))
	if err := p.Update(s, []byte("bye")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(s)
	if string(got) != "bye" {
		t.Fatalf("after shrink update: %q", got)
	}
	if err := p.Update(s, bytes.Repeat([]byte("z"), 100)); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Get(s)
	if len(got) != 100 || got[0] != 'z' {
		t.Fatalf("after grow update: %d bytes", len(got))
	}
}

func TestDeleteReusesSlots(t *testing.T) {
	p := New()
	a, _ := p.Insert([]byte("aaa"))
	b, _ := p.Insert([]byte("bbb"))
	if err := p.Delete(a); err != nil {
		t.Fatal(err)
	}
	c, err := p.Insert([]byte("ccc"))
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("tombstoned slot not reused: got %d, want %d", c, a)
	}
	if p.NumSlots() != 2 || p.NumRecords() != 2 {
		t.Fatalf("counts = %d/%d, want 2/2", p.NumSlots(), p.NumRecords())
	}
	got, _ := p.Get(b)
	if string(got) != "bbb" {
		t.Fatal("unrelated record damaged by delete/reinsert")
	}
}

// TestInsertReusesTombstone deletes a middle slot and inserts: the freed
// slot number comes back. With no tombstone left, the next insert appends a
// new slot.
func TestInsertReusesTombstone(t *testing.T) {
	p := New()
	for i := 0; i < 3; i++ {
		if _, err := p.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	if slot, err := p.Insert([]byte("reused")); err != nil || slot != 1 {
		t.Fatalf("insert after delete = slot %d, %v; want the freed slot 1", slot, err)
	}
	if slot, err := p.Insert([]byte("new")); err != nil || slot != 3 || p.NumSlots() != 4 {
		t.Fatalf("insert without tombstones = slot %d, %v (%d slots); want new slot 3", slot, err, p.NumSlots())
	}
	if got, _ := p.Get(1); string(got) != "reused" {
		t.Fatalf("slot 1 holds %q", got)
	}
}

func TestPageFillsAndReportsFull(t *testing.T) {
	p := New()
	rec := bytes.Repeat([]byte("x"), 100)
	inserted := 0
	for {
		_, err := p.Insert(rec)
		if errors.Is(err, ErrPageFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		inserted++
		if inserted > Size {
			t.Fatal("page never fills")
		}
	}
	// 8 KiB page with 100-byte records + 4-byte slots: expect ~78 records.
	if inserted < 70 || inserted > 82 {
		t.Fatalf("inserted %d records, expected roughly 78", inserted)
	}
	if p.HasRoomFor(100) {
		t.Fatal("HasRoomFor(100) should be false on a full page")
	}
	if !p.HasRoomFor(0) && p.FreeSpace() > 0 {
		t.Fatal("inconsistent free space reporting")
	}
}

func TestTooLargeRecordRejected(t *testing.T) {
	p := New()
	if _, err := p.Insert(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatal("oversized record accepted")
	}
	if _, err := p.Insert(make([]byte, MaxRecordSize)); err != nil {
		t.Fatalf("max-size record rejected: %v", err)
	}
}

func TestCompactReclaimsSpace(t *testing.T) {
	p := New()
	var slots []int
	rec := bytes.Repeat([]byte("y"), 200)
	for {
		s, err := p.Insert(rec)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	// Delete every other record; free space counted from the frontier does
	// not grow until compaction.
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := p.FreeSpace()
	p.Compact()
	after := p.FreeSpace()
	if after <= before {
		t.Fatalf("compaction did not reclaim space: before=%d after=%d", before, after)
	}
	// Survivors must be intact and keep their slot numbers.
	for i := 1; i < len(slots); i += 2 {
		got, err := p.Get(slots[i])
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("record %d damaged by compaction: %v", slots[i], err)
		}
	}
	// And the reclaimed space is usable.
	if _, err := p.Insert(rec); err != nil {
		t.Fatalf("insert after compaction failed: %v", err)
	}
}

func TestForEachVisitsLiveRecordsInOrder(t *testing.T) {
	p := New()
	for i := 0; i < 10; i++ {
		if _, err := p.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.Delete(3)
	p.Delete(7)
	var seen []int
	p.ForEach(func(slot int, rec []byte) bool {
		seen = append(seen, int(rec[0]))
		return true
	})
	want := []int{0, 1, 2, 4, 5, 6, 8, 9}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("ForEach visited %v, want %v", seen, want)
	}
	// Early termination.
	count := 0
	p.ForEach(func(int, []byte) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early termination visited %d, want 3", count)
	}
}

func TestLoadBytesRoundTrip(t *testing.T) {
	p := New()
	s, _ := p.Insert([]byte("persist me"))
	img := append([]byte(nil), p.Bytes()...)

	q := New()
	if err := q.Load(img); err != nil {
		t.Fatal(err)
	}
	got, err := q.Get(s)
	if err != nil || string(got) != "persist me" {
		t.Fatalf("loaded page lost data: %q, %v", got, err)
	}
	if err := q.Load(make([]byte, 10)); err == nil {
		t.Fatal("short image accepted")
	}
}

// TestPageAgainstReferenceModel drives a page with random operations and
// compares against a map-based reference model.
func TestPageAgainstReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New()
		ref := map[int][]byte{}
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0, 1: // insert
				rec := make([]byte, 1+rng.Intn(64))
				rng.Read(rec)
				slot, err := p.Insert(rec)
				if err != nil {
					continue
				}
				if _, exists := ref[slot]; exists {
					t.Logf("slot %d reused while live", slot)
					return false
				}
				ref[slot] = rec
			case 2: // delete a random live slot
				for slot := range ref {
					if err := p.Delete(slot); err != nil {
						t.Logf("delete failed: %v", err)
						return false
					}
					delete(ref, slot)
					break
				}
			case 3: // update a random live slot
				for slot := range ref {
					rec := make([]byte, 1+rng.Intn(80))
					rng.Read(rec)
					if err := p.Update(slot, rec); err == nil {
						ref[slot] = rec
					}
					break
				}
			}
			if p.NumRecords() != len(ref) {
				t.Logf("live count %d != reference %d", p.NumRecords(), len(ref))
				return false
			}
		}
		for slot, want := range ref {
			got, err := p.Get(slot)
			if err != nil || !bytes.Equal(got, want) {
				t.Logf("slot %d mismatch", slot)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"slidb/internal/buffer"
	"slidb/internal/page"
)

func newTestFile(t *testing.T, frames int) *File {
	t.Helper()
	pool := buffer.NewPool(nil, buffer.Config{Frames: frames})
	return NewFile(1, pool)
}

func TestInsertGetUpdateDelete(t *testing.T) {
	f := newTestFile(t, 16)
	rid, err := f.Insert(nil, []byte("row one"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Get(nil, rid)
	if err != nil || string(got) != "row one" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := f.Update(nil, rid, []byte("row one, revised and longer")); err != nil {
		t.Fatal(err)
	}
	got, _ = f.Get(nil, rid)
	if string(got) != "row one, revised and longer" {
		t.Fatalf("after update: %q", got)
	}
	if err := f.Delete(nil, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(nil, rid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	if err := f.Update(nil, rid, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update after delete = %v, want ErrNotFound", err)
	}
	if err := f.Delete(nil, rid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
	if rid.String() == "" {
		t.Fatal("RID.String empty")
	}
}

func TestInsertSpansMultiplePages(t *testing.T) {
	f := newTestFile(t, 64)
	rec := bytes.Repeat([]byte("x"), 1000)
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := f.Insert(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if f.NumPages() < 10 {
		t.Fatalf("expected at least 10 pages for 100 KB of records, got %d", f.NumPages())
	}
	for _, rid := range rids {
		got, err := f.Get(nil, rid)
		if err != nil || len(got) != 1000 {
			t.Fatalf("record %v lost: %v", rid, err)
		}
	}
	if f.TableID() != 1 {
		t.Fatal("TableID wrong")
	}
}

func TestScanVisitsEverything(t *testing.T) {
	f := newTestFile(t, 32)
	want := map[string]bool{}
	for i := 0; i < 500; i++ {
		rec := fmt.Sprintf("record-%04d", i)
		if _, err := f.Insert(nil, []byte(rec)); err != nil {
			t.Fatal(err)
		}
		want[rec] = true
	}
	seen := map[string]bool{}
	if err := f.Scan(nil, func(rid RID, rec []byte) bool {
		seen[string(rec)] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Fatalf("scan saw %d records, want %d", len(seen), len(want))
	}
	// Early termination.
	count := 0
	f.Scan(nil, func(RID, []byte) bool { count++; return count < 10 })
	if count != 10 {
		t.Fatalf("early termination visited %d", count)
	}
}

func TestFreeSpaceReusedAfterDelete(t *testing.T) {
	f := newTestFile(t, 8)
	rec := bytes.Repeat([]byte("y"), 2000)
	var rids []RID
	for i := 0; i < 12; i++ {
		rid, err := f.Insert(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pagesBefore := f.NumPages()
	for _, rid := range rids[:6] {
		if err := f.Delete(nil, rid); err != nil {
			t.Fatal(err)
		}
	}
	// New inserts should fit into freed space without growing the file much.
	for i := 0; i < 6; i++ {
		if _, err := f.Insert(nil, rec); err != nil {
			t.Fatal(err)
		}
	}
	if f.NumPages() > pagesBefore+1 {
		t.Fatalf("file grew from %d to %d pages despite freed space", pagesBefore, f.NumPages())
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	f := newTestFile(t, 8)
	if _, err := f.Insert(nil, bytes.Repeat([]byte("z"), 9000)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestUpdateGrowingRecordCompactsPage(t *testing.T) {
	f := newTestFile(t, 8)
	// Fill a page almost completely, then grow one record: the page must
	// compact dead space rather than fail.
	small := bytes.Repeat([]byte("a"), 500)
	var rids []RID
	for i := 0; i < 15; i++ {
		rid, err := f.Insert(nil, small)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// Shrink one record (leaving dead space), then grow another into it.
	if err := f.Update(nil, rids[0], []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if err := f.Update(nil, rids[1], bytes.Repeat([]byte("b"), 700)); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get(nil, rids[1])
	if err != nil || len(got) != 700 {
		t.Fatalf("grown record lost: %d bytes, %v", len(got), err)
	}
}

func TestConcurrentInsertsAndReads(t *testing.T) {
	f := newTestFile(t, 256)
	var mu sync.Mutex
	all := map[RID][]byte{}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := []byte(fmt.Sprintf("g%d-i%d", g, i))
				rid, err := f.Insert(nil, rec)
				if err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				all[rid] = rec
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if len(all) != 8*200 {
		t.Fatalf("RIDs collided: %d unique for %d inserts", len(all), 8*200)
	}
	for rid, want := range all {
		got, err := f.Get(nil, rid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record %v = %q want %q (%v)", rid, got, want, err)
		}
	}
}

// TestAppendLoadScansLinearly loads fixed-size rows that leave every page a
// remainder too small for the next row, so every page stays in the free
// map. Without the bound each full append page rescans all of them, which
// makes the load quadratic in pages.
func TestAppendLoadScansLinearly(t *testing.T) {
	f := newTestFile(t, 16)
	rec := bytes.Repeat([]byte("r"), 100)
	for i := 0; i < 200_000; i++ {
		if _, err := f.Insert(nil, rec); err != nil {
			t.Fatal(err)
		}
	}
	pages := f.NumPages()
	if mapped := uint64(len(f.fsm.free)); mapped != pages {
		t.Fatalf("%d of %d pages keep a remainder; the load does not exercise the scan", mapped, pages)
	}
	if f.fsm.visited > 2*pages {
		t.Fatalf("loading %d pages visited %d free-map entries, want at most %d", pages, f.fsm.visited, 2*pages)
	}
}

// checkBound asserts the free space manager's invariant: every mapped page
// other than the append page has fewer than bound free bytes.
func checkBound(t *testing.T, f *File) {
	t.Helper()
	for p, free := range f.fsm.free {
		if p != f.fsm.appendPos && free >= f.fsm.bound {
			t.Fatalf("page %d has %d free bytes, bound is %d", p, free, f.fsm.bound)
		}
	}
}

// TestFreeSpaceBoundInvariant runs a seeded mix of inserts of random sizes,
// growing and shrinking updates and deletes, checking the bound after every
// operation and, before every insert, that choosePage allocates a new page
// only when a brute-force search of the free map finds no page with room.
func TestFreeSpaceBoundInvariant(t *testing.T) {
	f := newTestFile(t, 16)
	rng := rand.New(rand.NewSource(42))
	live := map[RID][]byte{}
	var rids []RID
	randomRecord := func(op int) []byte { return bytes.Repeat([]byte{byte(op)}, 1+rng.Intn(1+rng.Intn(3000))) }
	for op := 0; op < 5000; op++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(rids) == 0:
			rec := randomRecord(op)
			need := len(rec) + 8
			room := false
			for _, free := range f.fsm.free {
				room = room || free >= need
			}
			before := f.fsm.numPages
			if p := f.choosePage(nil, need); p >= before && room {
				t.Fatalf("op %d: allocated page %d for %d bytes while a page had room", op, p, need)
			} else if p < before && f.fsm.free[p] < need {
				t.Fatalf("op %d: chose page %d with %d free bytes for %d", op, p, f.fsm.free[p], need)
			}
			rid, err := f.Insert(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			live[rid] = rec
			rids = append(rids, rid)
		case r < 8:
			rid, rec := rids[rng.Intn(len(rids))], randomRecord(op)
			if err := f.Update(nil, rid, rec); err == nil {
				live[rid] = rec
			} else if !errors.Is(err, page.ErrPageFull) {
				t.Fatal(err)
			}
		default:
			i := rng.Intn(len(rids))
			if err := f.Delete(nil, rids[i]); err != nil {
				t.Fatal(err)
			}
			delete(live, rids[i])
			rids[i] = rids[len(rids)-1]
			rids = rids[:len(rids)-1]
		}
		checkBound(t, f)
	}
	for rid, want := range live {
		if got, err := f.Get(nil, rid); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record %v: %d bytes, %v; want %d bytes", rid, len(got), err, len(want))
		}
	}
}

// TestLoadKeepsOrderAndFreeSpace loads rows of mixed sizes behind a row
// stored by Insert. The RIDs must come back in row order, Scan must return
// the rows in that order, every page must keep a remainder, and the free
// space manager's bound must hold; an Insert afterwards still succeeds.
func TestLoadKeepsOrderAndFreeSpace(t *testing.T) {
	f := newTestFile(t, 16)
	first, err := f.Insert(nil, []byte("stored by Insert"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	rows := make([][]byte, 2000)
	for i := range rows {
		rows[i] = []byte(fmt.Sprintf("%05d%s", i, bytes.Repeat([]byte("x"), rng.Intn(600))))
	}
	rids, err := f.Load(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != len(rows) {
		t.Fatalf("Load returned %d RIDs for %d rows", len(rids), len(rows))
	}
	prev := first
	for i, rid := range rids {
		if rid.Page < prev.Page || rid.Page == prev.Page && rid.Slot <= prev.Slot || rid.Page == first.Page {
			t.Fatalf("row %d at %v after %v: not in row order on new pages", i, rid, prev)
		}
		prev = rid
	}
	var scanned [][]byte
	if err := f.Scan(nil, func(_ RID, rec []byte) bool { scanned = append(scanned, rec); return true }); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != len(rows)+1 {
		t.Fatalf("Scan returned %d rows, want %d", len(scanned), len(rows)+1)
	}
	for i, rec := range scanned[1:] {
		if !bytes.Equal(rec, rows[i]) {
			t.Fatalf("Scan row %d = %.10q, want %.10q", i+1, rec, rows[i])
		}
	}
	if mapped, pages := uint64(len(f.fsm.free)), f.NumPages(); pages < 10 || mapped != pages {
		t.Fatalf("%d of %d pages keep a remainder; want every one of at least 10", mapped, pages)
	}
	checkBound(t, f)
	rid, err := f.Insert(nil, []byte("after the load"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.Get(nil, rid); err != nil || string(got) != "after the load" {
		t.Fatalf("Get after the load = %q, %v", got, err)
	}
	checkBound(t, f)
}

// TestLoadRejectsOversizeRow loads a row one byte larger than a page holds.
func TestLoadRejectsOversizeRow(t *testing.T) {
	f := newTestFile(t, 16)
	rows := [][]byte{[]byte("fits"), make([]byte, page.MaxRecordSize+1)}
	if _, err := f.Load(rows); !errors.Is(err, page.ErrTooLarge) {
		t.Fatalf("Load of an oversize row = %v, want page.ErrTooLarge", err)
	}
}

// TestPlacementIsDeterministic replays one history — 2 000 rows of 100 bytes,
// every 7th deleted, 50 more inserted — on fresh files. Every run must place
// the later rows at the same RIDs, so one single-client history writes the
// same log and checkpoint every time.
func TestPlacementIsDeterministic(t *testing.T) {
	place := func() []RID {
		f := newTestFile(t, 16)
		rec := bytes.Repeat([]byte("p"), 100)
		var rids []RID
		for i := 0; i < 2000; i++ {
			rid, err := f.Insert(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		for i := 0; i < len(rids); i += 7 {
			if err := f.Delete(nil, rids[i]); err != nil {
				t.Fatal(err)
			}
		}
		var later []RID
		for i := 0; i < 50; i++ {
			rid, err := f.Insert(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			later = append(later, rid)
		}
		return later
	}
	want := place()
	for run := 1; run < 4; run++ {
		for i, rid := range place() {
			if rid != want[i] {
				t.Fatalf("run %d: insert %d after the deletes went to %v, the first run's to %v", run, i, rid, want[i])
			}
		}
	}
}

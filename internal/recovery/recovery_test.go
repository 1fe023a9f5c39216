package recovery

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"slidb/internal/catalog"
	"slidb/internal/record"
	"slidb/internal/wal"
)

// pendingLSNs returns the LSNs of the records analysis kept for undo.
func pendingLSNs(recs []wal.Record) []wal.LSN {
	var out []wal.LSN
	for _, r := range recs {
		out = append(out, r.LSN)
	}
	return out
}

// sliceIter returns an Iterator over an in-memory record slice.
func sliceIter(recs []wal.Record) Iterator {
	return func(fn func(wal.Record) error) error {
		for _, r := range recs {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestAnalyzeClassifiesWinnersAndLosers(t *testing.T) {
	recs := []wal.Record{
		{LSN: 1, XID: 1, Type: wal.RecBegin},
		{LSN: 2, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("a")},
		{LSN: 3, XID: 2, Type: wal.RecBegin},
		{LSN: 4, XID: 2, Type: wal.RecInsert, Table: 1, After: []byte("b")},
		{LSN: 5, XID: 1, Type: wal.RecCommit},
		{LSN: 6, XID: 3, Type: wal.RecBegin}, // in flight at crash
		{LSN: 7, XID: 3, Type: wal.RecUpdate, Table: 1, Before: []byte("a"), After: []byte("c")},
		{LSN: 8, XID: 2, Type: wal.RecCLR, Table: 1, Before: []byte("b"), UndoNext: 0},
		{LSN: 9, XID: 2, Type: wal.RecAbort},  // aborted before crash
		{LSN: 10, XID: 4, Type: wal.RecBegin}, // crashed mid-rollback
		{LSN: 11, XID: 4, Type: wal.RecInsert, Table: 1, After: []byte("d")},
		{LSN: 12, XID: 4, Type: wal.RecInsert, Table: 1, After: []byte("e")},
		{LSN: 13, XID: 4, Type: wal.RecCLR, Table: 1, Before: []byte("e"), UndoNext: 11},
	}
	an, err := Analyze(sliceIter(recs))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := an.Winners[1]; !ok {
		t.Error("xid 1 committed but not a winner")
	}
	for _, xid := range []uint64{2, 3, 4} {
		if _, ok := an.Winners[xid]; ok {
			t.Errorf("xid %d must not be a winner", xid)
		}
		if _, ok := an.Losers[xid]; !ok {
			t.Errorf("xid %d must be a loser", xid)
		}
	}
	// xid 2's rollback is fully logged: nothing left for the undo pass.
	if _, ok := an.RolledBack[2]; !ok {
		t.Error("xid 2 has a durable abort record but is not classified as rolled back")
	}
	if an.NeedsUndo(2) {
		t.Error("xid 2 must not need restart undo")
	}
	// xid 3 crashed in flight with no CLR: everything needs undoing.
	if !an.NeedsUndo(3) || !reflect.DeepEqual(pendingLSNs(an.Pending[3]), []wal.LSN{7}) {
		t.Errorf("xid 3: NeedsUndo=%v pending=%v, want true/[7]", an.NeedsUndo(3), pendingLSNs(an.Pending[3]))
	}
	// xid 4 crashed mid-rollback: only the record its durable CLR did not
	// compensate is still pending.
	if !an.NeedsUndo(4) || !reflect.DeepEqual(pendingLSNs(an.Pending[4]), []wal.LSN{11}) {
		t.Errorf("xid 4: NeedsUndo=%v pending=%v, want true/[11]", an.NeedsUndo(4), pendingLSNs(an.Pending[4]))
	}
	if an.MaxLSN != 13 || an.MaxXID != 4 || an.Scanned != len(recs) {
		t.Errorf("analysis = %+v", an)
	}
}

// fakeApplier records replay calls.
type fakeApplier struct {
	ops []string
}

func (f *fakeApplier) CreateTable(m catalog.TableMeta) error {
	f.ops = append(f.ops, "create-table:"+m.Name)
	return nil
}
func (f *fakeApplier) CreateIndex(m catalog.IndexMeta) error {
	f.ops = append(f.ops, "create-index:"+m.Name)
	return nil
}
func (f *fakeApplier) Insert(table uint32, after []byte) error {
	f.ops = append(f.ops, "insert:"+string(after))
	return nil
}
func (f *fakeApplier) Update(table uint32, before, after []byte) error {
	f.ops = append(f.ops, "update:"+string(before)+"->"+string(after))
	return nil
}
func (f *fakeApplier) Delete(table uint32, before []byte) error {
	f.ops = append(f.ops, "delete:"+string(before))
	return nil
}

func TestRedoRepeatsHistoryIncludingCLRs(t *testing.T) {
	tblMeta := catalog.TableMeta{
		ID: 1, Name: "t",
		Columns:    []record.Column{{Name: "id", Type: record.TypeInt}},
		PrimaryKey: []string{"id"},
	}
	recs := []wal.Record{
		{LSN: 1, Type: wal.RecCreateTable, After: tblMeta.Encode()},
		{LSN: 2, XID: 1, Type: wal.RecBegin},
		{LSN: 3, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("w1")},
		{LSN: 4, XID: 2, Type: wal.RecInsert, Table: 1, After: []byte("loser")},
		{LSN: 5, XID: 1, Type: wal.RecUpdate, Table: 1, Before: []byte("w1"), After: []byte("w2")},
		{LSN: 6, XID: 1, Type: wal.RecCommit},
		// xid 2 rolled back before the crash: its CLR chain repeats verbatim.
		{LSN: 7, XID: 2, Type: wal.RecCLR, Table: 1, Before: []byte("loser"), UndoNext: 0},
		{LSN: 8, XID: 2, Type: wal.RecAbort},
		{LSN: 9, XID: 3, Type: wal.RecInsert, Table: 1, After: []byte("w3")},
		{LSN: 10, XID: 3, Type: wal.RecDelete, Table: 1, Before: []byte("w3")},
		{LSN: 11, XID: 3, Type: wal.RecCommit},
	}
	alone, err := Analyze(sliceIter(recs))
	if err != nil {
		t.Fatal(err)
	}
	ap := &fakeApplier{}
	an, st, err := Redo(sliceIter(recs), ap)
	if err != nil {
		t.Fatal(err)
	}
	// Redo runs the analysis step on every record it replays: its Analysis
	// is the one the analysis step alone produces.
	if !reflect.DeepEqual(an, alone) {
		t.Errorf("Redo's analysis = %+v, Analyze's = %+v", an, alone)
	}
	want := []string{
		"create-table:t",
		"insert:w1",
		"insert:loser",
		"update:w1->w2",
		"delete:loser", // xid 2's CLR compensates its insert
		"insert:w3",
		"delete:w3",
	}
	if !reflect.DeepEqual(ap.ops, want) {
		t.Errorf("replayed ops = %v, want %v", ap.ops, want)
	}
	if st.Redone != 5 || st.CLRs != 1 || st.DDL != 1 {
		t.Errorf("stats = %+v", st)
	}
	// xid 2's rollback completed via redo alone; the undo pass has nothing.
	ust, err := Undo(an, ap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ust.Undone != 0 || ust.TxUndone != 0 {
		t.Errorf("undo stats = %+v, want all zero", ust)
	}
}

// TestUndoResumesPartialRollback pins the restart-undo contract: a rollback
// interrupted at a CLR boundary is completed from the last durable CLR's
// UndoNext — the already-compensated record is not undone a second time —
// while a loser with no CLR chain is undone in full, newest record first.
func TestUndoResumesPartialRollback(t *testing.T) {
	recs := []wal.Record{
		{LSN: 1, XID: 1, Type: wal.RecBegin},
		{LSN: 2, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("a")},
		{LSN: 3, XID: 1, Type: wal.RecUpdate, Table: 1, Before: []byte("x1"), After: []byte("x2")},
		{LSN: 4, XID: 1, Type: wal.RecDelete, Table: 1, Before: []byte("gone")},
		// Rollback started: the delete at LSN 4 was compensated (row
		// re-inserted), then the crash hit. UndoNext points at LSN 3.
		{LSN: 5, XID: 1, Type: wal.RecCLR, Table: 1, After: []byte("gone"), UndoNext: 3},
		// A second loser with no CLRs at all.
		{LSN: 6, XID: 2, Type: wal.RecInsert, Table: 1, After: []byte("b")},
	}
	an, err := Analyze(sliceIter(recs))
	if err != nil {
		t.Fatal(err)
	}
	ap := &fakeApplier{}
	var logged []wal.Record
	st, err := Undo(an, ap, func(rec wal.Record) error {
		logged = append(logged, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"delete:b",      // xid 2's insert, newest uncompensated record first
		"update:x2->x1", // xid 1 resumes at LSN 3
		"delete:a",      // then its first action
	}
	if !reflect.DeepEqual(ap.ops, want) {
		t.Errorf("undone ops = %v, want %v", ap.ops, want)
	}
	if st.Undone != 3 || st.TxUndone != 2 || st.Resumed != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The restart undo logs itself: a CLR per undone record (UndoNext
	// chaining within each transaction) and an abort record closing each
	// completed rollback, so the next restart treats both transactions as
	// fully rolled back instead of undoing them again.
	wantLog := []wal.Record{
		{Type: wal.RecCLR, XID: 2, Table: 1, Before: []byte("b")},
		{Type: wal.RecAbort, XID: 2},
		{Type: wal.RecCLR, XID: 1, Table: 1, Before: []byte("x2"), After: []byte("x1"), UndoNext: 2},
		{Type: wal.RecCLR, XID: 1, Table: 1, Before: []byte("a")},
		{Type: wal.RecAbort, XID: 1},
	}
	if !reflect.DeepEqual(logged, wantLog) {
		t.Errorf("logged records:\ngot  %+v\nwant %+v", logged, wantLog)
	}
}

// TestUndoAfterSavepointContinuation pins the analysis/undo fix that
// savepoints (tx.RollbackTo) force: a data record logged AFTER a CLR chain
// belongs to a transaction that partially rolled back and kept working. If
// the crash then interrupts it, undo must roll back both the continuation
// records (above the last CLR) and the uncompensated prefix (at or below
// the resume point) — but never the compensated span in between — even when
// the chain had closed at UndoNext 0, which used to classify the whole
// transaction as fully rolled back.
func TestUndoAfterSavepointContinuation(t *testing.T) {
	recs := []wal.Record{
		{LSN: 1, XID: 1, Type: wal.RecBegin},
		{LSN: 2, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("pre")},
		// Savepoint taken here; the next two records are its span.
		{LSN: 3, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("sp1")},
		{LSN: 4, XID: 1, Type: wal.RecUpdate, Table: 1, Before: []byte("p1"), After: []byte("p2")},
		// RollbackTo: the span is compensated, newest first, chaining past
		// it to the pre-savepoint insert at LSN 2.
		{LSN: 5, XID: 1, Type: wal.RecCLR, Table: 1, Before: []byte("p2"), After: []byte("p1"), UndoNext: 3},
		{LSN: 6, XID: 1, Type: wal.RecCLR, Table: 1, Before: []byte("sp1"), UndoNext: 2},
		// The transaction continues and crashes before committing.
		{LSN: 7, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("cont")},
	}
	an, err := Analyze(sliceIter(recs))
	if err != nil {
		t.Fatal(err)
	}
	if !an.NeedsUndo(1) {
		t.Fatal("continuation records must keep the transaction in the undo set")
	}
	ap := &fakeApplier{}
	var logged []wal.Record
	st, err := Undo(an, ap, func(rec wal.Record) error {
		logged = append(logged, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The continuation insert (LSN 7) and the pre-savepoint insert (LSN 2)
	// are undone, newest first; the compensated span (LSNs 3-4) is not.
	want := []string{"delete:cont", "delete:pre"}
	if !reflect.DeepEqual(ap.ops, want) {
		t.Errorf("undone ops = %v, want %v", ap.ops, want)
	}
	if st.Undone != 2 || st.TxUndone != 1 || st.Resumed != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The restart-logged chain bridges the compensated span: the
	// continuation's CLR points at the pre-savepoint insert.
	wantLog := []wal.Record{
		{Type: wal.RecCLR, XID: 1, Table: 1, Before: []byte("cont"), UndoNext: 2},
		{Type: wal.RecCLR, XID: 1, Table: 1, Before: []byte("pre")},
		{Type: wal.RecAbort, XID: 1},
	}
	if !reflect.DeepEqual(logged, wantLog) {
		t.Errorf("logged records:\ngot  %+v\nwant %+v", logged, wantLog)
	}

	// Two RollbackTo calls before the crash leave two SEPARATE interior
	// compensated spans — the case a single resume-point watermark cannot
	// represent (it would re-undo the first span because its records sit
	// below the second chain's UndoNext). The exact Pending simulation must
	// leave only the two uncompensated inserts.
	recsTwice := []wal.Record{
		{LSN: 1, XID: 1, Type: wal.RecBegin},
		{LSN: 2, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("a")},
		{LSN: 3, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("b")}, // span 1
		{LSN: 4, XID: 1, Type: wal.RecCLR, Table: 1, Before: []byte("b"), UndoNext: 2},
		{LSN: 5, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("c")},
		{LSN: 6, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("d")}, // span 2
		{LSN: 7, XID: 1, Type: wal.RecCLR, Table: 1, Before: []byte("d"), UndoNext: 5},
	}
	anT, err := Analyze(sliceIter(recsTwice))
	if err != nil {
		t.Fatal(err)
	}
	if got := pendingLSNs(anT.Pending[1]); !reflect.DeepEqual(got, []wal.LSN{2, 5}) {
		t.Fatalf("Pending after two partial rollbacks = %v, want [2 5]", got)
	}
	apT := &fakeApplier{}
	stT, err := Undo(anT, apT, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(apT.ops, []string{"delete:c", "delete:a"}) {
		t.Fatalf("undone ops = %v, want [delete:c delete:a] (compensated spans must not be re-undone)", apT.ops)
	}
	if stT.Undone != 2 || stT.TxUndone != 1 {
		t.Fatalf("stats = %+v", stT)
	}

	// The same shape with the chain closed at UndoNext 0 before the
	// continuation: only the continuation record needs undoing, and a
	// re-analysis of the log WITH the new abort record appended must
	// classify the transaction as fully rolled back.
	recs2 := []wal.Record{
		{LSN: 1, XID: 1, Type: wal.RecBegin},
		{LSN: 2, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("sp1")},
		{LSN: 3, XID: 1, Type: wal.RecCLR, Table: 1, Before: []byte("sp1"), UndoNext: 0},
		{LSN: 4, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("cont")},
	}
	an2, err := Analyze(sliceIter(recs2))
	if err != nil {
		t.Fatal(err)
	}
	if !an2.NeedsUndo(1) {
		t.Fatal("UndoNext 0 followed by a data record must re-open the undo obligation")
	}
	ap2 := &fakeApplier{}
	st2, err := Undo(an2, ap2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ap2.ops, []string{"delete:cont"}) || st2.Undone != 1 {
		t.Errorf("undone ops = %v (stats %+v), want just delete:cont", ap2.ops, st2)
	}
}

// TestRestartReadsLogOnce pins restart to one read of the log tail: Redo
// analyzes and replays each record as it goes, and Undo works from the
// records analysis kept, never from the log. The log holds a winner, a
// completed rollback, a loser whose rollback a crash interrupted after a
// RollbackTo continuation, and an in-flight loser, interleaved. The expected
// replay calls and restart-logged records are what the earlier three-pass
// restart (Analyze, Redo and Undo each reading the log) produced on this log.
func TestRestartReadsLogOnce(t *testing.T) {
	recs := []wal.Record{
		{LSN: 10, XID: 1, Type: wal.RecBegin},
		{LSN: 20, XID: 1, Type: wal.RecInsert, Table: 1, After: []byte("w1")},
		{LSN: 30, XID: 3, Type: wal.RecInsert, Table: 1, After: []byte("a")},
		{LSN: 40, XID: 2, Type: wal.RecInsert, Table: 1, After: []byte("r1")},
		{LSN: 50, XID: 4, Type: wal.RecInsert, Table: 1, After: []byte("f1")},
		{LSN: 60, XID: 3, Type: wal.RecUpdate, Table: 1, Before: []byte("x1"), After: []byte("x2")},
		{LSN: 70, XID: 1, Type: wal.RecUpdate, Table: 1, Before: []byte("w1"), After: []byte("w2")},
		// xid 3 rolls back to the savepoint it took after LSN 30.
		{LSN: 80, XID: 3, Type: wal.RecCLR, Table: 1, Before: []byte("x2"), After: []byte("x1"), UndoNext: 30},
		{LSN: 90, XID: 2, Type: wal.RecCLR, Table: 1, Before: []byte("r1")},
		{LSN: 100, XID: 1, Type: wal.RecCommit},
		{LSN: 110, XID: 2, Type: wal.RecAbort},
		// xid 3 continues past its savepoint, then starts a full rollback
		// that the crash interrupts after one CLR.
		{LSN: 120, XID: 3, Type: wal.RecDelete, Table: 1, Before: []byte("g")},
		{LSN: 130, XID: 4, Type: wal.RecUpdate, Table: 1, Before: []byte("f1"), After: []byte("f2")},
		{LSN: 140, XID: 3, Type: wal.RecInsert, Table: 1, After: []byte("c")},
		{LSN: 150, XID: 3, Type: wal.RecCLR, Table: 1, Before: []byte("c"), UndoNext: 120},
		{LSN: 160, XID: 4, Type: wal.RecDelete, Table: 1, Before: []byte("f2")},
	}
	reads := 0
	iter := func(fn func(wal.Record) error) error {
		reads++
		return sliceIter(recs)(fn)
	}
	ap := &fakeApplier{}
	an, rst, err := Redo(iter, ap)
	if err != nil {
		t.Fatal(err)
	}
	var logged []wal.Record
	ust, err := Undo(an, ap, func(rec wal.Record) error {
		logged = append(logged, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if reads != 1 {
		t.Errorf("restart read the log %d times, want 1", reads)
	}
	wantOps := []string{
		// Redo repeats history, losers and CLRs included.
		"insert:w1", "insert:a", "insert:r1", "insert:f1", "update:x1->x2",
		"update:w1->w2", "update:x2->x1", "delete:r1", "delete:g",
		"update:f1->f2", "insert:c", "delete:c", "delete:f2",
		// Undo: newest uncompensated record first, across transactions.
		"insert:f2", "update:f2->f1", "insert:g", "delete:f1", "delete:a",
	}
	if !reflect.DeepEqual(ap.ops, wantOps) {
		t.Errorf("applier calls:\ngot  %v\nwant %v", ap.ops, wantOps)
	}
	wantLog := []wal.Record{
		{Type: wal.RecCLR, XID: 4, Table: 1, After: []byte("f2"), UndoNext: 130},
		{Type: wal.RecCLR, XID: 4, Table: 1, Before: []byte("f2"), After: []byte("f1"), UndoNext: 50},
		{Type: wal.RecCLR, XID: 3, Table: 1, After: []byte("g"), UndoNext: 30},
		{Type: wal.RecCLR, XID: 4, Table: 1, Before: []byte("f1")},
		{Type: wal.RecAbort, XID: 4},
		{Type: wal.RecCLR, XID: 3, Table: 1, Before: []byte("a")},
		{Type: wal.RecAbort, XID: 3},
	}
	if !reflect.DeepEqual(logged, wantLog) {
		t.Errorf("logged records:\ngot  %+v\nwant %+v", logged, wantLog)
	}
	if rst != (RedoStats{Redone: 10, CLRs: 3}) || ust != (UndoStats{Undone: 5, TxUndone: 2, Resumed: 1}) {
		t.Errorf("redo stats %+v, undo stats %+v", rst, ust)
	}
	if an.Scanned != len(recs) || len(an.Winners) != 1 || len(an.Losers) != 3 || len(an.RolledBack) != 1 {
		t.Errorf("analysis = %+v", an)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// Absent checkpoint reads as "not there", not an error.
	if _, ok, err := ReadCheckpoint(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}

	snap := &Snapshot{
		LSN:     123,
		NextXID: 456,
		Tables: []TableSnapshot{
			{
				Meta: catalog.TableMeta{
					ID: 1, Name: "accounts",
					Columns: []record.Column{
						{Name: "id", Type: record.TypeInt},
						{Name: "name", Type: record.TypeString},
					},
					PrimaryKey: []string{"id"},
				},
				Rows: [][]byte{[]byte("row-one"), []byte("row-two"), {}},
			},
			{
				Meta: catalog.TableMeta{
					ID: 2, Name: "empty",
					Columns:    []record.Column{{Name: "k", Type: record.TypeFloat}},
					PrimaryKey: []string{"k"},
				},
			},
		},
		Indexes: []catalog.IndexMeta{
			{Name: "accounts_by_name", TableID: 1, Columns: []string{"name"}, Unique: false},
		},
	}
	if err := WriteCheckpoint(dir, snap); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("read back: ok=%v err=%v", ok, err)
	}
	if got.LSN != snap.LSN || got.NextXID != snap.NextXID {
		t.Errorf("header: got %d/%d want %d/%d", got.LSN, got.NextXID, snap.LSN, snap.NextXID)
	}
	if len(got.Tables) != 2 || got.Tables[0].Meta.Name != "accounts" || len(got.Tables[0].Rows) != 3 {
		t.Errorf("tables: %+v", got.Tables)
	}
	if string(got.Tables[0].Rows[1]) != "row-two" {
		t.Errorf("row payload corrupted: %q", got.Tables[0].Rows[1])
	}
	if !reflect.DeepEqual(got.Indexes, snap.Indexes) {
		t.Errorf("indexes: %+v", got.Indexes)
	}

	// Overwriting is atomic: a second checkpoint replaces the first.
	snap2 := &Snapshot{LSN: 999, NextXID: 1}
	if err := WriteCheckpoint(dir, snap2); err != nil {
		t.Fatal(err)
	}
	got2, ok, err := ReadCheckpoint(dir)
	if err != nil || !ok || got2.LSN != 999 {
		t.Fatalf("second checkpoint: %+v ok=%v err=%v", got2, ok, err)
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, &Snapshot{LSN: 7}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CheckpointFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff // flip a payload byte under the CRC
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(dir); err == nil {
		t.Fatal("corrupt checkpoint read back without error")
	}

	// Payloads whose checksum is right but whose counts lie: a table claiming
	// 2^60 rows, and a row claiming a length that overflows int. Both must
	// fail as corrupt, without sizing an allocation from the claim.
	meta := catalog.TableMeta{ID: 1, Name: "t", Columns: []record.Column{{Name: "k", Type: record.TypeInt}}, PrimaryKey: []string{"k"}}.Encode()
	for _, tail := range [][]uint64{{1 << 60}, {1, 1<<64 - 1}} {
		payload := binary.AppendUvarint(nil, 7)    // LSN
		payload = binary.AppendUvarint(payload, 1) // NextXID
		payload = binary.AppendUvarint(payload, 1) // tables
		payload = binary.AppendUvarint(payload, uint64(len(meta)))
		payload = append(payload, meta...)
		for _, v := range tail { // row count, then row lengths
			payload = binary.AppendUvarint(payload, v)
		}
		payload = append(payload, 'x')
		file := binary.LittleEndian.AppendUint64(append([]byte(nil), checkpointMagic...), uint64(len(payload)))
		file = binary.LittleEndian.AppendUint32(append(file, payload...), crc32.ChecksumIEEE(payload))
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadCheckpoint(dir)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("counts %v: err = %v, want ErrBadCheckpoint", tail, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("counts %v: reading a %d-byte checkpoint allocated %d bytes", tail, len(file), grew)
		}
	}
}

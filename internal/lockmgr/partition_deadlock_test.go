package lockmgr

import (
	"errors"
	"testing"
	"time"
)

// crossDeadlock drives the classic two-owner cycle: A holds ra and wants rb,
// B holds rb and wants ra. It returns once the cycle has been broken and
// both owners have released, failing the test if detection never fires.
func crossDeadlock(t *testing.T, m *Manager, ra, rb LockID) {
	t.Helper()
	a := m.NewOwner(nil, nil)
	b := m.NewOwner(nil, nil)
	if err := a.Lock(ra, X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(rb, X); err != nil {
		t.Fatal(err)
	}
	aDone := make(chan error, 1)
	bDone := make(chan error, 1)
	go func() {
		err := a.Lock(rb, X)
		a.ReleaseAll()
		aDone <- err
	}()
	go func() {
		err := b.Lock(ra, X)
		b.ReleaseAll()
		bDone <- err
	}()
	errA, errB := <-aDone, <-bDone
	victims := 0
	for _, err := range []error{errA, errB} {
		switch {
		case err == nil:
		case errors.Is(err, ErrDeadlock):
			victims++
		default:
			t.Fatalf("unexpected lock error: %v", err)
		}
	}
	if victims == 0 {
		t.Fatalf("no deadlock victim (errA=%v errB=%v)", errA, errB)
	}
}

// TestDeadlockLocalPartition drives a cycle on a single-partition lock
// table through the blocked owners' own probes: it must be found and counted.
func TestDeadlockLocalPartition(t *testing.T) {
	m := New(Config{
		Partitions:         1,
		DeadlockCheckEvery: time.Millisecond,
		LockTimeout:        30 * time.Second,
	})
	crossDeadlock(t, m, RecordLock(1, 1, 1, 1), RecordLock(1, 1, 1, 2))
	if s := m.Stats().Snapshot(); s.Deadlocks == 0 {
		t.Fatal("Deadlocks counter not incremented")
	}
}

// TestDeadlockCrossPartitionEscalation holds the search to one pass over the
// whole wait-for graph: the very first probe finds a two-owner cycle whose
// lock heads live in different lock-table partitions. The owners never probe
// themselves; the lock timeout unwinds the cycle afterwards.
func TestDeadlockCrossPartitionEscalation(t *testing.T) {
	m := New(Config{
		Partitions:         128,
		DeadlockCheckEvery: time.Hour,
		LockTimeout:        time.Second,
	})
	// Find two record locks in different lock-table partitions.
	ra := RecordLock(1, 1, 1, 1)
	rb := ra
	for slot := uint32(2); ; slot++ {
		rb = RecordLock(1, 1, 1, slot)
		if m.table.partitionIndex(rb) != m.table.partitionIndex(ra) {
			break
		}
	}
	a, b := m.NewOwner(nil, nil), m.NewOwner(nil, nil)
	mustLock(t, a, ra, X)
	mustLock(t, b, rb, X)
	done := make(chan error, 2)
	for _, w := range []struct {
		o  *Owner
		id LockID
	}{{a, rb}, {b, ra}} {
		go func() {
			err := w.o.Lock(w.id, X)
			w.o.ReleaseAll()
			done <- err
		}()
		waitBlocked(t, w.o)
	}
	if !m.detectDeadlock(a) {
		t.Error("the first probe missed the cross-partition cycle")
	}
	timeouts := 0
	for range 2 {
		switch err := <-done; {
		case errors.Is(err, ErrLockTimeout):
			timeouts++
		case err != nil:
			t.Fatal(err)
		}
	}
	if timeouts != 1 {
		t.Fatalf("%d lock timeouts unwound the cycle, want 1", timeouts)
	}
}

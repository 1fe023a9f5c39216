package lockmgr

import "testing"

// TestLockTableSweepKeepsHeldRetiresIdle churns a one-partition table
// through many more locks than it keeps heads for: the head of a lock that
// stays held must survive every sweep, idle heads must be retired rather than
// accumulate, and a held lock's head must always be found.
func TestLockTableSweepKeepsHeldRetiresIdle(t *testing.T) {
	m := New(Config{Partitions: 1})
	keeper := m.NewOwner(nil, nil)
	kept := RecordLock(1, 9, 9, 9)
	mustLock(t, keeper, kept, X)
	keptHead := m.table.lookup(kept, kept.hash())

	a := m.NewAgent()
	for i := 0; i < 5000; i++ {
		id := RecordLock(1, 1, uint64(i/64), uint32(i%64))
		o := m.NewOwner(a, nil)
		mustLock(t, o, id, S)
		if h := m.table.lookup(id, id.hash()); h == nil || h.id != id || h.dead {
			t.Fatalf("lock %v is held but its head is %+v", id, h)
		}
		o.ReleaseAll()
	}
	p := &m.table.parts[0]
	if p.count > p.limit || p.limit > 2*minSweepLimit {
		t.Fatalf("partition holds %d heads (limit %d) after 5000 short locks: idle heads were not retired", p.count, p.limit)
	}
	if h := m.table.lookup(kept, kept.hash()); h != keptHead || h.dead || h.queue.empty() {
		t.Fatalf("the held lock's head did not survive the sweeps: %+v", h)
	}
	if got := m.ActiveLocks(); got != 4 {
		t.Fatalf("ActiveLocks = %d, want the keeper's 4", got)
	}
	keeper.ReleaseAll()
	if got := m.ActiveLocks(); got != 0 {
		t.Fatalf("ActiveLocks = %d at rest, want 0", got)
	}
}

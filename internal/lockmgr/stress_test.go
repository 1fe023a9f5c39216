package lockmgr

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// shadowTable is the stress test's independent record of who holds what: for
// every LockID, the mode each agent's current transaction was granted. A
// grant that is incompatible with another agent's entry means the lock
// manager handed out conflicting locks.
type shadowTable struct {
	mu      sync.Mutex
	holders map[LockID]map[int]Mode
}

// grant records that agent holds id in mode and returns the first conflict
// with another agent's entry, if any.
func (s *shadowTable) grant(agent int, id LockID, mode Mode) (other int, otherMode Mode, conflict bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hs := s.holders[id]
	if hs == nil {
		hs = make(map[int]Mode)
		s.holders[id] = hs
	}
	hs[agent] = mode
	for a, m := range hs {
		if a != agent && !Compatible(mode, m) {
			return a, m, true
		}
	}
	return 0, NL, false
}

// drop forgets what agent holds on ids. It must be called before the
// transaction's ReleaseAll, while the locks are still held.
func (s *shadowTable) drop(agent int, ids []LockID) {
	s.mu.Lock()
	for _, id := range ids {
		if hs := s.holders[id]; hs != nil {
			if delete(hs, agent); len(hs) == 0 {
				delete(s.holders, id)
			}
		}
	}
	s.mu.Unlock()
}

// stressIDs is the key space: 2 tables x 2 pages x 4 slots = 16 records.
func stressRecord(r *rand.Rand) LockID {
	return RecordLock(1, uint32(1+r.Intn(2)), uint64(r.Intn(2)), uint32(r.Intn(4)))
}

// TestRecyclingStress drives owner, request and lock-head recycling from 8
// agents at once over a tiny key space — shared and exclusive record locks
// taken in random order (so lock-order inversions and deadlocks are routine),
// S→X and IS→IX conversions, the occasional table lock that invalidates
// inherited intention locks, SLI on with every ancestor forced hot, and a
// lock timeout short enough to fire — and checks after every grant that no
// two agents hold incompatible modes on one lock. Run it under -race.
func TestRecyclingStress(t *testing.T) {
	const agents = 8
	xcts := 3000
	if testing.Short() {
		xcts = 300
	}
	m := New(Config{
		SLI:                true,
		Partitions:         2, // with the private records below: sweeps and head reuse
		DeadlockCheckEvery: 200 * time.Microsecond,
		LockTimeout:        20 * time.Millisecond,
	})
	// Uncontended acquisitions cool a lock down again, so the ancestors are
	// re-heated throughout the run.
	forceHot := func() {
		m.ForceHot(DatabaseLock(1))
		for tbl := uint32(1); tbl <= 2; tbl++ {
			m.ForceHot(TableLock(1, tbl))
			for pg := uint64(0); pg < 2; pg++ {
				m.ForceHot(PageLock(1, tbl, pg))
			}
		}
	}
	forceHot()
	shadow := &shadowTable{holders: make(map[LockID]map[int]Mode)}
	ags := make([]*Agent, agents)
	var wg sync.WaitGroup
	for g := range ags {
		ags[g] = m.NewAgent()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 1))
			// lock takes id in mode and checks the whole path against the
			// shadow table; mine collects what the transaction registered.
			var mine []LockID
			lock := func(o *Owner, id LockID, mode Mode) error {
				if err := o.Lock(id, mode); err != nil {
					return err
				}
				for cur, ok := id, true; ok; cur, ok = cur.Parent() {
					held := o.HeldMode(cur)
					if held == NL {
						t.Errorf("agent %d: %v not held after Lock(%v, %v)", g, cur, id, mode)
					}
					mine = append(mine, cur)
					if other, om, bad := shadow.grant(g, cur, held); bad {
						t.Errorf("agent %d granted %v on %v while agent %d holds %v", g, held, cur, other, om)
					}
				}
				return nil
			}
			for i := 0; i < xcts && !t.Failed(); i++ {
				if i%16 == g {
					forceHot()
				}
				o := m.NewOwner(ags[g], nil)
				var err error
				for n := 1 + r.Intn(3); n > 0 && err == nil; n-- {
					id := stressRecord(r)
					switch p := r.Intn(100); {
					case p < 50:
						err = lock(o, id, S)
					case p < 80:
						err = lock(o, id, X)
					case p < 95: // read, then write: S→X on the record, IS→IX above
						if err = lock(o, id, S); err == nil {
							runtime.Gosched()
							err = lock(o, id, X)
						}
					default: // a table lock conflicts with inherited IS/IX
						err = lock(o, TableLock(1, id.Table), []Mode{S, X}[r.Intn(2)])
					}
					if r.Intn(4) == 0 {
						runtime.Gosched()
					}
				}
				if err == nil && i%2 == 0 {
					// A record nobody else touches, new every time: the lock
					// table keeps creating, retiring and reusing heads next
					// to the contended ones.
					err = lock(o, RecordLock(1, 3, uint64(g), uint32(i)), X)
				}
				if err != nil && !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrLockTimeout) {
					t.Errorf("agent %d: %v", g, err)
				}
				shadow.drop(g, mine)
				mine = mine[:0]
				o.ReleaseAll()
				// A victim's (and everyone else's) locks are gone afterwards.
				if n := o.HeldCount(); n != 0 {
					t.Errorf("agent %d: %d locks held after ReleaseAll (err=%v)", g, n, err)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every request passed on is accounted for: reclaimed, invalidated,
	// discarded, or still parked on its agent.
	s := m.Stats().Snapshot()
	pending := uint64(0)
	for _, a := range ags {
		pending += uint64(a.PendingInherited())
	}
	if s.SLIPassed != s.SLIReclaimed+s.SLIInvalidated+s.SLIDiscarded+pending {
		t.Errorf("SLIPassed=%d != reclaimed %d + invalidated %d + discarded %d + pending %d",
			s.SLIPassed, s.SLIReclaimed, s.SLIInvalidated, s.SLIDiscarded, pending)
	}
	if s.SLIPassed == 0 || s.SLIReclaimed == 0 || s.SLIInvalidated == 0 || s.Conversions == 0 || s.Deadlocks+s.Timeouts == 0 {
		t.Errorf("the stress did not reach every path: %+v", s)
	}
	if s.Transactions != uint64(agents*xcts) {
		t.Errorf("Transactions = %d, want %d", s.Transactions, agents*xcts)
	}
	t.Logf("%d deadlocks, %d timeouts, %d waits, %d conversions; SLI passed %d, reclaimed %d, invalidated %d, discarded %d",
		s.Deadlocks, s.Timeouts, s.Waits, s.Conversions, s.SLIPassed, s.SLIReclaimed, s.SLIInvalidated, s.SLIDiscarded)

	// Drain the inherited requests; the table and the free lists must be
	// back at their idle size: no active lock, every request an agent ever
	// allocated (and kept) on its free list.
	m.SetSLI(false)
	for _, a := range ags {
		m.NewOwner(a, nil).ReleaseAll()
	}
	if n := m.ActiveLocks(); n != 0 {
		t.Errorf("ActiveLocks = %d at rest, want 0", n)
	}
	for i := range m.table.parts {
		if p := &m.table.parts[i]; p.count > p.limit || p.limit > 2*minSweepLimit {
			t.Errorf("partition %d at rest: %d heads, limit %d: the sweeps did not bound it", i, p.count, p.limit)
		}
	}
	for g, a := range ags {
		n := 0
		for r := a.free; r != nil; r = r.next {
			n++
		}
		if len(a.pending) != 0 || n != a.nfree || a.nfree != a.nreq {
			t.Errorf("agent %d at rest: %d pending, free list %d long (nfree=%d), %d requests allocated", g, len(a.pending), n, a.nfree, a.nreq)
		}
	}
}

// TestStaleOwnerEdgeNotFollowed pins the generation check in the deadlock
// probe: an edge to an Owner observed before the agent recycled it into its
// next transaction must not be followed into what that next transaction is
// waiting for — the cycle it would close does not exist.
func TestStaleOwnerEdgeNotFollowed(t *testing.T) {
	m := New(Config{DeadlockCheckEvery: time.Hour, LockTimeout: time.Hour})
	l1, l2 := TableLock(1, 1), TableLock(1, 2)
	agent := m.NewAgent()

	// Transaction 1 on the agent holds l2; a probe records it as a blocker.
	o1 := m.NewOwner(agent, nil)
	mustLock(t, o1, l2, X)
	stale := waitEdge{o1, o1.id.Load()}
	o1.ReleaseAll()

	// Transaction 2 reuses the Owner and blocks on l1, which c holds.
	c := m.NewOwner(nil, nil)
	mustLock(t, c, l1, X)
	o2 := m.NewOwner(agent, nil)
	if o2 != o1 {
		t.Fatal("the agent did not recycle its Owner")
	}
	done := make(chan error, 1)
	go func() { done <- o2.Lock(l1, X) }()
	waitBlocked(t, o2)

	self := waitEdge{c, c.id.Load()}
	current := waitEdge{o2, o2.id.Load()}
	probe := func(from waitEdge) bool {
		escaped := false
		return m.findCycle(self, from, map[*Owner]bool{}, 0, allPartitions, &escaped)
	}
	if got := m.blockersOf(current); len(got) != 1 || got[0] != self {
		t.Fatalf("blockers of the live transaction = %v, want [%v]", got, self)
	}
	if !probe(current) {
		t.Fatal("the live edge must lead back to c")
	}
	if got := m.blockersOf(stale); got != nil {
		t.Fatalf("a stale edge yielded blockers %v", got)
	}
	if probe(stale) {
		t.Fatal("the probe followed a stale edge into the owner's next transaction")
	}

	c.ReleaseAll()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	o2.ReleaseAll()
}

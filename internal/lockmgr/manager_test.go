package lockmgr

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestManager returns a manager with fast deadlock detection and SLI
// disabled unless requested.
func newTestManager(sli bool) *Manager {
	return New(Config{
		SLI:                sli,
		DeadlockCheckEvery: time.Millisecond,
		LockTimeout:        5 * time.Second,
	})
}

func mustLock(t *testing.T, o *Owner, id LockID, mode Mode) {
	t.Helper()
	if err := o.Lock(id, mode); err != nil {
		t.Fatalf("Lock(%v,%v): %v", id, mode, err)
	}
}

func TestLockGrantAndRelease(t *testing.T) {
	m := newTestManager(false)
	o := m.NewOwner(nil, nil)
	rec := RecordLock(1, 10, 5, 1)
	mustLock(t, o, rec, S)
	if got := o.HeldMode(rec); got != S {
		t.Fatalf("held mode = %v, want S", got)
	}
	// Intention locks must have been acquired automatically on all ancestors.
	if got := o.HeldMode(PageLock(1, 10, 5)); got != IS {
		t.Fatalf("page lock = %v, want IS", got)
	}
	if got := o.HeldMode(TableLock(1, 10)); got != IS {
		t.Fatalf("table lock = %v, want IS", got)
	}
	if got := o.HeldMode(DatabaseLock(1)); got != IS {
		t.Fatalf("database lock = %v, want IS", got)
	}
	if o.HeldCount() != 4 {
		t.Fatalf("held count = %d, want 4", o.HeldCount())
	}
	o.ReleaseAll()
	if m.ActiveLocks() != 0 {
		t.Fatalf("active locks after release = %d, want 0", m.ActiveLocks())
	}
}

func TestExclusiveChildTakesIXParents(t *testing.T) {
	m := newTestManager(false)
	o := m.NewOwner(nil, nil)
	mustLock(t, o, RecordLock(1, 3, 9, 2), X)
	if got := o.HeldMode(PageLock(1, 3, 9)); got != IX {
		t.Fatalf("page lock = %v, want IX", got)
	}
	if got := o.HeldMode(TableLock(1, 3)); got != IX {
		t.Fatalf("table lock = %v, want IX", got)
	}
	o.ReleaseAll()
}

func TestRepeatedLockIsCacheHit(t *testing.T) {
	m := newTestManager(false)
	o := m.NewOwner(nil, nil)
	rec := RecordLock(1, 1, 1, 1)
	mustLock(t, o, rec, S)
	before := m.Stats().Snapshot()
	mustLock(t, o, rec, S)
	mustLock(t, o, rec, IS) // weaker: still covered
	after := m.Stats().Snapshot()
	// Each re-request hits the cache for the record and its three ancestors.
	if after.CacheHits-before.CacheHits != 8 {
		t.Fatalf("cache hits delta = %d, want 8", after.CacheHits-before.CacheHits)
	}
	if after.TotalAcquires() != before.TotalAcquires() {
		t.Fatal("covered re-requests must not count as new acquisitions")
	}
	o.ReleaseAll()
}

func TestLockModeNLIsNoOp(t *testing.T) {
	m := newTestManager(false)
	o := m.NewOwner(nil, nil)
	if err := o.Lock(TableLock(1, 1), NL); err != nil {
		t.Fatal(err)
	}
	if o.HeldCount() != 0 {
		t.Fatal("NL request must not acquire anything")
	}
	if err := o.Lock(TableLock(1, 1), Mode(99)); err == nil {
		t.Fatal("invalid mode must be rejected")
	}
	o.ReleaseAll()
}

func TestLockAfterFinishFails(t *testing.T) {
	m := newTestManager(false)
	o := m.NewOwner(nil, nil)
	mustLock(t, o, TableLock(1, 1), IS)
	o.ReleaseAll()
	o.ReleaseAll() // idempotent
	if err := o.Lock(TableLock(1, 1), IS); !errors.Is(err, ErrOwnerFinished) {
		t.Fatalf("err = %v, want ErrOwnerFinished", err)
	}
}

func TestSharedModesDoNotBlockEachOther(t *testing.T) {
	m := newTestManager(false)
	tbl := TableLock(1, 7)
	var owners []*Owner
	for i := 0; i < 8; i++ {
		o := m.NewOwner(nil, nil)
		owners = append(owners, o)
		done := make(chan error, 1)
		go func() { done <- o.Lock(tbl, IS) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("IS request %d blocked behind other IS holders", i)
		}
	}
	for _, o := range owners {
		o.ReleaseAll()
	}
}

func TestExclusiveBlocksAndIsGrantedOnRelease(t *testing.T) {
	m := newTestManager(false)
	tbl := TableLock(1, 2)
	reader := m.NewOwner(nil, nil)
	mustLock(t, reader, tbl, S)

	writer := m.NewOwner(nil, nil)
	granted := make(chan error, 1)
	go func() { granted <- writer.Lock(tbl, X) }()

	select {
	case err := <-granted:
		t.Fatalf("X lock granted while S held (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if m.Stats().Snapshot().Waits == 0 {
		t.Fatal("expected the writer to be counted as waiting")
	}
	reader.ReleaseAll()
	select {
	case err := <-granted:
		if err != nil {
			t.Fatalf("writer lock after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("writer never granted after reader released")
	}
	writer.ReleaseAll()
}

func TestFIFOPreventsStarvationOfWriter(t *testing.T) {
	m := newTestManager(false)
	tbl := TableLock(1, 4)
	r1 := m.NewOwner(nil, nil)
	mustLock(t, r1, tbl, S)

	writer := m.NewOwner(nil, nil)
	wDone := make(chan error, 1)
	go func() { wDone <- writer.Lock(tbl, X) }()
	time.Sleep(20 * time.Millisecond) // let the writer enqueue

	// A reader arriving after the writer must not jump the queue.
	r2 := m.NewOwner(nil, nil)
	rDone := make(chan error, 1)
	go func() { rDone <- r2.Lock(tbl, S) }()

	select {
	case <-rDone:
		t.Fatal("late reader granted ahead of waiting writer (starvation)")
	case <-time.After(50 * time.Millisecond):
	}

	r1.ReleaseAll()
	if err := <-wDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	writer.ReleaseAll()
	if err := <-rDone; err != nil {
		t.Fatalf("late reader: %v", err)
	}
	r2.ReleaseAll()
}

func TestConversionISToIX(t *testing.T) {
	m := newTestManager(false)
	o := m.NewOwner(nil, nil)
	tbl := TableLock(1, 9)
	mustLock(t, o, RecordLock(1, 9, 1, 1), S) // takes IS on the table
	if o.HeldMode(tbl) != IS {
		t.Fatalf("table mode = %v, want IS", o.HeldMode(tbl))
	}
	mustLock(t, o, RecordLock(1, 9, 1, 2), X) // upgrades the table to IX
	if o.HeldMode(tbl) != IX {
		t.Fatalf("table mode after upgrade = %v, want IX", o.HeldMode(tbl))
	}
	if m.Stats().Snapshot().Conversions == 0 {
		t.Fatal("conversion counter not incremented")
	}
	o.ReleaseAll()
}

func TestConversionSToXWaitsForOtherReader(t *testing.T) {
	m := newTestManager(false)
	pg := PageLock(1, 5, 1)
	a := m.NewOwner(nil, nil)
	b := m.NewOwner(nil, nil)
	mustLock(t, a, pg, S)
	mustLock(t, b, pg, S)

	up := make(chan error, 1)
	go func() { up <- a.Lock(pg, X) }()
	select {
	case err := <-up:
		t.Fatalf("upgrade granted while another reader holds S (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	b.ReleaseAll()
	if err := <-up; err != nil {
		t.Fatalf("upgrade after other reader left: %v", err)
	}
	if a.HeldMode(pg) != X {
		t.Fatalf("mode after upgrade = %v, want X", a.HeldMode(pg))
	}
	a.ReleaseAll()
}

func TestConversionDeadlockDetected(t *testing.T) {
	// Two transactions hold S and both try to upgrade to X: a classic
	// conversion deadlock. One of them must be aborted.
	m := newTestManager(false)
	pg := PageLock(1, 6, 1)
	a := m.NewOwner(nil, nil)
	b := m.NewOwner(nil, nil)
	mustLock(t, a, pg, S)
	mustLock(t, b, pg, S)

	errs := make(chan error, 2)
	go func() { errs <- a.Lock(pg, X) }()
	go func() { errs <- b.Lock(pg, X) }()

	var deadlocks, grants int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			switch {
			case err == nil:
				grants++
			case errors.Is(err, ErrDeadlock) || errors.Is(err, ErrLockTimeout):
				deadlocks++
				// The victim aborts, releasing its locks and unblocking the peer.
				if deadlocks == 1 {
					if a.waiting.Load() == nil && !a.finished {
						a.ReleaseAll()
					} else {
						b.ReleaseAll()
					}
				}
			default:
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(8 * time.Second):
			t.Fatal("conversion deadlock not resolved")
		}
	}
	if deadlocks == 0 {
		t.Fatal("expected at least one deadlock victim")
	}
	if m.Stats().Snapshot().Deadlocks == 0 && m.Stats().Snapshot().Timeouts == 0 {
		t.Fatal("deadlock/timeout counters not incremented")
	}
}

func TestTwoLockCycleDeadlockDetected(t *testing.T) {
	m := newTestManager(false)
	l1 := TableLock(1, 101)
	l2 := TableLock(1, 102)
	a := m.NewOwner(nil, nil)
	b := m.NewOwner(nil, nil)
	mustLock(t, a, l1, X)
	mustLock(t, b, l2, X)

	results := make(chan error, 2)
	go func() { results <- a.Lock(l2, X) }()
	go func() { results <- b.Lock(l1, X) }()

	var victim bool
	for i := 0; i < 2; i++ {
		select {
		case err := <-results:
			if err != nil {
				if !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrLockTimeout) {
					t.Fatalf("unexpected error %v", err)
				}
				victim = true
				// Abort whichever transaction was the victim so the other can finish.
				if a.waiting.Load() == nil && !a.finished {
					a.ReleaseAll()
				} else if !b.finished {
					b.ReleaseAll()
				}
			}
		case <-time.After(8 * time.Second):
			t.Fatal("deadlock never resolved")
		}
	}
	if !victim {
		t.Fatal("expected one transaction to be chosen as deadlock victim")
	}
}

func TestLockTimeout(t *testing.T) {
	m := New(Config{DeadlockCheckEvery: time.Millisecond, LockTimeout: 30 * time.Millisecond})
	holder := m.NewOwner(nil, nil)
	mustLock(t, holder, TableLock(1, 1), X)
	waiter := m.NewOwner(nil, nil)
	start := time.Now()
	err := waiter.Lock(TableLock(1, 1), X)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took far longer than configured")
	}
	holder.ReleaseAll()
	waiter.ReleaseAll()
}

func TestReleaseWakesMultipleCompatibleWaiters(t *testing.T) {
	m := newTestManager(false)
	tbl := TableLock(1, 55)
	w := m.NewOwner(nil, nil)
	mustLock(t, w, tbl, X)

	const readers = 6
	var wg sync.WaitGroup
	errs := make([]error, readers)
	owners := make([]*Owner, readers)
	for i := 0; i < readers; i++ {
		owners[i] = m.NewOwner(nil, nil)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = owners[i].Lock(tbl, S)
		}(i)
	}
	time.Sleep(30 * time.Millisecond)
	w.ReleaseAll()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	for _, o := range owners {
		o.ReleaseAll()
	}
}

func TestStatsClassification(t *testing.T) {
	m := newTestManager(false)
	o := m.NewOwner(nil, nil)
	mustLock(t, o, RecordLock(1, 1, 1, 1), S) // 3 shared high-level + 1 row
	mustLock(t, o, RecordLock(1, 1, 1, 2), X) // conversions + 1 row exclusive
	o.ReleaseAll()
	s := m.Stats().Snapshot()
	if s.AcquiresByLevel[LevelRecord] != 2 {
		t.Fatalf("record acquires = %d, want 2", s.AcquiresByLevel[LevelRecord])
	}
	if s.AcquiresByLevel[LevelDatabase] == 0 || s.AcquiresByLevel[LevelTable] == 0 || s.AcquiresByLevel[LevelPage] == 0 {
		t.Fatal("high-level acquisitions missing from stats")
	}
	if s.ExclusiveAcquires == 0 || s.SharedAcquires == 0 {
		t.Fatal("shared/exclusive classification missing")
	}
	if s.Transactions != 1 {
		t.Fatalf("transactions = %d, want 1", s.Transactions)
	}
	if s.LocksPerTransaction() < 4 {
		t.Fatalf("locks per transaction = %v, want >= 4", s.LocksPerTransaction())
	}
	if d := s.Diff(s); d.TotalAcquires() != 0 || d.Transactions != 0 {
		t.Fatal("Diff of identical snapshots must be zero")
	}
}

func TestHotDetection(t *testing.T) {
	m := newTestManager(false)
	tbl := TableLock(1, 77)
	if m.IsHot(tbl) {
		t.Fatal("lock must not be hot before any acquisition")
	}
	m.ForceHot(tbl)
	if !m.IsHot(tbl) {
		t.Fatal("ForceHot must mark the lock hot")
	}
	if m.IsHot(TableLock(1, 78)) {
		t.Fatal("unknown lock must not be hot")
	}
}

// blockedOnHeadLatch counts the goroutines that failed to take a lock
// head's latch at once and are waiting for it.
func blockedOnHeadLatch() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "(*Mutex).lockSlow") && strings.Contains(g, "lockmgr.(*lockTable).latched") {
			n++
		}
	}
	return n
}

// TestHotDetectionFromRealContention makes a table lock hot from real latch
// contention, with no manual help: the test holds the lock head's latch
// while requesters start, so their TryLocks fail, and releases it once they
// have blocked on it. It repeats this until the lock is hot and fails after
// a bounded number of rounds.
func TestHotDetectionFromRealContention(t *testing.T) {
	m := newTestManager(false)
	tbl := TableLock(1, 88)
	const requesters, rounds = 8, 20
	for round := 0; !m.IsHot(tbl); round++ {
		if round == rounds {
			t.Fatalf("lock not hot after %d rounds of %d requesters contending for its latch", rounds, requesters)
		}
		h, _, _ := m.table.latched(tbl, tbl.hash())
		var done sync.WaitGroup
		for g := 0; g < requesters; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				o := m.NewOwner(nil, nil)
				if err := o.Lock(tbl, IS); err != nil {
					t.Error(err)
					return
				}
				o.ReleaseAll()
			}()
		}
		for deadline := time.Now().Add(5 * time.Second); blockedOnHeadLatch() < requesters && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		h.latch.Unlock()
		done.Wait()
	}
}

// TestConcurrentRandomWorkloadInvariant runs many goroutines acquiring
// random record locks (shared or exclusive). The invariant checked is mutual
// exclusion of X record locks: the lock manager must never allow two owners
// to hold the same record exclusively at once.
func TestConcurrentRandomWorkloadInvariant(t *testing.T) {
	m := newTestManager(false)
	const (
		goroutines = 12
		iters      = 150
		tables     = 2
		pages      = 3
		slots      = 4
	)
	var holders [tables][pages][slots]atomic.Int32
	var wg sync.WaitGroup
	var failures atomic.Int32
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				o := m.NewOwner(nil, nil)
				n := 1 + rng.Intn(3)
				type held struct{ tb, pg, sl int }
				var mine []held
				alreadyMine := func(tb, pg, sl int) bool {
					for _, h := range mine {
						if h.tb == tb && h.pg == pg && h.sl == sl {
							return true
						}
					}
					return false
				}
				for j := 0; j < n; j++ {
					tb, pg, sl := rng.Intn(tables), rng.Intn(pages), rng.Intn(slots)
					id := RecordLock(1, uint32(tb), uint64(pg), uint32(sl))
					if rng.Intn(2) == 0 {
						if err := o.Lock(id, S); err != nil {
							break
						}
					} else {
						if err := o.Lock(id, X); err != nil {
							break
						}
						if alreadyMine(tb, pg, sl) {
							continue // re-locking a record we already hold exclusively
						}
						if !holders[tb][pg][sl].CompareAndSwap(0, 1) {
							failures.Add(1)
						}
						mine = append(mine, held{tb, pg, sl})
					}
				}
				time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
				for _, h := range mine {
					holders[h.tb][h.pg][h.sl].Store(0)
				}
				o.ReleaseAll()
			}
		}(int64(g) * 7919)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d exclusive-lock violations detected", failures.Load())
	}
	if m.ActiveLocks() > 64 {
		// Hot heads are retained; everything else should have been removed.
		t.Fatalf("lock table did not shrink: %d heads active", m.ActiveLocks())
	}
}

func TestConfigDefaults(t *testing.T) {
	m := New(Config{})
	cfg := m.Config()
	if cfg.Partitions <= 0 || cfg.SLIHotThreshold <= 0 || cfg.SLIMinLevel != LevelPage ||
		cfg.DeadlockCheckEvery <= 0 || cfg.LockTimeout <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if m.SLIEnabled() {
		t.Fatal("SLI must default to disabled")
	}
	m.SetSLI(true)
	if !m.SLIEnabled() {
		t.Fatal("SetSLI(true) did not enable SLI")
	}
}

func TestRequestStatusNames(t *testing.T) {
	names := map[int32]string{
		statusWaiting:    "waiting",
		statusConverting: "converting",
		statusGranted:    "granted",
		statusInherited:  "inherited",
		statusInvalid:    "invalid",
	}
	for st, want := range names {
		if statusName(st) != want {
			t.Errorf("statusName(%d) = %q, want %q", st, statusName(st), want)
		}
	}
	if statusName(42) != "unknown" {
		t.Fatal("unknown status must render as unknown")
	}
}

func TestRequestQueueOperations(t *testing.T) {
	var q requestQueue
	if !q.empty() {
		t.Fatal("new queue must be empty")
	}
	reqs := make([]*Request, 5)
	for i := range reqs {
		reqs[i] = &Request{}
		q.pushBack(reqs[i])
	}
	if q.len != 5 {
		t.Fatalf("len = %d, want 5", q.len)
	}
	// Remove the middle, the head and the tail.
	q.remove(reqs[2])
	q.remove(reqs[0])
	q.remove(reqs[4])
	var order []*Request
	for r := q.head; r != nil; r = r.next {
		order = append(order, r)
	}
	if len(order) != 2 || order[0] != reqs[1] || order[1] != reqs[3] {
		t.Fatalf("queue order wrong after removals: %v", order)
	}
	// Removing twice is harmless.
	q.remove(reqs[2])
	if q.len != 2 {
		t.Fatalf("len = %d after double remove, want 2", q.len)
	}
	q.remove(reqs[1])
	q.remove(reqs[3])
	if !q.empty() {
		t.Fatal("queue must be empty after removing everything")
	}
}

func TestLockTableGrowsAndShrinks(t *testing.T) {
	m := newTestManager(false)
	o := m.NewOwner(nil, nil)
	for i := 0; i < 100; i++ {
		mustLock(t, o, RecordLock(1, 1, uint64(i), 1), S)
	}
	if m.ActiveLocks() < 100 {
		t.Fatalf("active locks = %d, want >= 100", m.ActiveLocks())
	}
	o.ReleaseAll()
	if m.ActiveLocks() != 0 {
		t.Fatalf("active locks after release = %d, want 0", m.ActiveLocks())
	}
}

func TestManyOwnersOnManyTables(t *testing.T) {
	// Smoke test that concurrent transactions over disjoint tables never
	// interfere (fine-grained concurrency works).
	m := newTestManager(false)
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(tbl uint32) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				o := m.NewOwner(nil, nil)
				if err := o.Lock(RecordLock(1, tbl, uint64(i%4), uint32(i)), X); err != nil {
					errCh <- fmt.Errorf("table %d: %w", tbl, err)
				}
				o.ReleaseAll()
			}
		}(uint32(g))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

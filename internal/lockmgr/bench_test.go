package lockmgr

import (
	"sync"
	"testing"
	"time"
)

// The benchmarks time one transaction's locking: NewOwner, a record lock in
// S mode (which takes IS on its page, table and database first), ReleaseAll.
// Records rotate over 8 pages x 64 slots of one table, as the benchmark/
// probes do, so after the first lap every lock head exists.

func benchRecord(i int) LockID { return RecordLock(1, 1, uint64(i&7), uint32(i&63)) }

// hierarchyXct runs one such transaction on agent a.
func hierarchyXct(tb testing.TB, m *Manager, a *Agent, id LockID) {
	o := m.NewOwner(a, nil)
	if err := o.Lock(id, S); err != nil {
		tb.Fatal(err)
	}
	o.ReleaseAll()
}

// newHotManager returns an SLI manager whose database, table and page heads
// are hot, so every transaction passes those three locks on. Its successor
// reclaims the database and table locks; it works on the next page, so it
// discards the page lock it inherited and takes its own through the lock
// table, like the record lock.
func newHotManager() *Manager {
	m := New(Config{SLI: true})
	m.ForceHot(DatabaseLock(1))
	m.ForceHot(TableLock(1, 1))
	for pg := uint64(0); pg < 8; pg++ {
		m.ForceHot(PageLock(1, 1, pg))
	}
	return m
}

// warm runs enough transactions for every head, request and owner table the
// loops below touch to exist.
func warm(tb testing.TB, m *Manager, a *Agent) {
	for i := 0; i < 1024; i++ {
		hierarchyXct(tb, m, a, benchRecord(i))
	}
}

// BenchmarkAcquireRelease is the uncontended 4-level acquire and release
// with SLI off (benchmark/'s lockmgr.acquire_release_ns).
func BenchmarkAcquireRelease(b *testing.B) {
	m := New(Config{})
	a := m.NewAgent()
	warm(b, m, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hierarchyXct(b, m, a, benchRecord(i))
	}
}

// BenchmarkSLIReclaim is the same transaction on the hot manager
// (benchmark/'s lockmgr.sli_reclaim_ns).
func BenchmarkSLIReclaim(b *testing.B) {
	m := newHotManager()
	a := m.NewAgent()
	warm(b, m, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hierarchyXct(b, m, a, benchRecord(i))
	}
	if s := m.Stats().Snapshot(); s.SLIReclaimed < 2*uint64(b.N) {
		b.Fatalf("reclaimed %d locks in %d transactions: the inheritance path did not run", s.SLIReclaimed, b.N)
	}
}

// BenchmarkCacheHit re-requests a record lock the transaction already holds:
// four lock-cache hits (the record and its three ancestors) per operation.
func BenchmarkCacheHit(b *testing.B) {
	m := New(Config{})
	a := m.NewAgent()
	o := m.NewOwner(a, nil)
	id := benchRecord(0)
	if err := o.Lock(id, S); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.Lock(id, S); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	o.ReleaseAll()
}

// BenchmarkAcquireRelease2P runs BenchmarkAcquireRelease's transaction on two
// agents at once over disjoint records (different tables' worth of slots)
// that share the page, table and database heads: what the shared ancestors
// cost when nothing conflicts.
func BenchmarkAcquireRelease2P(b *testing.B) {
	m := New(Config{})
	var wg sync.WaitGroup
	agents := []*Agent{m.NewAgent(), m.NewAgent()}
	for _, a := range agents {
		warm(b, m, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for g, a := range agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < b.N; i += len(agents) {
				hierarchyXct(b, m, a, RecordLock(1, 1, uint64(i&7), uint32(i&63|g<<6)))
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSLIInvalidate is a failed speculation: agent a's transaction
// passes its intention locks on, agent b's exclusive table lock invalidates
// the inherited table request, and a's next transaction finds it dead,
// retires it and asks the lock manager again. Every round re-heats the table
// lock (uncontended acquisitions cool it down), which is part of the time.
func BenchmarkSLIInvalidate(b *testing.B) {
	m := newHotManager()
	a, other := m.NewAgent(), m.NewAgent()
	warm(b, m, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForceHot(TableLock(1, 1))
		hierarchyXct(b, m, a, benchRecord(i))
		o := m.NewOwner(other, nil)
		if err := o.Lock(TableLock(1, 1), X); err != nil {
			b.Fatal(err)
		}
		o.ReleaseAll()
	}
	if s := m.Stats().Snapshot(); s.SLIInvalidated < uint64(b.N) {
		b.Fatalf("%d invalidations in %d rounds", s.SLIInvalidated, b.N)
	}
}

// blockedWaiter returns a manager on which w waits for a record lock whose
// holder waits for nobody, so a probe from w finds no cycle, and a function
// that ends the wait.
func blockedWaiter(tb testing.TB) (m *Manager, w *Owner, unblock func()) {
	m = New(Config{DeadlockCheckEvery: time.Hour, LockTimeout: time.Hour})
	holder := m.NewOwner(nil, nil)
	w = m.NewOwner(nil, nil)
	id := benchRecord(0)
	if err := holder.Lock(id, X); err != nil {
		tb.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Lock(id, X) }()
	waitBlocked(tb, w)
	return m, w, func() {
		holder.ReleaseAll()
		if err := <-done; err != nil {
			tb.Fatal(err)
		}
		w.ReleaseAll()
	}
}

// BenchmarkDeadlockProbe is one wait-for-graph probe that finds no cycle.
func BenchmarkDeadlockProbe(b *testing.B) {
	m, w, unblock := blockedWaiter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.detectDeadlock(w) {
			b.Fatal("cycle reported where there is none")
		}
	}
	b.StopTimer()
	unblock()
}

// TestHotPathAllocs holds the three single-agent paths and a deadlock probe
// to zero heap allocations per operation once warm (ROADMAP 1a).
func TestHotPathAllocs(t *testing.T) {
	i := 0
	xct := func(m *Manager, a *Agent) func() {
		warm(t, m, a)
		return func() { i++; hierarchyXct(t, m, a, benchRecord(i)) }
	}
	plain := New(Config{})
	hot := newHotManager()
	held := plain.NewOwner(plain.NewAgent(), nil)
	mustLock(t, held, benchRecord(0), S)
	probing, w, unblock := blockedWaiter(t)
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"acquire+release", xct(plain, plain.NewAgent())},
		{"SLI reclaim", xct(hot, hot.NewAgent())},
		{"cache hit", func() { mustLock(t, held, benchRecord(0), S) }},
		{"deadlock probe", func() {
			if probing.detectDeadlock(w) {
				t.Error("cycle reported where there is none")
			}
		}},
	} {
		if n := testing.AllocsPerRun(2000, c.op); n > 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
	held.ReleaseAll()
	unblock()
	if s := hot.Stats().Snapshot(); s.SLIReclaimed < 2*2000 {
		t.Fatalf("SLI reclaim case reclaimed only %d locks", s.SLIReclaimed)
	}
}

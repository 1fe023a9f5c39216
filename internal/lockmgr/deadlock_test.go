package lockmgr

import (
	"runtime"
	"testing"
	"time"
)

// waitBlocked polls until the owner is parked in waitFor and returns the
// request it is blocked on.
func waitBlocked(t testing.TB, o *Owner) *Request {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r := o.waiting.Load(); r != nil {
			return r
		}
		if time.Now().After(deadline) {
			t.Fatal("owner never blocked")
		}
		runtime.Gosched()
	}
}

// TestBlockersOfConvertingOwnerDeduped pins the blockersOf fix: a converting
// request whose held mode AND target mode both conflict with the probing
// request is one blocker, not two. Before the fix the owner was appended
// twice and every deadlock probe re-walked its whole wait-for subtree.
//
// Setup: B holds IS, A holds IX and converts to X (blocked by B's IS), C
// requests S (blocked by A's held IX and by its pending conversion to X —
// the double-conflict case).
func TestBlockersOfConvertingOwnerDeduped(t *testing.T) {
	// Long probe interval and timeout: the test calls blockersOf directly
	// and unwinds the waits itself.
	m := New(Config{DeadlockCheckEvery: time.Hour, LockTimeout: time.Hour})
	id := TableLock(1, 1)
	a := m.NewOwner(nil, nil)
	b := m.NewOwner(nil, nil)
	c := m.NewOwner(nil, nil)

	if err := b.Lock(id, IS); err != nil {
		t.Fatal(err)
	}
	if err := a.Lock(id, IX); err != nil {
		t.Fatal(err)
	}
	aDone := make(chan error, 1)
	go func() { aDone <- a.Lock(id, X) }()
	aReq := waitBlocked(t, a)
	if aReq.status.Load() != statusConverting {
		t.Fatalf("A should be converting, status = %d", aReq.status.Load())
	}

	cDone := make(chan error, 1)
	go func() { cDone <- c.Lock(id, S) }()
	waitBlocked(t, c)

	blockers := m.blockersOf(waitEdge{c, c.id.Load()}, nil)
	if blockers == nil {
		t.Fatal("blockersOf returned nil (lock-head latch busy) in a quiescent state")
	}
	count := 0
	for _, e := range blockers {
		if e.owner == a {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("converting owner A appears %d times in blockers %v, want exactly 1", count, blockers)
	}
	// B's IS is compatible with C's S; it must not be listed.
	for _, e := range blockers {
		if e.owner == b {
			t.Fatal("owner B (compatible IS holder) listed as a blocker")
		}
	}

	// Unwind: releasing B grants A's conversion; releasing A grants C.
	b.ReleaseAll()
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	a.ReleaseAll()
	if err := <-cDone; err != nil {
		t.Fatal(err)
	}
	c.ReleaseAll()
}

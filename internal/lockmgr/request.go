package lockmgr

import (
	"sync/atomic"
)

// Request status values. The interesting transitions for SLI are granted →
// inherited (at release time) and inherited → granted (reclaim by the
// agent's next transaction) — each a single atomic operation with no latch,
// the "fast path" of paper §4.1 — and inherited → invalid (a conflicting
// requester or the owning agent retires the speculation).
const (
	// statusWaiting: the request is queued behind incompatible holders.
	statusWaiting int32 = iota
	// statusConverting: the owner already holds the lock in req.mode and is
	// waiting to upgrade it to req.convMode.
	statusConverting
	// statusGranted: the request is granted; the owner holds mode req.mode.
	statusGranted
	// statusInherited: the request was passed by a committing transaction to
	// its agent thread and awaits reclaim by the agent's next transaction.
	statusInherited
	// statusInvalid: the request is logically removed; it either has been or
	// is about to be unlinked from the queue by whichever actor made it
	// invalid.
	statusInvalid
)

var statusNames = [...]string{"waiting", "converting", "granted", "inherited", "invalid"}

func statusName(s int32) string {
	if s < 0 || int(s) >= len(statusNames) {
		return "unknown"
	}
	return statusNames[s]
}

// Request represents one transaction's (or, while inherited, one agent's)
// interest in a lock. Requests are linked into their lock head's FIFO queue;
// all structural queue changes happen under the lock-head latch, while the
// status field is manipulated with atomic operations so that SLI can bypass
// the latch entirely.
//
// Requests are recycled: the agent that allocated one takes it back onto its
// free list once it has been unlinked under the head latch and reuses it.
// Nobody else may keep a *Request across a latch release; the deadlock
// detector, which has to, first finds the pointer in the head's queue again.
type Request struct {
	id   LockID
	head *lockHead

	// owner is the transaction holding or waiting for the lock (while the
	// request is inherited, still the one that passed it on). Deadlock
	// detection reads it under the head latch; it is written before the
	// request is published, or by a reclaiming owner that differs.
	owner atomic.Pointer[Owner]

	// agent allocated the request and owns the free list it returns to; nil
	// for requests of detached owners.
	agent *Agent

	// mode is the currently granted mode (for granted/converting/inherited
	// requests) or the requested mode (for waiting requests), written only
	// under the lock-head latch or before the request is published. convMode
	// is the target of an in-progress conversion (status converting).
	mode, convMode Mode

	// cand marks an SLI candidate during its owner's ReleaseAll; unclaimed
	// an inherited request seeded into the current transaction and not yet
	// reclaimed. Both are private to the owning agent.
	cand, unclaimed bool

	status atomic.Int32

	// ready delivers the grant to a waiting owner; buffered so granters
	// never block.
	ready chan error

	// prev and next link the head's queue; next also the agent's free list.
	prev, next *Request
}

// set initialises a fresh or recycled request for owner o on head h. The
// request is not visible to anyone else until it is pushed onto h's queue.
func (r *Request) set(o *Owner, h *lockHead, mode Mode, status int32) {
	r.id, r.head, r.mode, r.convMode = h.id, h, mode, NL
	if r.owner.Load() != o {
		r.owner.Store(o)
	}
	r.status.Store(status)
}

// requestQueue is an intrusive doubly-linked FIFO list of requests. All
// mutations require the enclosing lock head's latch.
type requestQueue struct {
	head, tail *Request
	len        int
}

// pushBack appends r to the queue.
func (q *requestQueue) pushBack(r *Request) {
	r.prev = q.tail
	r.next = nil
	if q.tail != nil {
		q.tail.next = r
	} else {
		q.head = r
	}
	q.tail = r
	q.len++
}

// remove unlinks r from the queue. It is idempotent for requests that have
// already been unlinked (their links are nil and they are not the head).
func (q *requestQueue) remove(r *Request) {
	if r.prev == nil && r.next == nil && q.head != r {
		return // already unlinked
	}
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		q.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		q.tail = r.prev
	}
	r.prev, r.next = nil, nil
	q.len--
}

// empty reports whether the queue has no requests.
func (q *requestQueue) empty() bool { return q.head == nil }

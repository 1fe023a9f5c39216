package lockmgr

import "slices"

// Deadlock detection. Shore-MT uses the "dreadlocks" algorithm; this
// reproduction uses a wait-for-graph search triggered periodically while a
// transaction is blocked (plus a timeout fallback in waitFor). The search is
// conservative: it only follows lock heads whose latch it can acquire
// without blocking, so it never introduces latch deadlocks and may miss a
// cycle on one probe — the next probe (or the timeout) will catch it. Every
// probe searches the whole graph, in scratch space its owner keeps.

// maxDeadlockDepth bounds the wait-for-graph search.
const maxDeadlockDepth = 64

// waitEdge names a transaction in the wait-for graph: an Owner and the id it
// carried when the edge was observed under a lock-head latch. Owners are
// reused by their agent's next transaction; an edge whose id no longer
// matches is stale and is not followed.
type waitEdge struct {
	owner *Owner
	id    uint64
}

// detectDeadlock reports whether the blocked owner participates in a
// wait-for cycle. The caller (the detecting owner itself) is the victim.
func (m *Manager) detectDeadlock(self *Owner) bool {
	me := waitEdge{self, self.id.Load()}
	self.probe, self.seen = self.probe[:0], self.seen[:0]
	return m.findCycle(me, me, 0)
}

// findCycle performs a depth-first search of the wait-for graph starting
// from the transactions blocking w, looking for a path back to self. The
// edges still to visit are stacked on self.owner.probe above the caller's,
// and self.owner.seen lists the owners already visited.
func (m *Manager) findCycle(self, w waitEdge, depth int) bool {
	if depth > maxDeadlockDepth {
		return false
	}
	o := self.owner
	base := len(o.probe)
	o.probe = m.blockersOf(w, o.probe)
	for i := base; i < len(o.probe); i++ {
		b := o.probe[i]
		if b.owner == o {
			return true
		}
		if slices.Contains(o.seen, b.owner) {
			continue
		}
		o.seen = append(o.seen, b.owner)
		if m.findCycle(self, b, depth+1) {
			return true
		}
	}
	o.probe = o.probe[:base]
	return false
}

// blockersOf appends to out the transactions that w is waiting for: holders
// of requests incompatible with the one w is blocked on, plus earlier
// waiters that FIFO granting will serve first. It uses TryLock on the
// lock-head latch and appends nothing if the latch is busy.
//
// w's request and head are read from the Owner unsynchronised and may have
// been recycled since, so nothing is read through the request until it has
// been found in the head's queue under the latch, still waiting on behalf of
// the same incarnation of the owner.
func (m *Manager) blockersOf(w waitEdge, out []waitEdge) []waitEdge {
	h, req := w.owner.waitHead.Load(), w.owner.waiting.Load()
	if h == nil || req == nil || !h.latch.TryLock() {
		return out
	}
	defer h.latch.Unlock()
	linked := false
	for r := h.queue.head; r != nil && !linked; r = r.next {
		linked = r == req
	}
	if !linked || req.owner.Load() != w.owner || w.owner.id.Load() != w.id {
		return out // the edge is stale
	}
	st := req.status.Load()
	if st != statusWaiting && st != statusConverting {
		return out // already granted or cancelled
	}
	want := req.mode
	if st == statusConverting {
		want = req.convMode
	}
	seenSelf := false
	for r := h.queue.head; r != nil; r = r.next {
		if r == req {
			seenSelf = true
			continue
		}
		switch rst := r.status.Load(); rst {
		case statusGranted, statusConverting:
			// The holder blocks us if its held mode conflicts, or — for a
			// pending conversion — if its target mode does. Both conflicting
			// is still one blocker: appending the owner twice would make every
			// probe re-walk its whole wait-for subtree.
			if !Compatible(want, r.mode) || rst == statusConverting && !Compatible(want, r.convMode) {
				out = appendEdge(out, r)
			}
		case statusWaiting:
			// FIFO: a waiting request queued before ours is served first, so
			// we transitively wait for whatever it waits for.
			if !seenSelf && st == statusWaiting {
				out = appendEdge(out, r)
			}
		}
	}
	return out
}

// appendEdge appends the transaction behind r, a request in a queue whose
// latch the caller holds, which pins the owner (and its id) to it.
func appendEdge(out []waitEdge, r *Request) []waitEdge {
	if o := r.owner.Load(); o != nil {
		out = append(out, waitEdge{o, o.id.Load()})
	}
	return out
}

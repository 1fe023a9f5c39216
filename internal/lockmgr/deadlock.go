package lockmgr

// Deadlock detection. Shore-MT uses the "dreadlocks" algorithm; this
// reproduction uses a wait-for-graph search triggered periodically while a
// transaction is blocked (plus a timeout fallback in waitFor). The search is
// conservative: it only follows lock heads whose latch it can acquire
// without blocking, so it never introduces latch deadlocks and may miss a
// cycle on one probe — the next probe (or the timeout) will catch it.
//
// The search is partition-sharded to match the lock table: most deadlocks in
// a partitioned workload are short cycles between rows that hash to the same
// lock-table partition, so every probe first walks only same-partition
// wait-for edges. Edges that leave the partition set an "escaped" flag
// instead, and only when a local probe escaped does every
// deadlockEscalateEvery-th probe escalate to the full cross-partition search.

// maxDeadlockDepth bounds the wait-for-graph search.
const maxDeadlockDepth = 64

// deadlockEscalateEvery is how many probe ticks pass between full
// cross-partition searches while local probes keep escaping; local probes
// still run every tick.
const deadlockEscalateEvery = 4

// allPartitions disables the partition filter in findCycle.
const allPartitions = ^uint32(0)

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
// tick counts the caller's probe attempts for this wait; it paces escalation.
func (m *Manager) detectDeadlock(self *Owner, req *Request, tick uint64) bool {
	self.stats.inc(ctrDeadlockLocalProbes)
	me := waitEdge{self, self.id.Load()}
	visited := map[*Owner]bool{self: true}
	escaped := false
	if m.findCycle(me, me, visited, 0, req.head.part, &escaped) {
		return true
	}
	if !escaped || tick%deadlockEscalateEvery != 0 {
		return false
	}
	// A wait-for edge left req's partition: the cycle (if any) spans
	// partitions and only a global search can close it.
	self.stats.inc(ctrDeadlockEscalations)
	visited = map[*Owner]bool{self: true}
	return m.findCycle(me, me, visited, 0, allPartitions, &escaped)
}

// findCycle performs a depth-first search of the wait-for graph starting
// from the transactions blocking w, looking for a path back to self. When
// part is not allPartitions the search stays inside that lock-table
// partition: an edge whose next lock head lives elsewhere is skipped and
// *escaped is set so the caller knows the local result is not conclusive.
func (m *Manager) findCycle(self, w waitEdge, visited map[*Owner]bool, depth int, part uint32, escaped *bool) bool {
	if depth > maxDeadlockDepth {
		return false
	}
	for _, b := range m.blockersOf(w) {
		if b.owner == self.owner {
			return true
		}
		if visited[b.owner] {
			continue
		}
		visited[b.owner] = true
		next := b.owner.waitHead.Load()
		if next == nil {
			continue
		}
		if part != allPartitions && next.part != part {
			*escaped = true
			continue
		}
		if m.findCycle(self, b, visited, depth+1, part, escaped) {
			return true
		}
	}
	return false
}

// blockersOf returns the transactions that w is waiting for: holders of
// requests incompatible with the one w is blocked on, plus earlier waiters
// that FIFO granting will serve first. It uses TryLock on the lock-head latch
// and returns nil if the latch is busy.
//
// w's request and head are read from the Owner unsynchronised and may have
// been recycled since, so nothing is read through the request until it has
// been found in the head's queue under the latch, still waiting on behalf of
// the same incarnation of the owner.
func (m *Manager) blockersOf(w waitEdge) []waitEdge {
	h, req := w.owner.waitHead.Load(), w.owner.waiting.Load()
	if h == nil || req == nil || !h.latch.TryLock() {
		return nil
	}
	defer h.latch.Unlock()
	linked := false
	for r := h.queue.head; r != nil && !linked; r = r.next {
		linked = r == req
	}
	if !linked || req.owner.Load() != w.owner || w.owner.id.Load() != w.id {
		return nil // the edge is stale
	}
	st := req.status.Load()
	if st != statusWaiting && st != statusConverting {
		return nil // already granted or cancelled
	}
	want := req.mode
	if st == statusConverting {
		want = req.convMode
	}
	var out []waitEdge
	seenSelf := false
	h.queue.forEach(func(r *Request) {
		if r == req {
			seenSelf = true
			return
		}
		switch rst := r.status.Load(); rst {
		case statusGranted, statusConverting:
			// The holder blocks us if its held mode conflicts, or — for a
			// pending conversion — if its target mode does. Both conflicting
			// is still one blocker: appending the owner twice would make every
			// probe re-walk its whole wait-for subtree.
			blocked := !Compatible(want, r.mode) ||
				(rst == statusConverting && !Compatible(want, r.convMode))
			if blocked {
				out = appendEdge(out, r)
			}
		case statusWaiting:
			// FIFO: a waiting request queued before ours is served first, so
			// we transitively wait for whatever it waits for.
			if !seenSelf && st == statusWaiting {
				out = appendEdge(out, r)
			}
		}
	})
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

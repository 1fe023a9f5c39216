package lockmgr

import "slidb/internal/profiler"

// This file implements Speculative Lock Inheritance (paper §4): seeding a new
// transaction with its agent's inherited requests (attach), the
// lock-manager-free reclaim path (reclaim), and the decision of which locks a
// committing transaction passes to its agent thread (selectSLICandidates +
// inherit). Speculations that did not pay off are retired by retire (the
// owning agent) and invalidateIncompatible (conflicting requesters).

// attach seeds a new transaction's lock cache with the agent's inherited
// requests (§4.1), recycling those invalidated while the agent was between
// transactions. If SLI has been turned off they are all retired instead.
func (m *Manager) attach(o *Owner) {
	start := o.clock()
	a := o.agent
	sli := m.SLIEnabled()
	o.inherited, a.pending = a.pending, o.inherited[:0]
	kept := o.inherited[:0]
	for _, req := range o.inherited {
		if !sli || req.status.Load() != statusInherited {
			m.retire(o, req, ctrSLIDiscarded)
			continue
		}
		if o.cache.full() {
			o.cache.grow()
		}
		o.cache.put(req)
		req.unclaimed = true
		kept = append(kept, req)
	}
	o.inherited = kept
	o.charge(profiler.SLIWork, start, 0)
}

// reclaim is the SLI fast path (§4.1): the transaction finds an inherited
// request in its lock cache and claims it with a single compare-and-swap,
// "without calling into the lock manager, allocating requests, or updating
// latch-protected lock state" — beyond the status word it touches only the
// agent's own lists and counters. It returns false, leaving the request
// alone, if the inherited mode does not cover the wanted one or the
// speculation has been invalidated; lockSlow then retires it and makes a
// normal request. The caller has made room in o.held.
//
//slint:hotpath
func (m *Manager) reclaim(o *Owner, req *Request, want Mode) bool {
	if !Covers(req.mode, want) {
		return false
	}
	start := o.clock()
	ok := req.status.CompareAndSwap(statusInherited, statusGranted)
	if ok {
		if req.owner.Load() != o {
			req.owner.Store(o)
		}
		req.unclaimed = false
		n := len(o.held)
		o.held = o.held[:n+1]
		o.held[n] = req
		// Inherited locks are hot by construction (criterion 2).
		o.stats.classify(req.id, want, true, true)
	}
	o.charge(profiler.SLIWork, start, 0)
	return ok
}

// selectSLICandidates evaluates the five eligibility criteria of §4.2 over
// the owner's held locks, marking (Request.cand) the requests that should be
// inherited rather than released, and reports whether there are any.
// Criteria 1 (page level or higher), 2 (hot) and 3 (shared mode) are
// evaluated here; criterion 4 (no waiters) and a re-check of 2 in inherit;
// criterion 5 (the parent is also eligible) by requiring the parent to
// already be a candidate. Nothing is eligible when SLI is disabled or the
// transaction ran without an agent.
func (m *Manager) selectSLICandidates(o *Owner) bool {
	if !m.SLIEnabled() || o.agent == nil || len(o.held) == 0 {
		return false
	}
	start := o.clock()
	// o.held is in acquisition order and an object's ancestors are always
	// acquired before it, so a lock's parent has been classified by the time
	// the lock is: criterion 5 is a single cache lookup, no sorting.
	any := false
	for _, r := range o.held {
		r.cand = false
		id := r.id
		if !id.Lvl.CoarserOrEqual(m.cfg.SLIMinLevel) {
			continue // criterion 1: too fine-grained (e.g. row locks)
		}
		hot := r.head.hot.Load()
		if !r.mode.Shared() {
			if hot {
				o.stats.inc(ctrSLIIneligibleMode)
			}
			continue // criterion 3: only share-mode locks may be passed on
		}
		if !hot {
			continue // criterion 2: cold locks are not worth tracking
		}
		if parent, ok := id.Parent(); ok {
			if pr := o.cache.find(parent, parent.hash()); pr == nil || !pr.cand {
				o.stats.inc(ctrSLIIneligibleParent)
				continue // criterion 5: parent must also be passed on
			}
		}
		r.cand, any = true, true
	}
	o.charge(profiler.SLIWork, start, 0)
	return any
}

// inherit attempts to pass a granted request to the owner's agent thread
// instead of releasing it, without latching the lock head: it re-verifies
// that the lock has no waiters and is still hot (criteria 4 and 2), flips
// the request from granted to inherited and parks it on the agent. A
// requester that queued up between check and flip is caught by looking at
// waiters once more (announceWaiter is the other half of the handshake): the
// inheritance is taken back, unless that requester has already retired it.
// It returns false if the lock must be released normally instead.
func (m *Manager) inherit(o *Owner, req *Request) bool {
	start := o.clock()
	defer o.charge(profiler.SLIWork, start, 0)
	h := req.head
	if h.hasWaiters() {
		o.stats.inc(ctrSLIIneligibleWaiter) // criterion 4
		return false
	}
	if !h.hot.Load() {
		return false // cooled down since the candidate pass
	}
	req.status.Store(statusInherited)
	if h.hasWaiters() {
		if req.status.CompareAndSwap(statusInherited, statusGranted) {
			o.stats.inc(ctrSLIIneligibleWaiter)
			return false
		}
		// Passed on and invalidated in the same instant.
		m.retire(o, req, ctrSLIInvalidated)
		return true
	}
	o.agent.pending = append(o.agent.pending, req)
	return true
}

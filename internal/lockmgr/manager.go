package lockmgr

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"slidb/internal/latch"
	"slidb/internal/profiler"
)

// Errors returned by lock acquisition.
var (
	// ErrDeadlock is returned to a transaction chosen as a deadlock victim;
	// the transaction must abort and release its locks.
	ErrDeadlock = errors.New("lockmgr: deadlock detected")
	// ErrLockTimeout is returned when a lock wait exceeds Config.LockTimeout.
	ErrLockTimeout = errors.New("lockmgr: lock wait timeout")
	// ErrOwnerFinished is returned when a finished (committed/aborted) owner
	// attempts to acquire more locks.
	ErrOwnerFinished = errors.New("lockmgr: transaction already released its locks")
)

// Config controls the lock manager and the SLI policy knobs that the paper's
// §4.2 calls out (hot threshold, eligible levels).
type Config struct {
	// Partitions is the number of shards of the lock hash table
	// (rounded up to a power of two). Default 128.
	Partitions int
	// SLI enables Speculative Lock Inheritance. It can also be toggled at
	// runtime with Manager.SetSLI.
	SLI bool
	// SLIHotThreshold is the fraction of recent lock-head latch acquisitions
	// that must have been contended for the lock to be considered "hot"
	// (criterion 2). Default 0.25.
	SLIHotThreshold float64
	// SLIMinLevel is the finest hierarchy level eligible for inheritance
	// (criterion 1). Default LevelPage ("page-level or higher").
	SLIMinLevel Level
	// DeadlockCheckEvery is how often a blocked transaction probes the
	// wait-for graph for cycles. Default 2ms.
	DeadlockCheckEvery time.Duration
	// LockTimeout aborts lock waits that exceed it; 0 disables the timeout.
	// Default 10s.
	LockTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Partitions <= 0 {
		c.Partitions = 128
	}
	if c.SLIHotThreshold <= 0 {
		c.SLIHotThreshold = 0.25
	}
	if c.SLIMinLevel == 0 {
		c.SLIMinLevel = LevelPage
	}
	if c.DeadlockCheckEvery <= 0 {
		c.DeadlockCheckEvery = 2 * time.Millisecond
	}
	if c.LockTimeout == 0 {
		c.LockTimeout = 10 * time.Second
	}
	return c
}

// Manager is the centralized hierarchical lock manager (paper §3.2,
// Figure 2) extended with Speculative Lock Inheritance (§4).
type Manager struct {
	cfg   Config
	table *lockTable
	stats Stats
	// hotMin is SLIHotThreshold as integers (see latch.HotThresholds).
	hotMin [latch.WindowSize + 1]uint8

	sliEnabled  atomic.Bool
	nextAgentID atomic.Uint64
	// Owners without an agent share an id sequence and a counter shard.
	nextOwnerID atomic.Uint64
	detached    *statShard
}

// New creates a lock manager with the given configuration.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, table: newLockTable(cfg.Partitions), hotMin: latch.HotThresholds(cfg.SLIHotThreshold)}
	m.sliEnabled.Store(cfg.SLI)
	m.detached = m.stats.newShard()
	return m
}

// Stats returns the manager's cumulative event counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// Config returns the effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// SetSLI enables or disables Speculative Lock Inheritance at runtime.
// Disabling it stops new inheritances; requests already inherited drain.
func (m *Manager) SetSLI(enabled bool) { m.sliEnabled.Store(enabled) }

// SLIEnabled reports whether Speculative Lock Inheritance is active.
func (m *Manager) SLIEnabled() bool { return m.sliEnabled.Load() }

// ActiveLocks returns the number of locks with at least one request
// (granted, waiting or inherited); idle heads the table keeps do not count.
func (m *Manager) ActiveLocks() int { return m.table.active() }

// IsHot reports whether the lock identified by id is currently classified as
// hot (a testing and monitoring hook).
func (m *Manager) IsHot(id LockID) bool {
	h := m.table.lookup(id, id.hash())
	return h != nil && h.hot.Load()
}

// ForceHot marks the lock identified by id as hot (creating its lock head if
// necessary) by saturating its contention window, so tests and ablations can
// exercise SLI without generating real latch contention first.
func (m *Manager) ForceHot(id LockID) {
	h, _, _ := m.table.latched(id, id.hash())
	for i := 0; i < latch.WindowSize; i++ {
		h.recordLatchAcquire(true, &m.hotMin)
	}
	h.latch.Unlock()
}

// maxFreeRequests bounds an agent's request free list.
const maxFreeRequests = 4096

// Agent represents an agent (worker) thread. It holds the thread-local list
// of inherited lock requests between transactions (paper §4.1) and what a
// transaction's locking needs that can outlive it: one reusable Owner, a
// free list of Requests and a shard of the event counters. An Agent, and
// every Owner created on it, must only be used by one goroutine at a time.
type Agent struct {
	id      uint64
	stats   *statShard
	pending []*Request

	// owner is handed out by NewOwner when the agent's previous transaction
	// has finished; seq numbers its incarnations.
	owner Owner
	seq   uint64

	// free lists recycled requests through Request.next; nreq counts those
	// allocated and not given up (at rest, nfree plus the pending ones).
	free        *Request
	nfree, nreq int
}

// NewAgent creates an agent context. Each worker goroutine that executes
// transactions should own exactly one Agent.
func (m *Manager) NewAgent() *Agent {
	a := &Agent{id: m.nextAgentID.Add(1), stats: m.stats.newShard()}
	o := &a.owner
	o.mgr, o.agent, o.stats, o.finished = m, a, a.stats, true
	o.reserve()
	return a
}

// PendingInherited returns the number of inherited lock requests currently
// parked on the agent, awaiting the agent's next transaction.
func (a *Agent) PendingInherited() (n int) {
	if a != nil {
		for _, r := range a.pending {
			if r.status.Load() == statusInherited {
				n++
			}
		}
	}
	return n
}

// Owner is the lock-manager-side context of one transaction: its private
// list of granted requests (in acquisition order), its lock cache, and the
// inherited requests it received from its agent but has not yet reclaimed.
// An Owner is not safe for concurrent use, and it is valid only from
// NewOwner until its ReleaseAll (or ReleaseAllEarly) returns: the agent
// reuses it for its next transaction.
type Owner struct {
	// id identifies the transaction and changes every time the Owner is
	// reused: the generation deadlock probes compare (hence atomic).
	id    atomic.Uint64
	mgr   *Manager
	agent *Agent
	prof  *profiler.Handle
	stats *statShard

	held  []*Request
	cache lockCache
	// inherited is what attach seeded; Request.unclaimed flags the live ones.
	inherited []*Request

	// The request the owner is blocked on and its head, for deadlock probes.
	waiting  atomic.Pointer[Request]
	waitHead atomic.Pointer[lockHead]
	finished bool

	// probe and seen are the scratch space of the owner's own deadlock
	// probes: the wait-for edges still to visit and the owners visited.
	probe []waitEdge
	seen  []*Owner
}

// NewOwner returns the locking context for a new transaction running on the
// given agent (nil for a detached transaction), seeded with the agent's
// inherited locks. prof may be nil. The agent's own Owner is reused unless
// its previous transaction is still live.
func (m *Manager) NewOwner(agent *Agent, prof *profiler.Handle) *Owner {
	var o *Owner
	if agent != nil && agent.owner.finished {
		o = &agent.owner
		agent.seq++
		o.id.Store(agent.id<<40 | agent.seq)
	} else {
		o = &Owner{mgr: m, agent: agent, stats: m.detached}
		if agent != nil {
			o.stats = agent.stats
		}
		o.id.Store(m.nextOwnerID.Add(1))
	}
	o.prof, o.finished = prof, false
	if agent != nil && len(agent.pending) > 0 {
		m.attach(o)
	}
	return o
}

// HeldCount returns the number of locks the transaction currently holds.
func (o *Owner) HeldCount() int { return len(o.held) }

// InheritedCount returns the number of inherited requests seeded into this
// transaction that it has not (yet) reclaimed.
func (o *Owner) InheritedCount() (n int) {
	for _, r := range o.inherited {
		if r.unclaimed {
			n++
		}
	}
	return n
}

// HeldMode returns the mode in which the transaction holds the given lock,
// or NL if it does not hold it. Inherited-but-unreclaimed locks report NL.
func (o *Owner) HeldMode(id LockID) Mode {
	if r := o.cache.find(id, id.hash()); r != nil {
		switch r.status.Load() {
		case statusGranted, statusConverting:
			return r.mode
		}
	}
	return NL
}

// clock reads the time only for a profiled owner.
func (o *Owner) clock() (t time.Time) {
	if o.prof != nil {
		t = time.Now()
	}
	return t
}

// charge attributes the time since start (a clock result), less a latch
// wait charged elsewhere, to category c.
func (o *Owner) charge(c profiler.Category, start time.Time, wait time.Duration) {
	if o.prof != nil {
		o.prof.Add(c, time.Since(start)-wait)
	}
}

// latched accounts one lock-head latch acquisition.
func (o *Owner) latched(contended bool, wait time.Duration, c profiler.Category) {
	if contended {
		o.stats.inc(ctrLatchContended)
		o.prof.Add(c, wait)
	}
}

// hasRoom reports whether one more lock can be recorded without allocating.
func (o *Owner) hasRoom() bool { return len(o.held) < cap(o.held) && !o.cache.full() }

// reserve makes that room.
func (o *Owner) reserve() {
	if len(o.held) == cap(o.held) {
		o.held = slices.Grow(o.held, max(16, len(o.held)))
	}
	if o.cache.full() {
		o.cache.grow()
	}
}

// push records a granted request; the caller has made room.
func (o *Owner) push(req *Request) {
	o.cache.put(req)
	n := len(o.held)
	o.held = o.held[:n+1]
	o.held[n] = req
}

// newRequest takes a request off the agent's free list, or allocates one.
func (o *Owner) newRequest() *Request {
	a := o.agent
	if a != nil {
		if r := a.free; r != nil {
			a.free, r.next = r.next, nil
			a.nfree--
			return r
		}
		a.nreq++
	}
	return &Request{agent: a, ready: make(chan error, 1)}
}

// recycle returns a request, unlinked under its head's latch, to its
// agent's free list. Nobody reads a free request's status.
func recycle(r *Request) {
	if a := r.agent; a != nil {
		if a.nfree < maxFreeRequests {
			r.next, a.free = a.free, r
			a.nfree++
		} else {
			a.nreq--
		}
	}
}

// ReleaseAllEarly is ReleaseAll invoked under Early Lock Release once the
// transaction's outcome record (commit, or abort after a compensation-logged
// rollback) is appended to the log but not yet durable. The release path is
// identical, SLI included; the event is counted separately so ablations and
// tests can verify that no lock is held across a log flush.
func (o *Owner) ReleaseAllEarly() {
	if o.finished {
		return
	}
	o.stats.inc(ctrELRReleases)
	o.ReleaseAll()
}

// Lock acquires the lock identified by id in the given mode on behalf of the
// owner, acquiring intention locks on all ancestors first. It blocks until
// the lock is granted or deadlock detection or the timeout aborts the wait.
func (o *Owner) Lock(id LockID, mode Mode) error {
	m := o.mgr
	if mode == NL {
		return nil
	}
	if !mode.Valid() {
		return fmt.Errorf("lockmgr: invalid lock mode %d", mode)
	}
	if o.finished {
		return ErrOwnerFinished
	}
	// Ensure the proper intention locks are held on every ancestor
	// ("the manager first ensures the transaction holds higher-level
	// intention locks, requesting them automatically if necessary", §3.2).
	if parent, ok := id.Parent(); ok {
		if err := o.Lock(parent, ParentMode(mode)); err != nil {
			return err
		}
	}
	hash := id.hash()
	req, done := m.lockFast(o, id, hash, mode)
	switch {
	case done:
		return nil
	case req != nil:
		return m.waitFor(o, req, false)
	}
	return m.lockSlow(o, id, hash, mode)
}

// lockFast is the no-conflict path: a hit in the owner's lock cache, an SLI
// reclaim, or a request on an existing lock head made with a recycled
// Request. It allocates nothing, reads the clock only for a profiled owner,
// and writes no memory shared with other agents except the lock head. It
// reports done when the lock is held, returns the request if it was queued
// behind a conflict, and neither, having changed nothing, when lockSlow must
// first convert, retire a failed speculation, or make a head, Request or room.
//
//slint:hotpath
func (m *Manager) lockFast(o *Owner, id LockID, hash uint64, mode Mode) (queued *Request, done bool) {
	cached := o.cache.find(id, hash)
	if cached != nil && cached.status.Load() == statusGranted && Covers(cached.mode, mode) {
		o.stats.inc(ctrCacheHits)
		return nil, true
	}
	if !o.hasRoom() {
		return nil, false
	}
	if cached != nil {
		return nil, cached.status.Load() == statusInherited && m.reclaim(o, cached, mode)
	}
	a := o.agent
	if a == nil || a.free == nil {
		return nil, false
	}
	h := m.table.lookup(id, hash)
	if h == nil {
		return nil, false
	}
	start := o.clock()
	contended, wait := h.latch.Lock()
	if h.dead {
		h.latch.Unlock()
		return nil, false
	}
	req := a.free
	a.free, req.next = req.next, nil
	a.nfree--
	if m.enqueue(o, h, req, mode, contended, wait, start) {
		return nil, true
	}
	return req, false
}

// lockSlow is the general acquisition: make room, settle what the owner's
// cache holds for the lock (convert a weaker grant, retire a failed
// speculation), find or create the lock head, and request the lock.
func (m *Manager) lockSlow(o *Owner, id LockID, hash uint64, mode Mode) error {
	o.reserve()
	if cached := o.cache.find(id, hash); cached != nil {
		switch cached.status.Load() {
		case statusGranted:
			return m.convert(o, cached, mode)
		case statusInherited:
			if m.reclaim(o, cached, mode) {
				return nil
			}
		}
		// Speculation failed: another transaction invalidated the inherited
		// request, or it is too weak and we retire it ourselves.
		start := o.clock()
		o.cache.drop(id, hash)
		m.retire(o, cached, ctrSLIInvalidated)
		o.charge(profiler.SLIWork, start, 0)
	}
	start := o.clock()
	req := o.newRequest()
	h, contended, wait := m.table.latched(id, hash)
	if m.enqueue(o, h, req, mode, contended, wait, start) {
		return nil
	}
	return m.waitFor(o, req, false)
}

// enqueue files req, a new request of o for mode, on h, whose latch the
// caller has just taken (at the given cost) and enqueue releases. It
// invalidates incompatible inherited requests (§4.1), then either grants the
// request, recording it in o (the caller has made room), and reports true,
// or leaves it waiting in the queue.
//
//slint:hotpath
func (m *Manager) enqueue(o *Owner, h *lockHead, req *Request, mode Mode, contended bool, wait time.Duration, start time.Time) bool {
	o.latched(contended, wait, profiler.LockMgrContention)
	h.recordLatchAcquire(contended, &m.hotMin)
	o.stats.classify(h.id, mode, h.hot.Load(), false)
	granted := !h.hasWaiters() && m.compatible(o, h, nil, mode)
	if granted {
		req.set(o, h, mode, statusGranted)
		h.queue.pushBack(req)
	} else {
		req.set(o, h, mode, statusWaiting)
		h.queue.pushBack(req)
		m.announceWaiter(o, h, mode)
	}
	h.latch.Unlock()
	if granted {
		o.push(req)
	}
	o.charge(profiler.LockMgrWork, start, wait)
	return granted
}

// convert upgrades an already-held request to cover the wanted mode
// (e.g. IS→IX when a reader turns writer).
func (m *Manager) convert(o *Owner, req *Request, want Mode) error {
	start := o.clock()
	target := Supremum(req.mode, want)
	h := req.head
	contended, wait := h.latch.Lock()
	o.latched(contended, wait, profiler.LockMgrContention)
	h.recordLatchAcquire(contended, &m.hotMin)
	o.stats.inc(ctrConversions)
	o.stats.classify(req.id, target, h.hot.Load(), false)
	if m.compatible(o, h, req, target) {
		req.mode = target
		h.latch.Unlock()
		o.charge(profiler.LockMgrWork, start, wait)
		return nil
	}
	req.convMode = target
	req.status.Store(statusConverting)
	m.announceWaiter(o, h, target)
	h.latch.Unlock()
	o.charge(profiler.LockMgrWork, start, wait)
	return m.waitFor(o, req, true)
}

// waitFor blocks the owner until its request is granted, it is chosen as a
// deadlock victim, or the lock wait times out.
func (m *Manager) waitFor(o *Owner, req *Request, isConversion bool) error {
	o.stats.inc(ctrWaits)
	o.waitHead.Store(req.head)
	o.waiting.Store(req)
	waitStart := time.Now()
	// done ends the wait: a granted new request joins the held list, a
	// cancelled one (unlinked by cancelWait) is recycled.
	done := func(err error, c counter) error {
		o.waiting.Store(nil)
		o.waitHead.Store(nil)
		o.prof.Add(profiler.LockWait, time.Since(waitStart))
		switch {
		case err != nil:
			o.stats.inc(c)
			if !isConversion {
				recycle(req)
			}
		case !isConversion:
			o.push(req)
		}
		return err
	}
	check := time.NewTimer(m.cfg.DeadlockCheckEvery)
	defer check.Stop()
	var deadlineC <-chan time.Time
	if m.cfg.LockTimeout > 0 {
		deadline := time.NewTimer(m.cfg.LockTimeout)
		defer deadline.Stop()
		deadlineC = deadline.C
	}

	// abort gives up with err, unless the request was granted while we were
	// cancelling: then it takes the grant.
	abort := func(err error, c counter) error {
		if !m.cancelWait(o, req) {
			<-req.ready
			err = nil
		}
		return done(err, c)
	}
	for {
		select {
		case <-req.ready:
			return done(nil, 0)
		case <-check.C:
			if m.detectDeadlock(o) {
				return abort(ErrDeadlock, ctrDeadlocks)
			}
			check.Reset(m.cfg.DeadlockCheckEvery)
		case <-deadlineC:
			return abort(ErrLockTimeout, ctrTimeouts)
		}
	}
}

// cancelWait aborts a waiting or converting request. It returns false if the
// request was granted first (a grant notification is then in req.ready).
func (m *Manager) cancelWait(o *Owner, req *Request) bool {
	h := req.head
	contended, wait := h.latch.Lock()
	o.latched(contended, wait, profiler.LockMgrContention)
	defer h.latch.Unlock()
	switch req.status.Load() {
	case statusWaiting:
		req.status.Store(statusInvalid)
		h.queue.remove(req)
		h.waiters.Add(-1)
	case statusConverting:
		// Revert to the previously held mode; the transaction keeps the lock
		// it already had and will release it when it aborts.
		req.status.Store(statusGranted)
		req.convMode = NL
		h.waiters.Add(-1)
	default:
		return false // already granted
	}
	m.grantWaiters(h)
	return true
}

// compatible reports whether mode is compatible with every request in h's
// queue other than except, once the inherited ones that are not have been
// invalidated. Latch held.
func (m *Manager) compatible(o *Owner, h *lockHead, except *Request, mode Mode) bool {
	return Compatible(mode, h.grantedSupremum(except)) ||
		m.invalidateIncompatible(o, h, mode) && Compatible(mode, h.grantedSupremum(except))
}

// invalidateIncompatible retires every inherited request in h's queue that
// is incompatible with a new request for mode and reports whether there was
// one. Latch held. The caller (the conflicting requester) performs the
// unlink, per the paper's protocol; the owning agent recycles the request
// once it notices (retire).
func (m *Manager) invalidateIncompatible(o *Owner, h *lockHead, mode Mode) (any bool) {
	for r := h.queue.head; r != nil; {
		next := r.next
		if r.status.Load() == statusInherited && !Compatible(mode, r.mode) &&
			r.status.CompareAndSwap(statusInherited, statusInvalid) {
			h.queue.remove(r)
			o.stats.inc(ctrSLIInvalidated)
			any = true
		}
		r = next
	}
	return any
}

// announceWaiter counts the request the caller has just queued (waiting, or
// converting to mode) in h.waiters and closes the race with inherit, which
// runs without the latch: a holder may have inherited a request the caller's
// scan took for a plain conflict. Either that holder's re-check sees the
// waiter and takes the inheritance back, or the second scan here sees the
// inherited request, retires it and re-runs granting. Latch held.
func (m *Manager) announceWaiter(o *Owner, h *lockHead, mode Mode) {
	h.waiters.Add(1)
	if m.invalidateIncompatible(o, h, mode) {
		m.grantWaiters(h)
	}
}

// unlink removes req from its head's queue (a no-op if a conflicting
// requester already has: taking the latch then merely waits out that
// requester's unlink), grants any waiters that become compatible, and
// recycles the request.
func (m *Manager) unlink(o *Owner, req *Request) (wait time.Duration) {
	h := req.head
	contended, wait := h.latch.Lock()
	o.latched(contended, wait, profiler.LockMgrContention)
	h.queue.remove(req)
	if h.hasWaiters() {
		m.grantWaiters(h)
	}
	h.latch.Unlock()
	recycle(req)
	return wait
}

// release gives up a granted request.
func (m *Manager) release(o *Owner, req *Request) {
	start := o.clock()
	o.charge(profiler.LockMgrWork, start, m.unlink(o, req))
}

// retire takes an inherited request the owner will not use out of play. If
// it is still inherited the owner invalidates it itself, counting the event
// as c; otherwise a conflicting requester already did, and counted it.
func (m *Manager) retire(o *Owner, req *Request, c counter) {
	if req.status.CompareAndSwap(statusInherited, statusInvalid) {
		o.stats.inc(c)
	}
	req.unclaimed = false
	m.unlink(o, req)
}

// grantWaiters re-evaluates h's queue after a release or invalidation,
// satisfying pending conversions first and then waiting requests in FIFO
// order (paper §3.2 and Figure 3). Must be called with h's latch held.
func (m *Manager) grantWaiters(h *lockHead) {
	// Conversions first: they are already holders and block everything else.
	for r := h.queue.head; r != nil; r = r.next {
		if r.status.Load() != statusConverting {
			continue
		}
		agg := h.grantedSupremum(r)
		if Compatible(r.convMode, agg) {
			r.mode = r.convMode
			r.convMode = NL
			r.status.Store(statusGranted)
			h.waiters.Add(-1)
			r.ready <- nil
		}
	}
	// Then new requests, stopping at the first that still cannot be granted
	// so it is not starved by later compatible arrivals.
	for r := h.queue.head; r != nil; r = r.next {
		if r.status.Load() != statusWaiting {
			continue
		}
		agg := h.grantedSupremum(r)
		if !Compatible(r.mode, agg) {
			break
		}
		r.status.Store(statusGranted)
		h.waiters.Add(-1)
		r.ready <- nil
	}
}

// ReleaseAll releases every lock the owner holds at transaction completion
// (commit or abort), passing SLI-eligible locks to its agent thread instead
// and retiring any inherited requests the transaction never used. Afterwards
// the Owner belongs to the agent's next transaction.
func (o *Owner) ReleaseAll() {
	m := o.mgr
	if o.finished {
		return
	}
	o.finished = true
	o.stats.inc(ctrTransactions)
	// Inherited requests this transaction never reclaimed are released now
	// ("the transaction simply releases them at commit time along with the
	// locks it did use", §4.1), their cost attributed to SLI as in Figure 10.
	if len(o.inherited) > 0 {
		start := o.clock()
		for _, req := range o.inherited {
			if req.unclaimed {
				m.retire(o, req, ctrSLIDiscarded)
			}
		}
		o.charge(profiler.SLIWork, start, 0)
	}
	o.inherited = o.inherited[:0]

	// Release youngest-first, mirroring Shore-MT's release order.
	inherit, passed := m.selectSLICandidates(o), uint64(0)
	for i := len(o.held) - 1; i >= 0; i-- {
		req := o.held[i]
		if inherit && req.cand && m.inherit(o, req) {
			passed++
			continue
		}
		m.release(o, req)
	}
	if passed > 0 {
		o.stats.c[ctrSLIPassed].Add(passed)
	}
	o.held = o.held[:0]
	o.cache.reset()
}

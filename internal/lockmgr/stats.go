package lockmgr

import (
	"sync"
	"sync/atomic"
)

// counter indexes one event counter within a statShard.
type counter uint8

const (
	ctrCacheHits counter = iota
	ctrConversions
	ctrLatchContended
	ctrWaits
	ctrDeadlocks
	ctrTimeouts
	ctrSLIPassed
	ctrSLIInvalidated
	ctrSLIDiscarded
	ctrSLIIneligibleWaiter
	ctrSLIIneligibleMode
	ctrSLIIneligibleParent
	ctrELRReleases
	ctrTransactions
	// ctrAcquire is the first of 32 acquisition-class counters indexed by
	// level<<3 | reclaimed<<2 | shared<<1 | hot: classifying an acquisition
	// for the Figure-8 breakdown, SLI reclaims included, is one increment.
	ctrAcquire
	numCounters = ctrAcquire + 32
)

// statShard is one agent's set of counters, so counting an event never
// writes memory another agent writes; detached owners share one.
type statShard struct {
	c [numCounters]atomic.Uint64
	_ [64]byte
}

func (s *statShard) inc(c counter) { s.c[c].Add(1) }

// classify records one lock acquisition in the Figure-8 breakdown counters;
// reclaimed marks it as an SLI reclaim rather than a lock-table acquisition.
func (s *statShard) classify(id LockID, mode Mode, hot, reclaimed bool) {
	c := ctrAcquire + counter(id.Lvl)<<3
	if reclaimed {
		c += 4
	}
	if mode.Shared() {
		c += 2
	}
	if hot {
		c++
	}
	s.c[c].Add(1)
}

// Stats holds the lock manager's event counters: the scheduler-independent
// metrics behind Figures 8 and 9 of the paper (lock-acquisition and SLI
// outcome breakdowns) that corroborate the time-based profiler results. They
// are cumulative and sharded per agent; Snapshot sums the shards into a
// StatsSnapshot (whose fields document each counter) and Diff computes
// per-interval figures.
type Stats struct {
	mu     sync.Mutex
	shards []*statShard // one per agent ever created, one for detached owners
}

// newShard registers and returns a shard for a new agent.
func (s *Stats) newShard() *statShard {
	sh := &statShard{}
	s.mu.Lock()
	s.shards = append(s.shards, sh)
	s.mu.Unlock()
	return sh
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	// Acquisition counters (Figure 8).

	// AcquiresByLevel counts every lock acquisition that reached the lock
	// manager (cache hits excluded, SLI reclaims included), by level.
	AcquiresByLevel [4]uint64
	// SharedAcquires counts acquisitions in SLI-heritable modes (S, IS, IX).
	SharedAcquires uint64
	// ExclusiveAcquires counts acquisitions in X, SIX or U mode.
	ExclusiveAcquires uint64
	// HotHeritable counts acquisitions of locks that were hot at acquisition
	// time and satisfied SLI criteria 1 and 3 (page level or higher, shared
	// mode): the locks SLI targets.
	HotHeritable uint64
	// HotNonHeritable counts acquisitions of hot locks that SLI cannot pass
	// on (row-level or exclusive-mode).
	HotNonHeritable uint64
	// ColdHeritable counts acquisitions of high-level shared locks that were
	// not hot at acquisition time.
	ColdHeritable uint64
	// ColdOther counts all remaining acquisitions (cold and either row-level
	// or exclusive).
	ColdOther uint64
	// CacheHits counts acquisitions satisfied entirely from the
	// transaction's private lock cache (already held in a covering mode).
	CacheHits uint64
	// Conversions counts lock upgrades (e.g. IS→IX).
	Conversions uint64
	// LatchContended counts lock-head latch acquisitions that found the
	// latch held — the physical-contention signal of §1.1.
	LatchContended uint64
	// Waits counts requests that blocked on a logical lock conflict.
	Waits uint64
	// Deadlocks counts requests aborted by deadlock detection.
	Deadlocks uint64
	// Timeouts counts requests aborted by lock wait timeout.
	Timeouts uint64

	// SLI counters (Figure 9).

	// SLIPassed counts lock requests passed from a committing transaction to
	// its agent thread (inherited) instead of being released.
	SLIPassed uint64
	// SLIReclaimed counts inherited requests successfully reclaimed
	// (CAS inherited→granted) by a subsequent transaction — successful
	// speculation.
	SLIReclaimed uint64
	// SLIInvalidated counts inherited requests invalidated by a conflicting
	// request (or by an incompatible reclaim attempt) before reuse.
	SLIInvalidated uint64
	// SLIDiscarded counts inherited requests that the next transaction never
	// used and therefore released at commit time.
	SLIDiscarded uint64
	// SLIIneligibleWaiter counts hot locks that could not be inherited
	// because another transaction was waiting on them (criterion 4).
	SLIIneligibleWaiter uint64
	// SLIIneligibleMode counts hot locks that could not be inherited because
	// they were held in an exclusive mode (criterion 3).
	SLIIneligibleMode uint64
	// SLIIneligibleParent counts locks that met every criterion except that
	// their parent was not itself eligible (criterion 5).
	SLIIneligibleParent uint64

	// ELRReleases counts transactions whose locks were released early (at
	// commit-record append, before the log force) by Early Lock Release.
	ELRReleases uint64

	// Transactions counts ReleaseAll calls, i.e. completed transactions,
	// used to compute average locks per transaction.
	Transactions uint64
}

// counters lists the snapshot's fields, the directly counted ones (in
// counter order) first.
func (s *StatsSnapshot) counters() []*uint64 {
	return []*uint64{&s.CacheHits, &s.Conversions, &s.LatchContended, &s.Waits, &s.Deadlocks,
		&s.Timeouts, &s.SLIPassed, &s.SLIInvalidated, &s.SLIDiscarded, &s.SLIIneligibleWaiter,
		&s.SLIIneligibleMode, &s.SLIIneligibleParent, &s.ELRReleases, &s.Transactions,
		&s.SLIReclaimed, &s.SharedAcquires, &s.ExclusiveAcquires, &s.HotHeritable, &s.HotNonHeritable,
		&s.ColdHeritable, &s.ColdOther, &s.AcquiresByLevel[0], &s.AcquiresByLevel[1],
		&s.AcquiresByLevel[2], &s.AcquiresByLevel[3]}
}

// Snapshot returns a point-in-time sum of all counters over every shard.
func (s *Stats) Snapshot() (out StatsSnapshot) {
	var c [numCounters]uint64
	s.mu.Lock()
	for _, sh := range s.shards {
		for i := range c {
			c[i] += sh.c[i].Load()
		}
	}
	s.mu.Unlock()
	for i, f := range out.counters()[:ctrAcquire] {
		*f = c[i]
	}
	for class, n := range c[ctrAcquire:] {
		lvl, shared, hot := Level(class>>3), class&2 != 0, class&1 != 0
		out.AcquiresByLevel[lvl] += n
		if class&4 != 0 {
			out.SLIReclaimed += n
		}
		if shared {
			out.SharedAcquires += n
		} else {
			out.ExclusiveAcquires += n
		}
		heritable := shared && lvl.CoarserOrEqual(LevelPage)
		switch {
		case hot && heritable:
			out.HotHeritable += n
		case hot:
			out.HotNonHeritable += n
		case heritable:
			out.ColdHeritable += n
		default:
			out.ColdOther += n
		}
	}
	return out
}

// TotalAcquires returns the total number of lock acquisitions across all
// levels.
func (s StatsSnapshot) TotalAcquires() uint64 {
	var t uint64
	for _, v := range s.AcquiresByLevel {
		t += v
	}
	return t
}

// LocksPerTransaction returns the average number of lock acquisitions per
// completed transaction (the number printed above each bar of Figure 8).
func (s StatsSnapshot) LocksPerTransaction() float64 {
	if s.Transactions == 0 {
		return 0
	}
	return float64(s.TotalAcquires()) / float64(s.Transactions)
}

// Diff returns the counter deltas s - earlier, clamping at zero; it is used
// to compute per-measurement-interval statistics.
func (s StatsSnapshot) Diff(earlier StatsSnapshot) (out StatsSnapshot) {
	a, b := s.counters(), earlier.counters()
	for i, f := range out.counters() {
		if *a[i] > *b[i] {
			*f = *a[i] - *b[i]
		}
	}
	return out
}

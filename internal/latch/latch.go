// Package latch provides the low-level synchronization primitives ("latches")
// used throughout the storage manager, following the terminology of
// Gray & Reuter: latches protect in-memory state for very short critical
// sections, in contrast with database locks which protect logical database
// content for the duration of a transaction.
//
// The latches in this package are instrumented: every acquisition reports
// whether it was contended (another thread held the latch at the time of the
// request) and how long the caller waited. The lock manager uses the
// contention signal to detect "hot" locks (paper §4.2 criterion 2) and the
// profiler uses the wait durations to build the work-vs-contention breakdowns
// of Figures 1, 6 and 10.
package latch

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stats accumulates acquisition statistics for a latch. All counters are
// monotonically increasing and safe for concurrent use.
type Stats struct {
	Acquires  atomic.Uint64 // total successful acquisitions
	Contended atomic.Uint64 // acquisitions that found the latch held
	WaitNanos atomic.Uint64 // total time spent waiting for contended acquisitions
}

// Snapshot returns a point-in-time copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Acquires:  s.Acquires.Load(),
		Contended: s.Contended.Load(),
		WaitNanos: s.WaitNanos.Load(),
	}
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Acquires  uint64
	Contended uint64
	WaitNanos uint64
}

// ContentionRatio returns the fraction of acquisitions that were contended,
// or 0 if there have been no acquisitions.
func (s StatsSnapshot) ContentionRatio() float64 {
	if s.Acquires == 0 {
		return 0
	}
	return float64(s.Contended) / float64(s.Acquires)
}

// Mutex is an exclusive latch. It is implemented as a try-then-block wrapper
// around sync.Mutex: the fast path is a single TryLock and nothing else; on
// failure the acquisition is recorded as contended and the caller blocks on
// the underlying mutex (the Go runtime parks the goroutine, which behaves
// well even when the number of agents greatly exceeds GOMAXPROCS).
//
// The acquisition count is a plain field written only while the latch is
// held, so counting costs the uncontended path no atomic operation; the
// contention counters are atomics touched on the contended path only.
//
// The zero value is an unlocked latch.
type Mutex struct {
	mu        sync.Mutex
	acquires  uint64 // guarded by mu
	contended atomic.Uint64
	waitNanos atomic.Uint64
}

// Lock acquires the latch, blocking if necessary. It reports whether the
// acquisition was contended and how long the caller waited.
func (m *Mutex) Lock() (contended bool, wait time.Duration) {
	if m.mu.TryLock() {
		m.acquires++
		return false, 0
	}
	start := time.Now()
	m.mu.Lock()
	m.acquires++
	wait = time.Since(start)
	m.contended.Add(1)
	m.waitNanos.Add(uint64(wait))
	return true, wait
}

// TryLock attempts to acquire the latch without blocking.
func (m *Mutex) TryLock() bool {
	if m.mu.TryLock() {
		m.acquires++
		return true
	}
	return false
}

// Unlock releases the latch. It must only be called by the current holder.
func (m *Mutex) Unlock() { m.mu.Unlock() }

// Stats returns a copy of the latch's acquisition counters. It takes the
// latch for an instant to read the acquisition count, so it must not be
// called by the current holder.
func (m *Mutex) Stats() StatsSnapshot {
	m.mu.Lock()
	n := m.acquires
	m.mu.Unlock()
	return StatsSnapshot{Acquires: n, Contended: m.contended.Load(), WaitNanos: m.waitNanos.Load()}
}

// RWLatch is a reader-writer latch used for structures that are read far more
// often than written, such as buffer-pool frames and B+tree nodes. Like
// Mutex it records contention statistics.
//
// The zero value is an unlocked latch.
type RWLatch struct {
	mu    sync.RWMutex
	stats Stats
}

// RLock acquires the latch in shared mode.
func (l *RWLatch) RLock() (contended bool, wait time.Duration) {
	l.stats.Acquires.Add(1)
	if l.mu.TryRLock() {
		return false, 0
	}
	l.stats.Contended.Add(1)
	start := time.Now()
	l.mu.RLock()
	wait = time.Since(start)
	l.stats.WaitNanos.Add(uint64(wait))
	return true, wait
}

// RUnlock releases a shared-mode hold.
func (l *RWLatch) RUnlock() { l.mu.RUnlock() }

// Lock acquires the latch in exclusive mode.
func (l *RWLatch) Lock() (contended bool, wait time.Duration) {
	l.stats.Acquires.Add(1)
	if l.mu.TryLock() {
		return false, 0
	}
	l.stats.Contended.Add(1)
	start := time.Now()
	l.mu.Lock()
	wait = time.Since(start)
	l.stats.WaitNanos.Add(uint64(wait))
	return true, wait
}

// TryLock attempts to acquire the latch in exclusive mode without blocking.
func (l *RWLatch) TryLock() bool {
	if l.mu.TryLock() {
		l.stats.Acquires.Add(1)
		return true
	}
	return false
}

// Unlock releases an exclusive-mode hold.
func (l *RWLatch) Unlock() { l.mu.Unlock() }

// Stats exposes the latch's acquisition counters.
func (l *RWLatch) Stats() *Stats { return &l.stats }

// ContentionWindow tracks the contention outcome of the most recent N
// acquisitions of a latch, as a fixed-size ring of booleans packed into a
// bitmask. The lock manager keeps one window per lock head and declares the
// lock "hot" when the fraction of recent contended acquisitions crosses a
// threshold (paper §4.2: "We detect a 'hot' lock by tracking what fraction of
// the most recent several acquires encountered latch contention").
//
// The window is updated while the corresponding lock head latch is held, so
// it does not need to be thread safe; it is nevertheless cheap enough to be
// updated on every acquisition.
type ContentionWindow struct {
	bits uint64 // 1 bit per recent acquisition, LSB = most recent
	fill uint8  // number of valid bits, saturates at Size
	ones uint8  // population count of the valid bits
}

// WindowSize is the number of recent acquisitions tracked per lock.
const WindowSize = 16

// Record pushes the outcome of one acquisition into the window.
func (w *ContentionWindow) Record(contended bool) {
	evicted := (w.bits >> (WindowSize - 1)) & 1
	w.bits = (w.bits << 1) & ((1 << WindowSize) - 1)
	if contended {
		w.bits |= 1
		w.ones++
	}
	if w.fill < WindowSize {
		w.fill++
	} else if evicted == 1 {
		w.ones--
	}
}

// Ratio returns the fraction of tracked acquisitions that were contended.
// It returns 0 until at least a quarter of the window has been filled, so a
// single early collision does not mark a lock hot.
func (w *ContentionWindow) Ratio() float64 {
	if w.fill < WindowSize/4 {
		return 0
	}
	return float64(w.ones) / float64(w.fill)
}

// HotThresholds precomputes, for a hot-ness threshold, the least number of
// contended acquisitions at every fill level for which Ratio() >= threshold
// holds, so the per-acquisition verdict (Hot) is one integer comparison
// instead of a float division. A fill level that can never be hot maps to
// WindowSize+1.
func HotThresholds(threshold float64) (min [WindowSize + 1]uint8) {
	for fill := range min {
		min[fill] = WindowSize + 1
		for ones := fill; ones >= 0; ones-- {
			w := ContentionWindow{fill: uint8(fill), ones: uint8(ones)}
			if w.Ratio() < threshold {
				break
			}
			min[fill] = uint8(ones)
		}
	}
	return min
}

// Hot reports whether Ratio() is at or above the threshold min was built
// for by HotThresholds.
func (w *ContentionWindow) Hot(min *[WindowSize + 1]uint8) bool {
	return w.ones >= min[w.fill]
}

// Reset clears the window.
func (w *ContentionWindow) Reset() {
	w.bits, w.fill, w.ones = 0, 0, 0
}

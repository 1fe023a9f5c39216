// Package latch provides the low-level synchronization primitives ("latches")
// used throughout the storage manager, following the terminology of
// Gray & Reuter: latches protect in-memory state for very short critical
// sections, in contrast with database locks which protect logical database
// content for the duration of a transaction.
//
// Every acquisition reports whether it was contended (another thread held the
// latch at the time of the request) and how long the caller waited; the
// latches keep no counters of their own. The lock manager uses the
// contention signal to detect "hot" locks (paper §4.2 criterion 2) and the
// profiler uses the wait durations to build the work-vs-contention breakdowns
// of Figures 1, 6 and 10.
package latch

import (
	"sync"
	"time"
)

// Mutex is an exclusive latch. It is implemented as a try-then-block wrapper
// around sync.Mutex: the fast path is a single TryLock and nothing else; on
// failure the acquisition is reported as contended and the caller blocks on
// the underlying mutex (the Go runtime parks the goroutine, which behaves
// well even when the number of agents greatly exceeds GOMAXPROCS).
//
// The zero value is an unlocked latch.
type Mutex struct {
	mu sync.Mutex
}

// Lock acquires the latch, blocking if necessary. It reports whether the
// acquisition was contended and how long the caller waited.
func (m *Mutex) Lock() (contended bool, wait time.Duration) {
	if m.mu.TryLock() {
		return false, 0
	}
	start := time.Now()
	m.mu.Lock()
	return true, time.Since(start)
}

// TryLock attempts to acquire the latch without blocking.
func (m *Mutex) TryLock() bool { return m.mu.TryLock() }

// Unlock releases the latch. It must only be called by the current holder.
func (m *Mutex) Unlock() { m.mu.Unlock() }

// RWLatch is a reader-writer latch used for structures that are read far more
// often than written, such as buffer-pool frames and B+trees. Like Mutex it
// reports contention to the caller.
//
// The zero value is an unlocked latch.
type RWLatch struct {
	mu sync.RWMutex
}

// RLock acquires the latch in shared mode.
func (l *RWLatch) RLock() (contended bool, wait time.Duration) {
	if l.mu.TryRLock() {
		return false, 0
	}
	start := time.Now()
	l.mu.RLock()
	return true, time.Since(start)
}

// RUnlock releases a shared-mode hold.
func (l *RWLatch) RUnlock() { l.mu.RUnlock() }

// Lock acquires the latch in exclusive mode.
func (l *RWLatch) Lock() (contended bool, wait time.Duration) {
	if l.mu.TryLock() {
		return false, 0
	}
	start := time.Now()
	l.mu.Lock()
	return true, time.Since(start)
}

// TryLock attempts to acquire the latch in exclusive mode without blocking.
func (l *RWLatch) TryLock() bool { return l.mu.TryLock() }

// Unlock releases an exclusive-mode hold.
func (l *RWLatch) Unlock() { l.mu.Unlock() }

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

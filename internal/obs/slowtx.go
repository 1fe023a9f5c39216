package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slidb/internal/profiler"
)

// SlowTx is one traced slow transaction, in the JSON shape served by the
// /debug/slowtx endpoint.
type SlowTx struct {
	// XID is the transaction identifier.
	XID uint64 `json:"xid"`
	// Start is when the transaction attempt began.
	Start time.Time `json:"start"`
	// DurationSeconds is the attempt's execution time: from start to outcome
	// decided (commit record appended / rollback complete). Under
	// ELR/AsyncCommit the asynchronous durable-ack wait is not included.
	DurationSeconds float64 `json:"duration_seconds"`
	// Committed reports the attempt's outcome.
	Committed bool `json:"committed"`
	// BreakdownSeconds is the per-category profiler attribution of the
	// attempt (seconds per profiler.Category name). Empty when the engine
	// runs with profiling disabled — the tracer then records durations only.
	BreakdownSeconds map[string]float64 `json:"breakdown_seconds,omitempty"`
}

// slowEntry is one member of the slow set: the stored trace plus its raw
// duration for ordering.
type slowEntry struct {
	d  time.Duration
	tx SlowTx
}

// SlowTxTracer keeps the N slowest transactions of the recent window
// (entries older than the window are discarded lazily). The hot path is the
// floor check: once the tracer is at capacity, a transaction faster than the
// slowest-set's minimum duration is rejected with a single atomic load — no
// lock is taken on the transaction completion path unless the transaction
// actually belongs in the slow set.
type SlowTxTracer struct {
	capacity int
	window   time.Duration

	// floor is the admission cutoff in nanoseconds: when the set is full, a
	// duration at or below it cannot displace anything. 0 while below
	// capacity (everything is admitted). It may lag behind evictions — a
	// stale-low floor only costs a mutex acquisition, never a lost trace.
	floor atomic.Int64

	// set holds at most capacity entries in no particular order; the slow
	// path finds its minimum by a linear scan under mu.
	mu  sync.Mutex
	set []slowEntry
}

// NewSlowTxTracer creates a tracer keeping the capacity slowest transactions
// observed within the trailing window. capacity <= 0 defaults to 32;
// window <= 0 defaults to 5 minutes.
func NewSlowTxTracer(capacity int, window time.Duration) *SlowTxTracer {
	if capacity <= 0 {
		capacity = 32
	}
	if window <= 0 {
		window = 5 * time.Minute
	}
	return &SlowTxTracer{capacity: capacity, window: window}
}

// Observe offers one completed transaction attempt to the tracer.
func (t *SlowTxTracer) Observe(xid uint64, start time.Time, d time.Duration, committed bool, b profiler.Breakdown) {
	if d <= time.Duration(t.floor.Load()) {
		// Fast path: full set, and this attempt is no slower than its
		// cheapest member. One atomic load, no lock.
		return
	}
	tx := SlowTx{
		XID:             xid,
		Start:           start,
		DurationSeconds: d.Seconds(),
		Committed:       committed,
	}
	if bd := breakdownSeconds(b); len(bd) > 0 {
		tx.BreakdownSeconds = bd
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pruneLocked(time.Now())
	e := slowEntry{d: d, tx: tx}
	if len(t.set) < t.capacity {
		t.set = append(t.set, e)
	} else if i := t.minLocked(); d > t.set[i].d {
		t.set[i] = e
	}
	t.updateFloorLocked()
}

// minLocked returns the index of the cheapest entry of a non-empty set.
func (t *SlowTxTracer) minLocked() int {
	m := 0
	for i := range t.set {
		if t.set[i].d < t.set[m].d {
			m = i
		}
	}
	return m
}

// pruneLocked drops entries whose start has aged out of the window.
func (t *SlowTxTracer) pruneLocked(now time.Time) {
	cutoff := now.Add(-t.window)
	kept := t.set[:0]
	for _, e := range t.set {
		if e.tx.Start.After(cutoff) {
			kept = append(kept, e)
		}
	}
	t.set = kept
}

// updateFloorLocked recomputes the admission cutoff: the set minimum when
// full, zero (admit everything) when there is still room.
func (t *SlowTxTracer) updateFloorLocked() {
	if len(t.set) >= t.capacity {
		t.floor.Store(int64(t.set[t.minLocked()].d))
	} else {
		t.floor.Store(0)
	}
}

// Snapshot returns the currently traced transactions, slowest first,
// discarding entries that have aged out of the window.
func (t *SlowTxTracer) Snapshot() []SlowTx {
	t.mu.Lock()
	t.pruneLocked(time.Now())
	t.updateFloorLocked()
	out := make([]slowEntry, len(t.set))
	copy(out, t.set)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].d > out[j].d })
	txs := make([]SlowTx, len(out))
	for i, e := range out {
		txs[i] = e.tx
	}
	return txs
}

// slowTxReport is the JSON document served by the /debug/slowtx endpoint.
type slowTxReport struct {
	// Capacity is the maximum number of traced transactions.
	Capacity int `json:"capacity"`
	// WindowSeconds is the trailing window entries are kept for.
	WindowSeconds float64 `json:"window_seconds"`
	// Slowest lists the traced transactions, slowest first.
	Slowest []SlowTx `json:"slowest"`
}

// ServeHTTP serves the tracer contents as JSON.
func (t *SlowTxTracer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	rep := slowTxReport{
		Capacity:      t.capacity,
		WindowSeconds: t.window.Seconds(),
		Slowest:       t.Snapshot(),
	}
	if rep.Slowest == nil {
		rep.Slowest = []SlowTx{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
}

// breakdownSeconds converts a profiler breakdown to the category-name→seconds
// map used in traces, omitting zero categories (and returning nil for an
// all-zero breakdown, i.e. profiling disabled).
func breakdownSeconds(b profiler.Breakdown) map[string]float64 {
	var m map[string]float64
	for c := profiler.Category(0); int(c) < len(b); c++ {
		if d := b.Get(c); d > 0 {
			if m == nil {
				m = make(map[string]float64)
			}
			m[c.String()] = d.Seconds()
		}
	}
	return m
}

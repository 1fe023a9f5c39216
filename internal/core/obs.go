package core

import (
	"net/http"
	"time"

	"slidb/internal/obs"
	"slidb/internal/profiler"
)

// LogErr returns the error that wedged the write-ahead log — the first
// durable-sink failure after which no further append can become durable —
// or nil while the log is healthy. It distinguishes "commits are slow"
// (DurableLag growing, LogErr nil) from "the log is dead" (LogErr non-nil)
// without callers having to infer the difference from Exec failures;
// slidbd's /readyz flips unready on it.
func (e *Engine) LogErr() error { return e.log.Err() }

// LogTail returns the log tail snapshot: flush cycles and append waits from
// the WAL plus the segment sink's physical-write counters (zero for
// in-memory engines). It feeds the slidb_log_* metric families and the
// benchmark harness's writes-per-cycle efficiency stat.
func (e *Engine) LogTail() obs.LogTailStats {
	ts := e.log.TailStats()
	lt := obs.LogTailStats{
		FlushCycles:           ts.FlushCycles,
		FenceWaitSeconds:      ts.FenceWait.Seconds(),
		ReserveWaitSeconds:    ts.ReserveWait.Seconds(),
		BufferFullWaitSeconds: ts.BufferFullWait.Seconds(),
	}
	if e.segs != nil {
		ss := e.segs.Stats()
		lt.SinkWrites = ss.Writes
		lt.Rotations = ss.Rotations
		lt.Preallocs = ss.Preallocs
		lt.PreallocFallbacks = ss.PreallocFallbacks
	}
	return lt
}

// ProfileLifetime returns the engine-lifetime per-category profiler
// breakdown: monotonic across Profiler.Reset calls (the benchmark harness
// resets the interval view around each measurement), which is what lets the
// metrics exporter publish the categories as Prometheus counters.
func (e *Engine) ProfileLifetime() profiler.Breakdown { return e.prof.Lifetime() }

// TxCompletion describes one finished transaction attempt, delivered to the
// observability hook installed by Observe. Attempts are reported when their
// outcome is decided — for a commit under Early Lock Release that is the
// commit-record append, so Duration excludes any asynchronous durable-ack
// wait; deadlock-victim retries report one completion per attempt.
type TxCompletion struct {
	// XID is the attempt's transaction identifier.
	XID uint64
	// Start is when the attempt began executing.
	Start time.Time
	// Duration is Start to outcome decided.
	Duration time.Duration
	// Committed is true when the attempt (pre-)committed, false when it
	// aborted.
	Committed bool
	// Breakdown is the attempt's per-category profiler attribution
	// (zero when the engine runs with Config.Profile off).
	Breakdown profiler.Breakdown
}

// Observe returns the engine's observability surface — the metrics registry
// with the engine collector registered, the transaction-duration histogram
// and the slow-transaction tracer — creating it with default options on
// first call. Creating the observer installs the per-transaction completion
// hook; until then the commit path pays a single nil atomic-pointer load per
// transaction and nothing else.
func (e *Engine) Observe() *obs.Observer { return e.ObserveWith(obs.ObserverOptions{}) }

// ObserveWith is Observe with explicit options. The first call wins: the
// observer is created once per engine and later calls (with any options)
// return the existing one.
func (e *Engine) ObserveWith(o obs.ObserverOptions) *obs.Observer {
	e.obsOnce.Do(func() {
		e.obs = obs.NewObserver(e, o)
		hook := func(c TxCompletion) {
			e.obs.ObserveTx(c.XID, c.Start, c.Duration, c.Committed, c.Breakdown)
		}
		e.txHook.Store(&hook)
	})
	return e.obs
}

// ObsHandler returns the engine's observability HTTP handler, serving
// /metrics (Prometheus text exposition format) and /debug/slowtx (JSON),
// creating the observer on first call. Health endpoints are a process
// property, not an engine one — cmd/slidbd mounts this handler next to its
// /healthz and /readyz.
func (e *Engine) ObsHandler() http.Handler { return e.Observe() }

package obs

import (
	"net/http"
	"time"

	"slidb/internal/lockmgr"
	"slidb/internal/profiler"
)

// EngineSource is the slice of the engine surface the collector maps onto
// metric names. *core.Engine satisfies it; obs depends only on the interface
// so that core can import obs without a cycle.
type EngineSource interface {
	// Committed / Aborted are the engine's transaction outcome counters.
	Committed() uint64
	Aborted() uint64
	// ELRAborts counts aborts whose locks were released at abort-record
	// append under EarlyLockReleaseAborts.
	ELRAborts() uint64
	// UndoFailures counts failed rollback undo actions (non-zero means
	// in-memory corruption).
	UndoFailures() uint64
	// DurableLag is the appended-but-not-durable log bytes at this instant.
	DurableLag() uint64
	// LogErr is the WAL sink error that wedged the log, nil while healthy.
	LogErr() error
	// LockStats is a snapshot of the lock manager's cumulative counters.
	LockStats() lockmgr.StatsSnapshot
	// Profiler is the engine's profiler, whose Aggregate only goes up.
	Profiler() *profiler.Profiler
	// Concurrency is the configured agent worker count.
	Concurrency() int
	// LogTail is the log tail snapshot (flush cycles, physical sink writes,
	// publish-fence and append waits).
	LogTail() LogTailStats
}

// LogTailStats is the log-tail snapshot the collector exports: the WAL's
// flush-cycle and append-wait totals plus the segment sink's physical-write
// counters. Defined here (not in wal) so core can satisfy EngineSource with
// one struct regardless of which WAL pieces an engine configuration uses;
// in-memory engines report zero sink counters.
type LogTailStats struct {
	// FlushCycles is the number of completed group-commit cycles.
	FlushCycles uint64
	// WindowedCycles and WindowWaitSeconds are always 0: the flusher has no
	// group-commit window. They stay because benchmark/ derives its
	// wal.avg_window_us metric from them.
	WindowedCycles    uint64
	WindowWaitSeconds float64
	// FenceWaitSeconds is the cumulative time appenders spent blocked
	// publishing their log-buffer claims.
	FenceWaitSeconds float64
	// SinkWrites counts physical write submissions to the segment files (a
	// vectored group-commit cycle counts once); Rotations, Preallocs and
	// PreallocFallbacks count segment creations, fallocate preallocations
	// and truncate fallbacks respectively.
	SinkWrites        uint64
	Rotations         uint64
	Preallocs         uint64
	PreallocFallbacks uint64
	// ReserveWaitSeconds is the cumulative time profiled appenders spent on
	// the log buffer's reservation protocol, and BufferFullWaitSeconds the
	// time appenders spent stalled on a full buffer.
	ReserveWaitSeconds    float64
	BufferFullWaitSeconds float64
}

// lockLevelNames maps lockmgr levels to stable label values, indexed like
// StatsSnapshot.AcquiresByLevel.
var lockLevelNames = [4]string{"database", "table", "page", "record"}

// RegisterEngine registers the engine collector's metric families on r. Every
// sample is read from the engine's existing atomic counters (or cheap
// snapshots of them) at scrape time; nothing is double-counted and no state
// is added to the transaction hot path.
func RegisterEngine(r *Registry, e EngineSource) {
	r.CounterFunc("slidb_txns_committed_total",
		"Transactions committed since the engine opened.",
		func() float64 { return float64(e.Committed()) })
	r.CounterFunc("slidb_txns_aborted_total",
		"Transactions aborted (after deadlock retries) since the engine opened.",
		func() float64 { return float64(e.Aborted()) })
	r.CounterFunc("slidb_elr_aborts_total",
		"Aborts whose locks were released at abort-record append (EarlyLockReleaseAborts).",
		func() float64 { return float64(e.ELRAborts()) })
	r.CounterFunc("slidb_undo_failures_total",
		"Rollback undo actions that failed; any non-zero value indicates in-memory corruption.",
		func() float64 { return float64(e.UndoFailures()) })
	r.GaugeFunc("slidb_durable_lag_bytes",
		"Log bytes appended but not yet forced to stable storage (commit pipeline depth).",
		func() float64 { return float64(e.DurableLag()) })
	r.GaugeFunc("slidb_log_wedged",
		"1 when a WAL sink error has wedged the log (no further appends can become durable), else 0.",
		func() float64 {
			if e.LogErr() != nil {
				return 1
			}
			return 0
		})
	r.GaugeFunc("slidb_agents",
		"Configured agent worker count.",
		func() float64 { return float64(e.Concurrency()) })

	// Log-tail surface: the vectored sink's writes-per-cycle inputs, and the
	// publish-fence, reservation and buffer-full wait totals.
	r.CounterFunc("slidb_log_flush_cycles_total",
		"Completed group-commit flush cycles.",
		func() float64 { return float64(e.LogTail().FlushCycles) })
	r.CounterFunc("slidb_log_sink_writes_total",
		"Physical write submissions to the WAL segment files (one per vectored group-commit cycle on the fast path).",
		func() float64 { return float64(e.LogTail().SinkWrites) })
	r.CounterFunc("slidb_log_fence_wait_seconds_total",
		"Cumulative time appenders spent blocked publishing their log-buffer claims.",
		func() float64 { return e.LogTail().FenceWaitSeconds })
	r.CounterFunc("slidb_log_reserve_wait_seconds_total",
		"Cumulative time profiled appenders spent on the log buffer's reservation protocol.",
		func() float64 { return e.LogTail().ReserveWaitSeconds })
	r.CounterFunc("slidb_log_buffer_full_wait_seconds_total",
		"Cumulative time appenders spent stalled on a full log buffer.",
		func() float64 { return e.LogTail().BufferFullWaitSeconds })
	r.CounterFunc("slidb_log_segment_rotations_total",
		"WAL segment file rotations.",
		func() float64 { return float64(e.LogTail().Rotations) })
	r.LabeledCounterFunc("slidb_log_segment_preallocs_total",
		"WAL segment preallocations by method (fallocate, or the truncate fallback where unsupported).", "method",
		func() []Sample {
			lt := e.LogTail()
			return []Sample{
				{Label: "fallocate", Value: float64(lt.Preallocs)},
				{Label: "truncate", Value: float64(lt.PreallocFallbacks)},
			}
		})

	// Lock manager counters (the paper's Figure 8/9 surface). Each family
	// snapshots the stats once per scrape.
	r.LabeledCounterFunc("slidb_lock_acquires_total",
		"Lock acquisitions by hierarchy level.", "level",
		func() []Sample {
			ls := e.LockStats()
			out := make([]Sample, 0, len(lockLevelNames))
			for i, name := range lockLevelNames {
				out = append(out, Sample{Label: name, Value: float64(ls.AcquiresByLevel[i])})
			}
			return out
		})
	r.LabeledCounterFunc("slidb_lock_acquires_mode_total",
		"Lock acquisitions by mode class (shared = S/IS/IX, exclusive = X/SIX/U).", "mode",
		func() []Sample {
			ls := e.LockStats()
			return []Sample{
				{Label: "shared", Value: float64(ls.SharedAcquires)},
				{Label: "exclusive", Value: float64(ls.ExclusiveAcquires)},
			}
		})
	r.LabeledCounterFunc("slidb_lock_class_total",
		"Lock acquisitions by SLI heritability class (Figure 8).", "class",
		func() []Sample {
			ls := e.LockStats()
			return []Sample{
				{Label: "hot_heritable", Value: float64(ls.HotHeritable)},
				{Label: "hot_non_heritable", Value: float64(ls.HotNonHeritable)},
				{Label: "cold_heritable", Value: float64(ls.ColdHeritable)},
				{Label: "cold_other", Value: float64(ls.ColdOther)},
			}
		})
	r.CounterFunc("slidb_lock_cache_hits_total",
		"Lock acquisitions satisfied from the transaction's private lock cache.",
		func() float64 { return float64(e.LockStats().CacheHits) })
	r.CounterFunc("slidb_lock_conversions_total",
		"Lock mode upgrades (e.g. IS to IX).",
		func() float64 { return float64(e.LockStats().Conversions) })
	r.CounterFunc("slidb_lock_latch_contended_total",
		"Lock-head latch acquisitions that found the latch held (physical contention).",
		func() float64 { return float64(e.LockStats().LatchContended) })
	r.CounterFunc("slidb_lock_waits_total",
		"Lock requests that blocked on a logical conflict.",
		func() float64 { return float64(e.LockStats().Waits) })
	r.CounterFunc("slidb_lock_deadlocks_total",
		"Lock requests aborted by deadlock detection.",
		func() float64 { return float64(e.LockStats().Deadlocks) })
	r.CounterFunc("slidb_lock_timeouts_total",
		"Lock requests aborted by wait timeout.",
		func() float64 { return float64(e.LockStats().Timeouts) })
	r.CounterFunc("slidb_lock_transactions_total",
		"Completed transactions observed by the lock manager (ReleaseAll calls).",
		func() float64 { return float64(e.LockStats().Transactions) })
	r.CounterFunc("slidb_elr_releases_total",
		"Commits whose locks were released at commit-record append (EarlyLockRelease).",
		func() float64 { return float64(e.LockStats().ELRReleases) })
	r.LabeledCounterFunc("slidb_sli_events_total",
		"Speculative Lock Inheritance outcomes (Figure 9).", "event",
		func() []Sample {
			ls := e.LockStats()
			return []Sample{
				{Label: "passed", Value: float64(ls.SLIPassed)},
				{Label: "reclaimed", Value: float64(ls.SLIReclaimed)},
				{Label: "invalidated", Value: float64(ls.SLIInvalidated)},
				{Label: "discarded", Value: float64(ls.SLIDiscarded)},
				{Label: "ineligible_waiter", Value: float64(ls.SLIIneligibleWaiter)},
				{Label: "ineligible_mode", Value: float64(ls.SLIIneligibleMode)},
				{Label: "ineligible_parent", Value: float64(ls.SLIIneligibleParent)},
			}
		})

	// One series per profiler category: the paper's time-attribution method
	// (where does a transaction's time go — lock manager, log reserve, flush
	// wait...) as continuous production telemetry instead of a benchmark
	// printout. Every category is emitted even at zero, so dashboards and the
	// acceptance check can rely on the full set being present.
	r.LabeledCounterFunc("slidb_profile_seconds_total",
		"Engine-lifetime profiler time attribution by category (seconds). Zero when profiling is disabled.", "category",
		func() []Sample {
			b := e.Profiler().Aggregate()
			out := make([]Sample, 0, len(b))
			for c := profiler.Category(0); int(c) < len(b); c++ {
				out = append(out, Sample{Label: c.String(), Value: b.Get(c).Seconds()})
			}
			return out
		})
}

// ObserverOptions configures an Observer. The zero value selects defaults.
type ObserverOptions struct {
	// SlowTxCapacity is how many slow transactions the tracer retains
	// (default 32).
	SlowTxCapacity int
	// SlowTxWindow is the trailing window slow traces are kept for
	// (default 5 minutes).
	SlowTxWindow time.Duration
}

// latencyBuckets are the transaction-duration histogram's bucket upper
// bounds in seconds: exponential from 100µs to 10s, covering in-memory
// transactions through group-commit-bound durable ones.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observer bundles an engine's observability surface: the metrics registry
// (with the engine collector registered), the transaction-duration histogram,
// and the slow-transaction tracer. Create one through Engine.Observe.
type Observer struct {
	reg    *Registry
	tracer *SlowTxTracer
	txDur  *Histogram
	mux    *http.ServeMux
}

// NewObserver builds an Observer over the engine: a registry with the engine
// collector registered, plus the histogram and tracer fed by ObserveTx.
func NewObserver(e EngineSource, o ObserverOptions) *Observer {
	reg := NewRegistry()
	RegisterEngine(reg, e)
	obs := &Observer{
		reg:    reg,
		tracer: NewSlowTxTracer(o.SlowTxCapacity, o.SlowTxWindow),
	}
	obs.txDur = reg.Histogram("slidb_txn_duration_seconds",
		"Transaction attempt execution time (outcome decided; excludes asynchronous durable-ack waits).",
		latencyBuckets)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/slowtx", obs.tracer)
	obs.mux = mux
	return obs
}

// Registry returns the observer's metrics registry, so embedders (slidbd, a
// benchmark harness) can register their own families alongside the engine's.
func (o *Observer) Registry() *Registry { return o.reg }

// ObserveTx feeds one completed transaction attempt into the duration
// histogram and the slow-transaction tracer. It is wait-free unless the
// attempt is slow enough to enter the tracer's slow set.
//
//slint:hotpath
func (o *Observer) ObserveTx(xid uint64, start time.Time, d time.Duration, committed bool, b profiler.Breakdown) {
	o.txDur.Observe(d.Seconds())
	//slint:ignore hotalloc Observe allocates only past the atomic floor check, for attempts slow enough to enter the trace set
	o.tracer.Observe(xid, start, d, committed, b)
}

// ServeHTTP serves /metrics (Prometheus text format) and /debug/slowtx
// (JSON). Unknown paths return 404; embedders wanting health endpoints or
// pprof mount this handler into their own mux (see cmd/slidbd).
func (o *Observer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	o.mux.ServeHTTP(w, req)
}

// Package core implements the storage-manager engine: it composes the lock
// manager (with Speculative Lock Inheritance), write-ahead log, buffer pool,
// heap files, B+tree indexes and catalog into a transactional embedded
// database, and executes transactions on a pool of agent threads exactly as
// Shore-MT does — one agent goroutine runs one transaction at a time, and
// SLI passes hot locks from a committing transaction to the next transaction
// on the same agent.
//
// The top-level package slidb re-exports this engine as the public API.
package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"slidb/internal/buffer"
	"slidb/internal/catalog"
	"slidb/internal/heap"
	"slidb/internal/lockmgr"
	"slidb/internal/obs"
	"slidb/internal/profiler"
	"slidb/internal/record"
	"slidb/internal/wal"
)

// databaseID is the single database (volume) ID used by the engine.
const databaseID uint32 = 1

const (
	// pipelineDepth bounds the in-flight pre-committed transactions per
	// worker under AsyncCommit.
	pipelineDepth = 32
	// maxDeadlockRetries is how many times Exec re-runs a transaction that
	// was chosen as a deadlock victim (or timed out on a lock) before giving
	// up.
	maxDeadlockRetries = 10
)

// Config configures an Engine.
type Config struct {
	// SLI enables Speculative Lock Inheritance (the paper's contribution).
	SLI bool
	// SLIHotThreshold is the contention ratio above which a lock is "hot"
	// (criterion 2 of §4.2). Zero uses the lock manager default (0.25).
	SLIHotThreshold float64
	// SLIMinLevel is the finest lock level eligible for inheritance; zero
	// uses the default (page level, per criterion 1).
	SLIMinLevel lockmgr.Level
	// Agents is the number of agent worker goroutines ("hardware contexts"
	// in the paper's terms). Zero means transactions run inline on the
	// calling goroutine without an agent (no SLI).
	Agents int
	// BufferFrames is the simulated resident set, in pages (default 4096).
	// Every page stays in memory; a fetch of a page outside the resident
	// set counts as a miss.
	BufferFrames int
	// IODelay is the artificial latency a miss pays per simulated page read
	// or write-back, standing in for the paper's 6 ms disk seek. Zero
	// disables it (in-memory dataset).
	IODelay time.Duration
	// LogFlushDelay simulates the latency of forcing the log, once per
	// group-commit cycle (see wal.Config.FlushDelay).
	LogFlushDelay time.Duration
	// EarlyLockRelease makes a committing transaction release its locks (and
	// perform SLI inheritance) as soon as its commit record is appended to
	// the log, instead of holding them across the group-commit fsync. Lock
	// hold times then exclude the entire flush latency. Safe because the log
	// is totally ordered and commits are acknowledged in LSN order, so a
	// transaction that read ELR-exposed data is never durable before the
	// transaction that exposed it. Off by default (the paper-faithful
	// baseline holds locks until the commit is durable). This knob governs
	// the commit path only; the abort path has its own knob below, so the
	// abort-elr ablation can difference the two policies independently.
	EarlyLockRelease bool
	// EarlyLockReleaseAborts applies the same policy to rollbacks: an
	// aborting transaction releases its locks (with SLI inheritance) as soon
	// as its compensation-logged rollback has appended its abort record,
	// instead of holding them across the force of that record. Independent
	// of EarlyLockRelease — enable both for the full ELR pipeline.
	EarlyLockReleaseAborts bool
	// AsyncCommit lets each agent worker start its next transaction while up
	// to pipelineDepth (32) earlier transactions are still waiting for their
	// commit records to be forced to disk (flush pipelining). Exec still
	// blocks its caller until the transaction is durable; only the agent is
	// freed. It requires EarlyLockRelease: without it a committing
	// transaction must hold its locks until the force completes, so the
	// flush happens synchronously and there is nothing to pipeline —
	// AsyncCommit alone is a no-op.
	AsyncCommit bool
	// Profile enables the per-component time breakdown used by the figure
	// harness. It adds a small overhead per operation.
	Profile bool
	// SegmentBytes is the on-disk WAL segment rotation size for durable
	// engines; zero uses wal.DefaultSegmentBytes.
	SegmentBytes int64
	// PreallocateSegments extends each new WAL segment file to SegmentBytes
	// at creation (fallocate, degrading to truncate where unsupported), so
	// group commits write into already-allocated blocks instead of growing
	// the file. Durable engines only.
	PreallocateSegments bool
}

func (c Config) withDefaults() Config {
	if c.BufferFrames <= 0 {
		c.BufferFrames = 4096
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = wal.DefaultSegmentBytes
	}
	return c
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("core: engine is closed")

// Engine is the storage manager.
type Engine struct {
	cfg  Config
	cat  *catalog.Catalog
	lm   *lockmgr.Manager
	log  *wal.Log
	segs *wal.Segments // nil for in-memory (volatile) engines
	dir  string        // the data directory; "" for in-memory engines
	pool *buffer.Pool
	prof *profiler.Profiler

	// execGate serializes checkpoints against running transactions: every
	// transaction attempt holds it for read, Checkpoint takes it for write.
	execGate sync.RWMutex
	recStats RecoveryStats

	// ddlMu serializes DDL and checkpoints. Every DDL publishes a new
	// tables set, which is how transactions, rollback and restart reach a
	// table or an index: one atomic load, no lock, no allocation.
	ddlMu  sync.Mutex
	tables atomic.Pointer[tableSet]

	nextXID atomic.Uint64

	jobs      chan job
	stopping  chan struct{} // closed by Close/SimulateCrash; unblocks Exec senders
	workersMu sync.Mutex
	workers   []*worker
	closed    atomic.Bool

	// obs is the engine's observability surface, created lazily by Observe
	// (see obs.go). txHook is the per-transaction completion hook it
	// installs; nil until then, so the only cost a non-observed engine pays
	// is one atomic pointer load per transaction attempt.
	obsOnce sync.Once
	obs     *obs.Observer
	txHook  atomic.Pointer[func(TxCompletion)]

	committed atomic.Uint64
	aborted   atomic.Uint64
	// elrAborts counts aborting transactions that released their locks at
	// abort-record append (before the flush) under EarlyLockReleaseAborts.
	elrAborts atomic.Uint64
	// undoFailures counts undo actions (abort-time or inline after a failed
	// log append) that returned an error — each one means the in-memory
	// state may no longer match the pre-transaction state. Always zero in a
	// healthy engine; torture tests fail when it is not.
	undoFailures atomic.Uint64
}

type job struct {
	fn   func(*Tx) error
	done chan error
}

// pendingCommit is one pre-committed transaction a worker has handed to its
// ack pipeline: the WAL's durability ack on one side, the Exec caller's done
// channel on the other.
type pendingCommit struct {
	ack  <-chan error
	done chan error
}

type worker struct {
	agent *lockmgr.Agent
	prof  *profiler.Handle
	quit  chan struct{}
	done  chan struct{}

	// inflight carries pre-committed transactions to the worker's acker
	// goroutine under AsyncCommit; its capacity is the worker's pipelining
	// window. nil when pipelining is off.
	inflight  chan pendingCommit
	ackerDone chan struct{}
	// ackProf is the acker goroutine's own profiler handle. The acker runs
	// concurrently with the worker's next transaction; attributing its
	// LogFlush waits to w.prof would corrupt runOnce's wall-vs-accounted
	// TxWork attribution for that transaction.
	ackProf *profiler.Handle
}

// Open creates an in-memory (volatile) engine with the given configuration.
// For a disk-backed engine with crash recovery, use OpenAt.
func Open(cfg Config) *Engine {
	e := newEngine(cfg.withDefaults(), nil, 0)
	e.SetConcurrency(e.cfg.Agents)
	return e
}

// newEngine builds an engine without starting its agent pool. A non-nil
// durable sink makes the write-ahead log disk-backed; startLSN resumes LSN
// allocation above the recovered log prefix.
func newEngine(cfg Config, durable *wal.Segments, startLSN wal.LSN) *Engine {
	e := &Engine{
		cfg:      cfg,
		cat:      catalog.New(),
		segs:     durable,
		prof:     profiler.New(cfg.Profile),
		jobs:     make(chan job),
		stopping: make(chan struct{}),
	}
	e.tables.Store(&tableSet{byName: map[string]*tableRuntime{}, byID: map[uint32]*tableRuntime{}, indexes: map[string]*index{}})
	e.lm = lockmgr.New(lockmgr.Config{
		SLI:             cfg.SLI,
		SLIHotThreshold: cfg.SLIHotThreshold,
		SLIMinLevel:     cfg.SLIMinLevel,
	})
	// An in-memory engine's flusher hands its bytes to no sink (a nil
	// interface, not a nil *Segments) and the log keeps nothing.
	var sink wal.DurableSink
	if durable != nil {
		sink = durable
	}
	e.log = wal.New(wal.Config{
		FlushDelay: cfg.LogFlushDelay,
		Durable:    sink,
		StartLSN:   startLSN,
	})
	e.pool = buffer.NewPool(nil, buffer.Config{
		Frames:  cfg.BufferFrames,
		IODelay: cfg.IODelay,
	})
	return e
}

// Close stops the agent pool and flushes the log. For durable engines it
// also drains the log to its segment files and closes them, so a Close-d
// engine reopens via OpenAt without any redo work left.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	close(e.stopping)
	e.SetConcurrency(0)
	// Run every teardown step even when an earlier one fails — the segment
	// files in particular must be synced and closed regardless — and report
	// the first error.
	err := e.log.Close()
	if e.segs != nil {
		if serr := e.segs.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// Catalog exposes the schema catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// LockManager exposes the lock manager (for statistics and SLI control).
func (e *Engine) LockManager() *lockmgr.Manager { return e.lm }

// Profiler exposes the component-time profiler.
func (e *Engine) Profiler() *profiler.Profiler { return e.prof }

// BufferStats returns buffer pool counters.
func (e *Engine) BufferStats() buffer.StatsSnapshot { return e.pool.Stats() }

// LockStats returns a snapshot of the lock manager's counters.
func (e *Engine) LockStats() lockmgr.StatsSnapshot { return e.lm.Stats().Snapshot() }

// Committed returns the number of committed transactions.
func (e *Engine) Committed() uint64 { return e.committed.Load() }

// Aborted returns the number of aborted transactions (after retries).
func (e *Engine) Aborted() uint64 { return e.aborted.Load() }

// ELRAborts returns the number of aborting transactions whose locks were
// released at abort-record append — before the abort record was forced to
// disk — under EarlyLockReleaseAborts.
func (e *Engine) ELRAborts() uint64 { return e.elrAborts.Load() }

// UndoFailures returns the number of rollback undo actions that failed.
// Any non-zero value indicates in-memory corruption: an aborted
// transaction's effects could not be fully rolled back.
func (e *Engine) UndoFailures() uint64 { return e.undoFailures.Load() }

// DurableLag returns the number of log BYTES appended but not yet durable —
// the depth of the commit pipeline at this instant. With byte-offset LSNs
// the lag is the distance between the log's virtual end and the durable
// watermark; record counts no longer exist (LSNs are ordered, not dense).
// It is zero whenever the flush daemon has caught up (always, between
// bursts) and grows with AsyncCommit under load.
func (e *Engine) DurableLag() uint64 {
	last, durable := e.log.LastLSN(), e.log.DurableLSN()
	if last <= durable {
		return 0
	}
	return uint64(last.Distance(durable))
}

// SimulateCrash abandons the engine the way a machine failure would, for
// crash-recovery testing: the WAL's append buffer is discarded and its
// flusher stops without draining, in-flight durability acks fail, the
// segment files are closed without a final sync, and the agent workers shut
// down. Effects of transactions whose commit record never reached a
// completed sync — in particular transactions caught between pre-commit
// (locks released under EarlyLockRelease) and the flush — are lost; the data
// directory can then be reopened with OpenAt to exercise recovery rolling
// them back. On volatile engines it is just an abrupt Close.
func (e *Engine) SimulateCrash() {
	if e.closed.Swap(true) {
		return
	}
	close(e.stopping)
	e.log.Crash()
	if e.segs != nil {
		e.segs.Crash()
	}
	e.SetConcurrency(0)
}

// SetSLI toggles Speculative Lock Inheritance at runtime.
func (e *Engine) SetSLI(enabled bool) { e.lm.SetSLI(enabled) }

// SLIEnabled reports whether SLI is active.
func (e *Engine) SLIEnabled() bool { return e.lm.SLIEnabled() }

// Concurrency returns the current number of agent workers.
func (e *Engine) Concurrency() int {
	e.workersMu.Lock()
	defer e.workersMu.Unlock()
	return len(e.workers)
}

// SetConcurrency resizes the agent pool to n workers. It blocks until
// removed workers have drained their current transaction.
func (e *Engine) SetConcurrency(n int) {
	if n < 0 {
		n = 0
	}
	e.workersMu.Lock()
	defer e.workersMu.Unlock()
	for len(e.workers) < n {
		w := &worker{
			agent: e.lm.NewAgent(),
			prof:  e.prof.NewHandle(),
			quit:  make(chan struct{}),
			done:  make(chan struct{}),
		}
		// Pipelining needs EarlyLockRelease: without it preCommit flushes
		// synchronously and never yields an ack to pipeline.
		if e.cfg.AsyncCommit && e.cfg.EarlyLockRelease {
			w.inflight = make(chan pendingCommit, pipelineDepth)
			w.ackerDone = make(chan struct{})
			w.ackProf = e.prof.NewHandle()
			go e.ackerLoop(w)
		}
		e.workers = append(e.workers, w)
		go e.workerLoop(w)
	}
	var stopped []*worker
	for len(e.workers) > n {
		w := e.workers[len(e.workers)-1]
		e.workers = e.workers[:len(e.workers)-1]
		close(w.quit)
		stopped = append(stopped, w)
	}
	for _, w := range stopped {
		<-w.done
	}
}

// workerLoop is one agent thread. Under AsyncCommit the worker only carries
// a transaction to its pre-commit (commit record appended, locks released)
// and hands the durability wait to its acker goroutine, immediately starting
// the next transaction — flush pipelining. The inflight channel's capacity
// bounds how many pre-committed transactions a worker may have outstanding;
// when the window is full the worker blocks here until acks drain.
func (e *Engine) workerLoop(w *worker) {
	defer func() {
		if w.inflight != nil {
			close(w.inflight)
			<-w.ackerDone
		}
		close(w.done)
	}()
	for {
		select {
		case <-w.quit:
			return
		case j := <-e.jobs:
			ack, err := e.runTxn(w, j.fn)
			switch {
			case ack == nil:
				j.done <- err
			case w.inflight != nil:
				w.inflight <- pendingCommit{ack: ack, done: j.done}
			default:
				j.done <- e.waitDurable(w.prof, ack)
			}
		}
	}
}

// ackerLoop drains a worker's in-flight pre-committed transactions in
// pre-commit order, waiting for each commit's durability ack and completing
// the Exec caller. Progress is guaranteed by the WAL's dedicated flusher:
// acks resolve without any engine worker having to call Flush.
func (e *Engine) ackerLoop(w *worker) {
	defer close(w.ackerDone)
	for p := range w.inflight {
		p.done <- e.waitDurable(w.ackProf, p.ack)
	}
}

// waitDurable blocks until the WAL acknowledges the commit as durable,
// attributing the wait to the LogFlush profiler category and settling the
// committed/aborted counters.
func (e *Engine) waitDurable(prof *profiler.Handle, ack <-chan error) error {
	start := time.Now()
	err := <-ack
	prof.Add(profiler.LogFlush, time.Since(start))
	if err == nil {
		e.committed.Add(1)
	} else {
		e.aborted.Add(1)
	}
	return err
}

// Exec runs fn as one transaction and returns once its outcome is decided
// and durable. If the engine has agent workers the transaction is queued to
// the pool (and benefits from SLI); otherwise it runs inline on the calling
// goroutine. Deadlock victims are retried up to maxDeadlockRetries times. A
// non-nil error returned by fn aborts the transaction and is returned to the
// caller. Exec returns ErrClosed — rather than blocking forever — when the
// engine is closed before a worker picks the transaction up.
func (e *Engine) Exec(fn func(*Tx) error) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.Concurrency() == 0 {
		ack, err := e.runTxn(nil, fn)
		if err != nil {
			return err
		}
		if ack == nil {
			return nil
		}
		return e.waitDurable(nil, ack)
	}
	done := make(chan error, 1)
	select {
	case e.jobs <- job{fn: fn, done: done}:
		return <-done
	case <-e.stopping:
		return ErrClosed
	}
}

// ExecAsync runs fn as one transaction and returns a durable-ack future: the
// channel receives exactly one value — nil once the transaction has
// committed AND its commit record is durable, or the error that aborted it.
// Futures are acknowledged in commit (LSN) order, so a resolved future
// implies every transaction it could have depended on is durable too.
// ExecAsync never blocks the caller waiting for other transactions; the
// bounded pipelining window applies to the agent workers instead.
func (e *Engine) ExecAsync(fn func(*Tx) error) <-chan error {
	done := make(chan error, 1)
	if e.closed.Load() {
		done <- ErrClosed
		return done
	}
	if e.Concurrency() == 0 {
		ack, err := e.runTxn(nil, fn)
		if err != nil {
			done <- err
		} else if ack == nil {
			done <- nil
		} else {
			go func() { done <- e.waitDurable(nil, ack) }()
		}
		return done
	}
	go func() {
		select {
		case e.jobs <- job{fn: fn, done: done}:
		case <-e.stopping:
			done <- ErrClosed
		}
	}()
	return done
}

// runTxn executes fn with deadlock retries on the given worker (nil for
// inline). On success it returns the transaction's durability ack channel:
// nil means the transaction is already fully complete (read-only, or the
// flush happened synchronously); non-nil means the commit record is appended
// and locks are released, but the caller must wait for the ack before
// acknowledging the commit.
func (e *Engine) runTxn(w *worker, fn func(*Tx) error) (<-chan error, error) {
	var lastErr error
	for attempt := 0; attempt <= maxDeadlockRetries; attempt++ {
		ack, err := e.runOnce(w, fn)
		if err == nil {
			if ack == nil {
				e.committed.Add(1)
			}
			return ack, nil
		}
		lastErr = err
		if !errors.Is(err, lockmgr.ErrDeadlock) && !errors.Is(err, lockmgr.ErrLockTimeout) {
			e.aborted.Add(1)
			return nil, err
		}
	}
	e.aborted.Add(1)
	return nil, lastErr
}

func (e *Engine) runOnce(w *worker, fn func(*Tx) error) (<-chan error, error) {
	// Hold the checkpoint gate for the duration of the attempt: Checkpoint
	// waits for in-flight transactions and blocks new ones, so its snapshot
	// is action-consistent.
	e.execGate.RLock()
	defer e.execGate.RUnlock()
	var agent *lockmgr.Agent
	var prof *profiler.Handle
	if w != nil {
		agent, prof = w.agent, w.prof
	}
	// The clock and the profiler snapshots are for the time breakdown and the
	// completion hook; an attempt with neither reads no clock at all.
	hook := e.txHook.Load()
	timed := prof != nil || hook != nil
	var start time.Time
	var before profiler.Breakdown
	if timed {
		start = time.Now()
		before = prof.Snapshot()
	}

	tx := &Tx{
		e:     e,
		xid:   e.nextXID.Add(1),
		owner: e.lm.NewOwner(agent, prof),
		prof:  prof,
	}
	var ack <-chan error
	err := fn(tx)
	if err == nil {
		ack, err = tx.preCommit()
	} else {
		tx.abort()
	}
	if !timed {
		return ack, err
	}

	// Attribute the transaction-body time not already accounted to a
	// component as "other work" (TxWork), reproducing the figures' "work
	// other" category. The durable-ack wait (if any) happens after this
	// window, so under ELR neither lock hold time nor TxWork includes the
	// flush latency.
	wall := time.Since(start)
	var delta profiler.Breakdown
	if prof != nil {
		delta = prof.Snapshot().Sub(before)
		accounted := time.Duration(0)
		for c := profiler.Category(0); c < profiler.Category(len(delta)); c++ {
			accounted += delta.Get(c)
		}
		if wall > accounted {
			prof.Add(profiler.TxWork, wall-accounted)
			delta[profiler.TxWork] += wall - accounted
		}
	}
	// The observability completion hook (duration histogram, slow-tx
	// tracer), loaded once above: one atomic pointer load when no observer
	// is installed; the hook itself is wait-free unless the attempt enters
	// the slow set — no lock is added to the commit path either way.
	if hook != nil {
		(*hook)(TxCompletion{
			XID:       tx.xid,
			Start:     start,
			Duration:  wall,
			Committed: err == nil,
			Breakdown: delta,
		})
	}
	return ack, err
}

// index pairs catalog metadata with its B+tree. Non-unique indexes append
// the RID to the key to keep entries distinct.
type index struct {
	meta *catalog.Index // nil for primary-key indexes
	tree *indexTree
}

// tableRuntime is the engine's one handle on a table: its catalog entry,
// heap file, primary-key tree and secondary indexes. It is immutable once
// published. Its insert, addKeys, update and delete methods are the only
// code that changes a row's heap slot and index entries, for transactions,
// rollback and restart alike; they work on encoded rows, take no locks and
// log nothing. Tx.Insert alone stores the heap row itself, because it locks
// the row before addKeys makes it visible.
type tableRuntime struct {
	meta *catalog.Table
	hf   *heap.File
	pk   *index
	secs []*index
}

// tableSet is the engine's table registry: an immutable snapshot that every
// DDL replaces with an extended copy under Engine.ddlMu, so transactions,
// rollback and restart resolve a table or an index with one atomic load and
// no lock.
type tableSet struct {
	byName  map[string]*tableRuntime
	byID    map[uint32]*tableRuntime
	indexes map[string]*index
}

// with returns a copy of s with rt installed, replacing the runtime of the
// same table if there is one, and idx, if non-nil, registered.
func (s *tableSet) with(rt *tableRuntime, idx *index) *tableSet {
	n := &tableSet{byName: maps.Clone(s.byName), byID: maps.Clone(s.byID), indexes: maps.Clone(s.indexes)}
	n.byName[rt.meta.Name], n.byID[rt.meta.ID] = rt, rt
	if idx != nil {
		n.indexes[idx.meta.Name] = idx
	}
	return n
}

// CreateTable creates a table with the given schema and primary key. It must
// be called before any transaction uses the table; DDL is not transactional.
// On durable engines the DDL is logged and forced to disk before returning.
func (e *Engine) CreateTable(name string, schema *record.Schema, primaryKey []string) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.ddlMu.Lock()
	defer e.ddlMu.Unlock()
	tbl, err := e.cat.CreateTable(name, schema, primaryKey)
	if err != nil {
		return err
	}
	prev := e.tables.Load()
	e.installTable(tbl)
	if err := e.logDDL(wal.RecCreateTable, catalog.TableMetaOf(tbl).Encode()); err != nil {
		// The DDL record could not be made durable: undo the in-memory
		// creation so the failed call leaves no half-created table that a
		// restart would not know about.
		e.cat.RemoveTable(tbl.ID)
		e.tables.Store(prev)
		return err
	}
	return nil
}

// installTable publishes an empty runtime (heap file and primary-key tree)
// for a catalog table descriptor and returns it. DDL calls it under
// e.ddlMu, restart before the engine is shared.
func (e *Engine) installTable(tbl *catalog.Table) *tableRuntime {
	rt := &tableRuntime{meta: tbl, hf: heap.NewFile(tbl.ID, e.pool), pk: &index{tree: newIndexTree()}}
	e.tables.Store(e.tables.Load().with(rt, nil))
	return rt
}

// CreateIndex creates a secondary index on an existing (empty or populated)
// table. Existing rows are indexed immediately. On durable engines the DDL
// is logged and forced to disk before returning.
func (e *Engine) CreateIndex(name, table string, columns []string, unique bool) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.ddlMu.Lock()
	defer e.ddlMu.Unlock()
	ix, err := e.cat.CreateIndex(name, table, columns, unique)
	if err != nil {
		return err
	}
	prev := e.tables.Load()
	if err := e.installIndex(ix); err == nil {
		err = e.logDDL(wal.RecCreateIndex, catalog.IndexMetaOf(ix).Encode())
	}
	if err != nil {
		e.cat.RemoveIndex(ix.Name)
		e.tables.Store(prev)
		return err
	}
	return nil
}

// installIndex publishes the runtime B+tree for a catalog index descriptor
// and backfills it from the table's existing rows. It is called where
// installTable is.
func (e *Engine) installIndex(ix *catalog.Index) error {
	set := e.tables.Load()
	rt := *set.byID[ix.TableID]
	idx := &index{meta: ix, tree: newIndexTree()}
	rt.secs = append(slices.Clip(rt.secs), idx)
	// Published before the backfill, so a concurrent insert maintains the
	// index from the moment the scan below could miss its row.
	e.tables.Store(set.with(&rt, idx))
	var err error
	serr := rt.hf.Scan(nil, func(rid heap.RID, rec []byte) bool {
		var key string
		if key, err = rowKey(rt.meta, ix, rec, rid); err != nil {
			return false
		}
		idx.tree.insert(key, rid)
		return true
	})
	if err == nil {
		err = serr
	}
	return err
}

// logDDL appends a DDL record and forces it to disk on durable engines; DDL
// must be durable before data records referencing it can commit. Volatile
// engines skip DDL logging entirely, matching the original in-memory
// behavior.
func (e *Engine) logDDL(typ wal.RecType, meta []byte) error {
	if e.segs == nil {
		return nil
	}
	lsn, err := e.log.Append(wal.Record{Type: typ, After: meta})
	if err != nil {
		return err
	}
	return e.log.Flush(lsn)
}

func (e *Engine) tableRuntime(name string) (*tableRuntime, error) {
	if rt := e.tables.Load().byName[name]; rt != nil {
		return rt, nil
	}
	return nil, fmt.Errorf("core: unknown table %q", name)
}

// insert stores the encoded row data in the heap, then enters its keys. On
// a duplicate key it removes the heap row again and leaves nothing behind.
func (rt *tableRuntime) insert(h *profiler.Handle, data []byte) error {
	rid, err := rt.hf.Insert(h, data)
	if err != nil {
		return err
	}
	if err := rt.addKeys(data, rid); err != nil {
		_ = rt.hf.Delete(h, rid)
		return err
	}
	return nil
}

// addKeys enters the primary and secondary keys of the encoded row data
// stored at rid. On a duplicate it removes the keys it added and returns
// ErrDuplicateKey.
func (rt *tableRuntime) addKeys(data []byte, rid heap.RID) error {
	pk, err := rowKey(rt.meta, nil, data, rid)
	if err != nil {
		return err
	}
	if !rt.pk.tree.insert(pk, rid) {
		return fmt.Errorf("%w: %s in %s", ErrDuplicateKey, pk, rt.meta.Name)
	}
	for i, sec := range rt.secs {
		key, _ := rowKey(rt.meta, sec.meta, data, rid) // data passed above
		if !sec.tree.insert(key, rid) {
			rt.dropKeys(data, rid, rt.secs[:i])
			return fmt.Errorf("%w: index %s", ErrDuplicateKey, sec.meta.Name)
		}
	}
	return nil
}

// dropKeys removes the primary key and the keys in secs of the encoded row
// data stored at rid.
func (rt *tableRuntime) dropKeys(data []byte, rid heap.RID, secs []*index) {
	for _, sec := range secs {
		key, _ := rowKey(rt.meta, sec.meta, data, rid)
		sec.tree.remove(key)
	}
	pk, _ := rowKey(rt.meta, nil, data, rid)
	rt.pk.tree.remove(pk)
}

// update overwrites the row at rid with the encoded image after, then moves
// each secondary key that differs from the one of the old image before.
func (rt *tableRuntime) update(h *profiler.Handle, rid heap.RID, before, after []byte) error {
	if err := rt.hf.Update(h, rid, after); err != nil {
		return err
	}
	for _, sec := range rt.secs {
		oldKey, err := rowKey(rt.meta, sec.meta, before, rid)
		if err != nil {
			return err
		}
		if newKey, _ := rowKey(rt.meta, sec.meta, after, rid); newKey != oldKey { // callers check after
			sec.tree.remove(oldKey)
			sec.tree.insert(newKey, rid)
		}
	}
	return nil
}

// delete drops the keys of the encoded row data stored at rid, then the heap
// row. If the heap refuses, it puts the keys back, so the indexes stay
// consistent with the heap.
func (rt *tableRuntime) delete(h *profiler.Handle, rid heap.RID, data []byte) error {
	rt.dropKeys(data, rid, rt.secs)
	err := rt.hf.Delete(h, rid)
	if err != nil {
		_ = rt.addKeys(data, rid)
	}
	return err
}

// rowKey is the B+tree key of rid's entry in ix (nil: the primary key),
// read straight from tbl's encoded row data. Unique indexes and the primary
// key use the column values alone; non-unique indexes append the RID so that
// duplicate column values remain distinct entries. It rejects data exactly
// as Decode does, so a row that passed once passes.
func rowKey(tbl *catalog.Table, ix *catalog.Index, data []byte, rid heap.RID) (string, error) {
	cols, unique := tbl.PrimaryKeyIndexes(), true
	if ix != nil {
		cols, unique = ix.ColumnIndexes(), ix.Unique
	}
	var buf [64]byte
	k, err := tbl.Schema.AppendKey(buf[:0], data, cols)
	if err != nil || unique {
		return string(k), err
	}
	return string(append(k, record.EncodeKey(record.Int(int64(rid.Page)), record.Int(int64(rid.Slot)))...)), nil
}

// Package core implements the storage-manager engine: it composes the lock
// manager (with Speculative Lock Inheritance), write-ahead log, buffer pool,
// heap files, B+tree indexes and schema registry into a transactional embedded
// database, and executes transactions on a pool of agent threads exactly as
// Shore-MT does — one agent goroutine runs one transaction at a time, and
// SLI passes hot locks from a committing transaction to the next transaction
// on the same agent.
//
// The top-level package slidb re-exports this engine as the public API.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"slidb/internal/btree"
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

// maxDeadlockRetries is how many times Exec re-runs a transaction that was
// chosen as a deadlock victim (or timed out on a lock) before giving up.
const maxDeadlockRetries = 10

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
	// in the paper's terms), fixed at Open/OpenAt. Zero or negative runs
	// transactions inline on the calling goroutine, without an agent (no SLI).
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
	// AsyncCommit frees the agent worker at pre-commit: it replies to Exec
	// once the commit record is appended and the locks are released, and
	// starts its next transaction while the Exec caller waits for the force
	// (flush pipelining). Exec still blocks its caller until the transaction
	// is durable; only the agent is freed. It requires EarlyLockRelease:
	// without it a committing transaction must hold its locks until the
	// force completes, so the flush happens synchronously and there is
	// nothing to pipeline — AsyncCommit alone is a no-op.
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
	c.Agents = max(c.Agents, 0)
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

	jobs     chan job
	stopping chan struct{}  // closed by Close/SimulateCrash: the agents exit, Exec senders give up
	agents   sync.WaitGroup // the running workerLoops; Close and SimulateCrash wait for them
	closed   atomic.Bool

	// ackProf takes the LogFlush time of the durability waits Exec callers
	// make under AsyncCommit (see waitAsync). nil when profiling is off.
	ackProf *profiler.Handle

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
	done chan reply
}

// reply is a transaction's outcome as runTxn returns it: the error that
// aborted it, or, for a pre-committed transaction whose force nobody has
// waited for yet, the WAL's durability ack and the agent that ran it (nil
// inline).
type reply struct {
	ack <-chan error
	err error
	w   *worker
}

type worker struct {
	agent   *lockmgr.Agent
	prof    *profiler.Handle
	ackedTo atomic.Int64 // how far past clockBase waitAsync has charged this agent's commits
}

var clockBase = time.Now() // anchors worker.ackedTo's monotonic timestamps

// Open creates an in-memory (volatile) engine with the given configuration.
// For a disk-backed engine with crash recovery, use OpenAt.
func Open(cfg Config) *Engine {
	e := newEngine(cfg.withDefaults(), nil, 0)
	e.startAgents()
	return e
}

// newEngine builds an engine without starting its agent pool. A non-nil
// durable sink makes the write-ahead log disk-backed; startLSN resumes LSN
// allocation above the recovered log prefix.
func newEngine(cfg Config, durable *wal.Segments, startLSN wal.LSN) *Engine {
	e := &Engine{
		cfg:      cfg,
		segs:     durable,
		prof:     profiler.New(cfg.Profile),
		jobs:     make(chan job),
		stopping: make(chan struct{}),
	}
	e.ackProf = e.prof.NewHandle()
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
	e.agents.Wait()
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

// Tables returns the names of the engine's tables in creation order.
func (e *Engine) Tables() []string {
	var names []string
	for _, rt := range e.tables.Load().inIDOrder() {
		names = append(names, rt.meta.Name)
	}
	return names
}

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
	e.agents.Wait()
}

// SetSLI toggles Speculative Lock Inheritance at runtime.
func (e *Engine) SetSLI(enabled bool) { e.lm.SetSLI(enabled) }

// SLIEnabled reports whether SLI is active.
func (e *Engine) SLIEnabled() bool { return e.lm.SLIEnabled() }

// Concurrency returns the agent count fixed at Open/OpenAt; 0 runs inline.
func (e *Engine) Concurrency() int { return e.cfg.Agents }

// startAgents starts the fixed pool of Config.Agents workers, after restart.
func (e *Engine) startAgents() {
	e.agents.Add(e.cfg.Agents)
	for range e.cfg.Agents {
		go e.workerLoop(&worker{agent: e.lm.NewAgent(), prof: e.prof.NewHandle()})
	}
}

// workerLoop is one agent of the fixed pool: it runs one transaction at a
// time and replies as soon as the transaction's outcome is decided, until
// Close or SimulateCrash closes e.stopping. A pre-committed transaction's
// force is waited for here, unless AsyncCommit hands that wait to the Exec
// caller so the agent can start its next transaction (flush pipelining).
// Without EarlyLockRelease preCommit forces synchronously and yields no
// ack, so AsyncCommit changes nothing there.
func (e *Engine) workerLoop(w *worker) {
	defer e.agents.Done()
	for {
		select {
		case <-e.stopping:
			return
		case j := <-e.jobs:
			ack, err := e.runTxn(w, j.fn)
			if ack != nil && !e.cfg.AsyncCommit {
				ack, err = nil, e.waitDurable(w.prof, ack)
			}
			j.done <- reply{ack: ack, err: err, w: w}
		}
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
// and durable. If the engine was opened with agents the transaction is
// queued to the pool (and benefits from SLI); otherwise it runs inline on
// the calling goroutine. Either way the caller makes the durability wait the agent left
// to it. Deadlock victims are retried up to maxDeadlockRetries times. A
// non-nil error returned by fn aborts the transaction and is returned to the
// caller. Exec returns ErrClosed — rather than blocking forever — when the
// engine is closed before a worker picks the transaction up.
func (e *Engine) Exec(fn func(*Tx) error) error {
	if e.closed.Load() {
		return ErrClosed
	}
	var r reply
	if e.cfg.Agents == 0 {
		r.ack, r.err = e.runTxn(nil, fn)
	} else {
		done := make(chan reply, 1)
		select {
		case e.jobs <- job{fn: fn, done: done}:
			r = <-done
		case <-e.stopping:
			return ErrClosed
		}
	}
	if r.ack == nil {
		return r.err
	}
	return e.waitAsync(r.w, r.ack)
}

// waitAsync is the durability wait an Exec caller makes for a transaction
// agent w pre-committed under AsyncCommit (w is nil inline: that wait is the
// caller's own time and goes uncharged). It overlaps w's next transaction,
// so it goes to e.ackProf, not to w's handle, where it would corrupt
// runOnce's TxWork attribution. One agent's callers wait concurrently, so
// only the part of a wait past w.ackedTo is charged: the time the agent has
// a commit outstanding counts once, as for one goroutine awaiting them in turn.
func (e *Engine) waitAsync(w *worker, ack <-chan error) error {
	if w == nil || e.ackProf == nil {
		return e.waitDurable(nil, ack)
	}
	start := time.Since(clockBase)
	err := e.waitDurable(nil, ack)
	end := time.Since(clockBase)
	prev := w.ackedTo.Load()
	for int64(end) > prev && !w.ackedTo.CompareAndSwap(prev, int64(end)) {
		prev = w.ackedTo.Load()
	}
	// A wait that ends before prev was charged already; Add drops it.
	e.ackProf.Add(profiler.LogFlush, end-max(start, time.Duration(prev)))
	return err
}

// ExecAsync runs fn as Exec does and returns a durable-ack future: the
// channel receives exactly one value — nil once the transaction has
// committed AND its commit record is durable, or the error that aborted it.
// The WAL acknowledges commits in LSN order, so a resolved future implies
// every transaction it could have depended on is durable too. ExecAsync
// never blocks its caller.
func (e *Engine) ExecAsync(fn func(*Tx) error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- e.Exec(fn) }()
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
	tree *btree.Tree[heap.RID]
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

// tableSet is the engine's schema registry: an immutable snapshot that every
// DDL replaces with an extended copy under Engine.ddlMu, so transactions,
// rollback and restart resolve a table or an index with one atomic load and
// no lock. Live DDL, DDL redo and checkpoint restore all extend it through
// withTable and withIndex, which refuse a taken name or ID; a failed DDL
// publishes the set it started from again.
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

// inIDOrder returns the runtimes of s by ascending table ID, which is
// creation order.
func (s *tableSet) inIDOrder() []*tableRuntime {
	return slices.SortedFunc(maps.Values(s.byID), func(a, b *tableRuntime) int { return cmp.Compare(a.meta.ID, b.meta.ID) })
}

// nextTableID is the ID a new table takes: one above the highest in s.
func (s *tableSet) nextTableID() uint32 {
	id := uint32(1)
	for have := range s.byID {
		id = max(id, have+1)
	}
	return id
}

// withTable returns a copy of s holding an empty runtime, heap file on pool
// and primary-key tree, for the table m describes.
func (s *tableSet) withTable(m catalog.TableMeta, pool *buffer.Pool) (*tableSet, error) {
	tbl, err := catalog.NewTable(m)
	if err != nil {
		return nil, err
	}
	if s.byName[m.Name] != nil {
		return nil, fmt.Errorf("catalog: table %q already exists", m.Name)
	}
	if s.byID[m.ID] != nil {
		return nil, fmt.Errorf("catalog: table ID %d already exists", m.ID)
	}
	return s.with(&tableRuntime{meta: tbl, hf: heap.NewFile(tbl.ID, pool), pk: &index{tree: btree.New[heap.RID]()}}, nil), nil
}

// withIndex returns a copy of s in which the table m names carries the
// empty index m describes, and that index.
func (s *tableSet) withIndex(m catalog.IndexMeta) (*tableSet, *index, error) {
	rt := s.byID[m.TableID]
	if rt == nil {
		return nil, nil, fmt.Errorf("catalog: restored index %q references unknown table %d", m.Name, m.TableID)
	}
	if s.indexes[m.Name] != nil {
		return nil, nil, fmt.Errorf("catalog: index %q already exists", m.Name)
	}
	ix, err := catalog.NewIndex(m, rt.meta)
	if err != nil {
		return nil, nil, err
	}
	n, idx := *rt, &index{meta: ix, tree: btree.New[heap.RID]()}
	n.secs = append(slices.Clip(rt.secs), idx)
	return s.with(&n, idx), idx, nil
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
	prev := e.tables.Load()
	m := catalog.TableMeta{ID: prev.nextTableID(), Name: name, Columns: schema.Columns(), PrimaryKey: primaryKey}
	if err := e.addTable(m); err != nil {
		return err
	}
	if err := e.logDDL(wal.RecCreateTable, m.Encode()); err != nil {
		// The DDL record could not be made durable: drop the table, so the
		// failed call leaves nothing a restart would not know about. Its ID
		// is free again, which is safe: a log that failed an append or a
		// flush takes no later record, so no durable record can give the
		// ID to a second table.
		e.tables.Store(prev)
		return err
	}
	return nil
}

// addTable publishes an empty runtime for the table m describes. DDL calls
// it under e.ddlMu, DDL redo before the engine is shared.
func (e *Engine) addTable(m catalog.TableMeta) error {
	set, err := e.tables.Load().withTable(m, e.pool)
	if err == nil {
		e.tables.Store(set)
	}
	return err
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
	prev := e.tables.Load()
	rt := prev.byName[table]
	if rt == nil {
		return fmt.Errorf("catalog: unknown table %q", table)
	}
	m := catalog.IndexMeta{Name: name, TableID: rt.meta.ID, Columns: columns, Unique: unique}
	err := e.addIndex(m)
	if err == nil {
		err = e.logDDL(wal.RecCreateIndex, m.Encode())
	}
	if err != nil {
		e.tables.Store(prev)
	}
	return err
}

// addIndex publishes the index m describes and backfills it from its
// table's existing rows. Two rows with one key in a unique index fail it
// with ErrDuplicateKey. It is called where addTable is.
func (e *Engine) addIndex(m catalog.IndexMeta) error {
	set, idx, err := e.tables.Load().withIndex(m)
	if err != nil {
		return err
	}
	rt := set.byID[m.TableID]
	// Published before the backfill, so a concurrent insert maintains the
	// index from the moment the scan below could miss its row.
	e.tables.Store(set)
	serr := rt.hf.Scan(nil, func(rid heap.RID, rec []byte) bool {
		var key string
		if key, err = rowKey(rt.meta, idx.meta, rec, rid); err != nil {
			return false
		}
		// A concurrent insert may have entered this row's key already.
		if !idx.tree.InsertIfAbsent(key, rid) {
			if got, _ := idx.tree.Get(key); got != rid {
				err = fmt.Errorf("%w: index %s", ErrDuplicateKey, m.Name)
				return false
			}
		}
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
	if !rt.pk.tree.InsertIfAbsent(pk, rid) {
		return fmt.Errorf("%w: %s in %s", ErrDuplicateKey, pk, rt.meta.Name)
	}
	for i, sec := range rt.secs {
		key, _ := rowKey(rt.meta, sec.meta, data, rid) // data passed above
		if !sec.tree.InsertIfAbsent(key, rid) {
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
		sec.tree.Delete(key)
	}
	pk, _ := rowKey(rt.meta, nil, data, rid)
	rt.pk.tree.Delete(pk)
}

// update overwrites the row at rid with the encoded image after, then moves
// each secondary key that differs from the one of the old image before. If
// a unique index holds a new key already, it undoes itself: ErrDuplicateKey.
func (rt *tableRuntime) update(h *profiler.Handle, rid heap.RID, before, after []byte) error {
	if err := rt.hf.Update(h, rid, after); err != nil {
		return err
	}
	for i, sec := range rt.secs {
		oldKey, err := rowKey(rt.meta, sec.meta, before, rid)
		if err != nil {
			return err
		}
		if newKey, _ := rowKey(rt.meta, sec.meta, after, rid); newKey != oldKey { // callers check after
			if !sec.tree.InsertIfAbsent(newKey, rid) {
				moved := *rt
				moved.secs = rt.secs[:i]
				_ = moved.update(h, rid, after, before)
				return fmt.Errorf("%w: index %s", ErrDuplicateKey, sec.meta.Name)
			}
			sec.tree.Delete(oldKey)
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

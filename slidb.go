// Package slidb is an embedded transactional storage manager written in pure
// Go, built as a faithful reproduction of the system described in
// "Improving OLTP Scalability using Speculative Lock Inheritance"
// (Johnson, Pandis & Ailamaki, VLDB 2009).
//
// The engine provides hierarchical two-phase locking (database → table →
// page → record), a write-ahead log with group commit, a buffer pool with
// optional simulated I/O latency, heap files, B+tree indexes, and a pool of
// agent threads executing transactions — plus the paper's contribution,
// Speculative Lock Inheritance (SLI): hot share-mode locks are passed
// directly from a committing transaction to the next transaction on the same
// agent thread, bypassing the centralized lock manager and removing it from
// the critical path of short transactions.
//
// # Quick start
//
//	db := slidb.Open(slidb.Config{Agents: 8, SLI: true})
//	defer db.Close()
//
//	schema := slidb.MustSchema(
//		slidb.Column{Name: "id", Type: slidb.TypeInt},
//		slidb.Column{Name: "balance", Type: slidb.TypeFloat},
//	)
//	db.CreateTable("accounts", schema, []string{"id"})
//
//	err := db.Exec(func(tx *slidb.Tx) error {
//		return tx.Insert("accounts", slidb.Row{slidb.Int(1), slidb.Float(100)})
//	})
//
// # Durability and crash recovery
//
// Open creates a volatile, in-memory engine — the right choice for
// benchmarks that regenerate the paper's figures. OpenAt instead roots the
// engine at a data directory and makes it durable: the write-ahead log is
// persisted to size-bounded on-disk segment files, each commit is
// acknowledged only after its log records have been fsynced (one sync per
// group-commit batch, shared by every transaction in the batch), and
// reopening the directory after a crash runs an ARIES-style restart —
// analysis of the log tail classifies every transaction by its durable
// outcome record, redo repeats history (every data record and rollback
// compensation record, in log order), and an undo pass completes the
// rollback of transactions interrupted in flight or mid-rollback, resuming
// partially-logged rollbacks from their last durable compensation record.
// Committed transactions always survive; transactions in flight at the
// crash (or aborted) leave no trace.
//
//	db, err := slidb.OpenAt("/var/lib/myapp/data", slidb.Config{Agents: 8})
//	// ... use db exactly as an in-memory engine ...
//	db.Checkpoint() // snapshot the state, truncate old log segments
//	db.Close()
//
// # Scalable commit pipeline
//
// By default a committing transaction holds its locks across the group-
// commit fsync — the paper-faithful baseline. Config knobs decouple
// lock release and agent scheduling from log durability:
// Config.EarlyLockRelease releases a committing transaction's locks
// (applying SLI) as soon as its commit record is appended, and the separate
// Config.EarlyLockReleaseAborts applies the same policy to rollbacks (locks
// released at abort-record append), each shrinking lock hold times by the
// entire flush latency; Config.AsyncCommit frees each agent at pre-commit,
// so it runs its next transaction while the caller waits for the log force.
// Exec still blocks until the commit is durable; Engine.ExecAsync returns a
// durable-ack future instead. Acks are delivered in commit (LSN) order, so
// an updating transaction that observed another's pre-committed writes is
// never acknowledged before its dependency; a crash between pre-commit and
// the flush rolls the transaction back as a loser on recovery. The one
// anomaly window ELR opens is for read-only transactions: they append no
// log record, never wait on the log, and may therefore observe
// pre-committed data whose durability is still pending — after a crash in
// that window the observed writer is rolled back even though the reader
// already returned. Callers that need a durable read barrier should perform
// the read in an updating transaction (or simply not enable ELR).
//
// Engine.Checkpoint persists a point-in-time snapshot and deletes the log
// segments it covers, bounding both disk usage and the restart work after a
// crash. Engine.RecoveryStats reports what the last OpenAt had to replay.
// See examples/persistence for a complete open → write → crash → recover
// program.
//
// # Observability
//
// Engine.ObsHandler returns an http.Handler serving the engine's metrics in
// the Prometheus text exposition format at /metrics and a JSON trace of the
// slowest recent transactions (with per-category time breakdowns when
// Config.Profile is on) at /debug/slowtx. Engine.Observe exposes the
// underlying registry so embedders can add their own metric families, and
// Engine.LogErr reports whether a write-ahead-log sink error has wedged the
// log (as opposed to commits merely being slow — compare
// Engine.DurableLag). Metrics collection is scrape-time snapshotting of
// counters the engine already maintains: enabling it adds no lock
// acquisition to the transaction commit path. cmd/slidbd wraps all of this
// in a daemon with health/readiness probes and graceful drain; see the
// README's Observability section for the full metric list.
//
// See the examples directory for complete programs and cmd/slibench for the
// benchmark harness that regenerates the paper's figures.
package slidb

import (
	"slidb/internal/core"
	"slidb/internal/lockmgr"
	"slidb/internal/record"
	"slidb/internal/wal"
)

// Engine is the storage manager. Create one with Open.
type Engine = core.Engine

// Config configures an Engine; the zero value is a usable single-threaded,
// SLI-off, in-memory configuration.
type Config = core.Config

// Tx is a transaction handle passed to the function given to Engine.Exec.
type Tx = core.Tx

// Savepoint marks a position inside a transaction; Tx.RollbackTo(sp) rolls
// back every modification made after the mark (compensation-logged, exactly
// like an abort of that span) while the transaction keeps its locks and can
// continue to commit.
type Savepoint = core.Savepoint

// Row is one tuple of column values.
type Row = record.Row

// Value is a single dynamically typed column value.
type Value = record.Value

// Column describes one column of a table schema.
type Column = record.Column

// Schema describes the columns of a table.
type Schema = record.Schema

// Type is a column type.
type Type = record.Type

// LockStats is a snapshot of the lock manager's counters (acquisitions by
// level, hot/heritable classification, and SLI outcomes), as returned by
// Engine.LockStats.
type LockStats = lockmgr.StatsSnapshot

// RecoveryStats describes the restart work an OpenAt call performed, as
// returned by Engine.RecoveryStats.
type RecoveryStats = core.RecoveryStats

// Column types.
const (
	TypeInt    = record.TypeInt
	TypeFloat  = record.TypeFloat
	TypeString = record.TypeString
)

// Lock hierarchy levels, used with Config.SLIMinLevel.
const (
	LevelDatabase = lockmgr.LevelDatabase
	LevelTable    = lockmgr.LevelTable
	LevelPage     = lockmgr.LevelPage
	LevelRecord   = lockmgr.LevelRecord
)

// Errors surfaced by the engine.
var (
	// ErrNotFound is returned by lookups and updates of missing rows.
	ErrNotFound = core.ErrNotFound
	// ErrDuplicateKey is returned when an insert violates a unique key.
	ErrDuplicateKey = core.ErrDuplicateKey
	// ErrDeadlock is returned when a transaction is chosen as a deadlock
	// victim and its retries are exhausted.
	ErrDeadlock = lockmgr.ErrDeadlock
	// Abort lets a transaction body abort without signalling an unexpected
	// failure.
	Abort = core.Abort
	// ErrNotDurable is returned by Checkpoint on engines opened with Open
	// instead of OpenAt.
	ErrNotDurable = core.ErrNotDurable
	// ErrClosed is returned by Exec and ExecAsync on a closed engine,
	// including transactions still queued when Close was called.
	ErrClosed = core.ErrClosed
	// ErrLogFormat is returned by OpenAt when the data directory's log
	// segments or checkpoint were written in an incompatible format version
	// (e.g. by a pre-byte-offset-LSN build). The data is not corrupt — it is
	// simply unreadable by this version, and failing loudly beats silently
	// truncating it as a torn tail.
	ErrLogFormat = wal.ErrLogFormat
	// ErrBadSavepoint is returned by Tx.RollbackTo for a savepoint that is
	// not part of the transaction's current undo chain.
	ErrBadSavepoint = core.ErrBadSavepoint
)

// Open creates a new volatile, in-memory engine. For a durable engine with
// crash recovery, use OpenAt.
func Open(cfg Config) *Engine { return core.Open(cfg) }

// OpenAt opens a durable engine rooted at the data directory dir, creating
// it on first use and running crash recovery over the write-ahead log and
// checkpoint a previous incarnation left behind. Every transaction committed
// by the returned engine is durable once Exec returns; use
// Engine.Checkpoint periodically to truncate the log and bound restart time.
func OpenAt(dir string, cfg Config) (*Engine, error) { return core.OpenAt(dir, cfg) }

// Int builds an integer value.
func Int(v int64) Value { return record.Int(v) }

// Float builds a floating-point value.
func Float(v float64) Value { return record.Float(v) }

// String builds a string value.
func String(v string) Value { return record.String(v) }

// NewSchema builds a schema from columns, validating names and types.
func NewSchema(cols ...Column) (*Schema, error) { return record.NewSchema(cols...) }

// MustSchema is NewSchema that panics on error, for statically known schemas.
func MustSchema(cols ...Column) *Schema { return record.MustSchema(cols...) }

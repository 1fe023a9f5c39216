// Package figures regenerates the paper's evaluation figures. Each FigureN
// function builds the appropriate engine(s) and dataset, drives the workload
// the paper uses for that figure, and returns a Table whose rows correspond
// to the bars or series of the figure. The cmd/slibench CLI prints these
// tables, and the repository's top-level benchmarks (bench_test.go) report
// the headline numbers as benchmark metrics.
//
// Absolute numbers will differ from the paper's Niagara II / Shore-MT
// results; what these reproductions preserve is the shape of each figure
// (see EXPERIMENTS.md).
package figures

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"slidb/internal/bench/tm1"
	"slidb/internal/bench/tpcb"
	"slidb/internal/bench/tpcc"
	"slidb/internal/core"
	"slidb/internal/workload"
)

// Options controls dataset scale and measurement length for all figures.
type Options struct {
	// AgentCounts is the load sweep (the paper's "hardware contexts") used by
	// Figures 1 and 7.
	AgentCounts []int
	// PeakAgents is the fully loaded configuration used by Figures 6, 8, 9,
	// 10 and 11 (the paper uses 64).
	PeakAgents int
	// Duration is the measured interval per data point.
	Duration time.Duration
	// Warmup precedes each measurement.
	Warmup time.Duration
	// TM1Subscribers, TPCBBranches/TPCBAccountsPerBranch and TPCCWarehouses
	// size the datasets.
	TM1Subscribers        int
	TPCBBranches          int
	TPCBAccountsPerBranch int
	TPCCWarehouses        int
	// IODelay is the artificial per-I/O latency for the disk-resident
	// workloads (TPC-B, TPC-C); the paper uses 6ms. NDBB stays in memory.
	IODelay time.Duration
	// BufferFrames sizes the buffer pool.
	BufferFrames int
	// Workloads optionally restricts the per-transaction figures (6, 8, 9,
	// 10, 11) to a subset of workload keys; nil means all.
	Workloads []string
	// Seed seeds workload randomness.
	Seed int64
	// DataDir, when non-empty, makes every engine durable (core.OpenAt
	// rooted at a per-run subdirectory): commits pay a real fsync and the
	// run leaves a recoverable data directory behind. Empty keeps the
	// paper's in-memory configuration.
	DataDir string
	// EarlyLockRelease and AsyncCommit enable the scalable commit pipeline
	// (locks released at commit-record append; agents pipeline flush waits).
	// EarlyLockReleaseAborts applies the release-at-append policy to the
	// abort path independently (see core.Config).
	EarlyLockRelease       bool
	EarlyLockReleaseAborts bool
	AsyncCommit            bool
	// GroupCommitWindow and LogFlushDelay configure the engine's commit
	// force cost (see core.Config). Non-zero values make the fsync latency
	// that ELR removes from the lock hold time visible on in-memory engines.
	GroupCommitWindow time.Duration
	LogFlushDelay     time.Duration
	// AdaptiveGroupCommit replaces the fixed group-commit window with the
	// self-tuning controller, bounded by GroupCommitMin/GroupCommitMax
	// (engine defaults apply when zero). PreallocateSegments preallocates
	// durable segment files at creation (see core.Config).
	AdaptiveGroupCommit bool
	GroupCommitMin      time.Duration
	GroupCommitMax      time.Duration
	PreallocateSegments bool
	// Clients is the number of closed-loop client goroutines driving the
	// engine; zero means one per agent. Overcommitting clients (> agents)
	// is required to exercise AsyncCommit's flush pipelining: with exactly
	// one blocking client per agent the per-worker in-flight window can
	// never hold more than one transaction.
	Clients int
	// AbortRate, when positive, makes that fraction of generated
	// transactions perform their full body and then abort, exercising the
	// compensation-logged rollback path (see workload.WithAbortRate). Zero
	// keeps every transaction committing.
	AbortRate float64
	// OnEngine, when non-nil, is called with every engine the sweep builds,
	// after its dataset is loaded and before the workload starts. Figure
	// sweeps open and close many engines; the hook lets a harness attach
	// per-engine state — cmd/slibench uses it to point its -metricsaddr
	// exporter at whichever engine is currently measuring.
	OnEngine func(*core.Engine)
}

// DefaultOptions returns a laptop-scale configuration: small datasets and
// sub-second measurements, suitable for tests and quick runs.
func DefaultOptions() Options {
	return Options{
		AgentCounts:           []int{1, 2, 4, 8, 16, 32},
		PeakAgents:            16,
		Duration:              250 * time.Millisecond,
		Warmup:                50 * time.Millisecond,
		TM1Subscribers:        2000,
		TPCBBranches:          10,
		TPCBAccountsPerBranch: 500,
		TPCCWarehouses:        2,
		IODelay:               0,
		BufferFrames:          8192,
		Seed:                  1,
	}
}

// PaperOptions returns a configuration closer to the paper's setup: larger
// datasets, 64 "contexts", multi-second measurements and the 6 ms simulated
// I/O penalty for the disk-resident workloads. Expect a full figure sweep to
// take tens of minutes.
func PaperOptions() Options {
	o := DefaultOptions()
	o.AgentCounts = []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64}
	o.PeakAgents = 64
	o.Duration = 10 * time.Second
	o.Warmup = 2 * time.Second
	o.TM1Subscribers = 100000
	o.TPCBBranches = 100
	o.TPCBAccountsPerBranch = 10000
	o.TPCCWarehouses = 8
	o.IODelay = 6 * time.Millisecond
	return o
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if len(o.AgentCounts) == 0 {
		o.AgentCounts = d.AgentCounts
	}
	if o.PeakAgents <= 0 {
		o.PeakAgents = d.PeakAgents
	}
	if o.Duration <= 0 {
		o.Duration = d.Duration
	}
	if o.TM1Subscribers <= 0 {
		o.TM1Subscribers = d.TM1Subscribers
	}
	if o.TPCBBranches <= 0 {
		o.TPCBBranches = d.TPCBBranches
	}
	if o.TPCBAccountsPerBranch <= 0 {
		o.TPCBAccountsPerBranch = d.TPCBAccountsPerBranch
	}
	if o.TPCCWarehouses <= 0 {
		o.TPCCWarehouses = d.TPCCWarehouses
	}
	if o.BufferFrames <= 0 {
		o.BufferFrames = d.BufferFrames
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Row is one bar or series point of a figure.
type Row struct {
	// Label names the bar/series point (e.g. a transaction name or an agent
	// count).
	Label string
	// Values holds the numeric columns.
	Values []float64
}

// Table is the data behind one figure.
type Table struct {
	// Title describes the figure.
	Title string
	// Columns names the value columns (not counting the label).
	Columns []string
	// Rows are the figure's bars or points.
	Rows []Row
}

// String renders the table as aligned plain text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-28s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%18s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-28s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%18.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Value returns the value of the named column in the row with the given
// label, or 0 if not present.
func (t Table) Value(label, column string) float64 {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
		}
	}
	if ci < 0 {
		return 0
	}
	for _, r := range t.Rows {
		if r.Label == label && ci < len(r.Values) {
			return r.Values[ci]
		}
	}
	return 0
}

// Workload keys used across the per-transaction figures; they combine the
// benchmark name and transaction/mix name.
const (
	WLNDBBMix     = "ndbb/mix"
	WLNDBBForward = "ndbb/forward"
	WLGetSub      = "ndbb/getSub"
	WLGetDest     = "ndbb/getDest"
	WLGetAccess   = "ndbb/getAccess"
	WLUpdateSub   = "ndbb/updateSub"
	WLUpdateLoc   = "ndbb/updateLoc"
	WLTPCB        = "tpcb/tpcb"
	WLNewOrder    = "tpcc/NewOrder"
	WLPayment     = "tpcc/Payment"
	WLOrderStatus = "tpcc/OrderStatus"
	WLDelivery    = "tpcc/Delivery"
	WLStockLevel  = "tpcc/StockLevel"
	WLSmallMix    = "tpcc/small-mix"
	WLTPCCMix     = "tpcc/tpcc-mix"
)

// AllWorkloads lists every workload key in the order the paper's figures
// present them.
func AllWorkloads() []string {
	return []string{
		WLGetSub, WLGetDest, WLGetAccess, WLUpdateSub, WLUpdateLoc,
		WLNDBBForward, WLNDBBMix,
		WLTPCB,
		WLPayment, WLNewOrder, WLOrderStatus, WLDelivery, WLStockLevel,
		WLSmallMix, WLTPCCMix,
	}
}

// ShortWorkloads is the subset of workloads dominated by short transactions
// (the ones the paper expects SLI to speed up by 10-40%).
func ShortWorkloads() []string {
	return []string{WLGetSub, WLGetDest, WLGetAccess, WLUpdateSub, WLUpdateLoc, WLNDBBForward, WLNDBBMix, WLTPCB, WLPayment}
}

func (o Options) selectedWorkloads() []string {
	if len(o.Workloads) == 0 {
		return AllWorkloads()
	}
	return o.Workloads
}

// buildEngine creates an engine for the given workload key with SLI on or
// off, loads its dataset and returns the engine plus a workload generator.
func (o Options) buildEngine(key string, sli bool, agents int) (*core.Engine, workload.Generator, error) {
	parts := strings.SplitN(key, "/", 2)
	if len(parts) != 2 {
		return nil, nil, fmt.Errorf("figures: bad workload key %q", key)
	}
	benchName, txName := parts[0], parts[1]
	cfg := core.Config{
		SLI:                    sli,
		Agents:                 agents,
		Profile:                true,
		BufferFrames:           o.BufferFrames,
		EarlyLockRelease:       o.EarlyLockRelease,
		EarlyLockReleaseAborts: o.EarlyLockReleaseAborts,
		AsyncCommit:            o.AsyncCommit,
		GroupCommitWindow:      o.GroupCommitWindow,
		LogFlushDelay:          o.LogFlushDelay,
		AdaptiveGroupCommit:    o.AdaptiveGroupCommit,
		GroupCommitMin:         o.GroupCommitMin,
		GroupCommitMax:         o.GroupCommitMax,
		PreallocateSegments:    o.PreallocateSegments,
	}
	// NDBB is the in-memory dataset; TPC-B and TPC-C are "disk-resident" and
	// pay the artificial I/O penalty (paper §5.2).
	if benchName != "ndbb" {
		cfg.IODelay = o.IODelay
	}
	var e *core.Engine
	if o.DataDir != "" {
		// One subdirectory per engine build: figure sweeps open many engines
		// and each needs its own log.
		dir, err := os.MkdirTemp(o.DataDir, strings.ReplaceAll(key, "/", "_")+"-*")
		if err != nil {
			return nil, nil, err
		}
		e, err = core.OpenAt(dir, cfg)
		if err != nil {
			return nil, nil, err
		}
	} else {
		e = core.Open(cfg)
	}
	var gen workload.Generator
	var err error
	switch benchName {
	case "ndbb":
		bcfg := tm1.Config{Subscribers: o.TM1Subscribers, Seed: o.Seed}
		if err = tm1.Load(e, bcfg); err == nil {
			gen, err = tm1.NewGenerator(bcfg, txName)
		}
	case "tpcb":
		bcfg := tpcb.Config{Branches: o.TPCBBranches, AccountsPerBranch: o.TPCBAccountsPerBranch, Seed: o.Seed}
		if err = tpcb.Load(e, bcfg); err == nil {
			gen, err = tpcb.NewGenerator(bcfg, tpcb.TxAccountUpdate)
		}
	case "tpcc":
		bcfg := tpcc.Config{Warehouses: o.TPCCWarehouses, Seed: o.Seed}
		if err = tpcc.Load(e, bcfg); err == nil {
			gen, err = tpcc.NewGenerator(bcfg, txName)
		}
	default:
		err = fmt.Errorf("figures: unknown benchmark %q", benchName)
	}
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	if o.AbortRate > 0 {
		gen = workload.WithAbortRate(gen, o.AbortRate)
	}
	if o.OnEngine != nil {
		o.OnEngine(e)
	}
	return e, gen, nil
}

func (o Options) run(e *core.Engine, gen workload.Generator, clients int) workload.Result {
	if o.Clients > 0 {
		clients = o.Clients
	}
	return workload.Run(e, gen, workload.Options{
		Clients:  clients,
		Duration: o.Duration,
		Warmup:   o.Warmup,
		Seed:     o.Seed,
	})
}

// measure builds, runs and tears down one workload configuration.
func (o Options) measure(key string, sli bool, agents int) (workload.Result, error) {
	e, gen, err := o.buildEngine(key, sli, agents)
	if err != nil {
		return workload.Result{}, err
	}
	defer e.Close()
	return o.run(e, gen, agents), nil
}

// EngineStats carries engine-side counters sampled the moment a RunWorkload
// measurement ends, complementing the interval-scoped workload.Result.
type EngineStats struct {
	// DurableLag is the number of log bytes appended but not yet forced —
	// the visible depth of the asynchronous commit pipeline. (Bytes, not
	// records: byte-offset LSNs have no record count.)
	DurableLag uint64
	// ELRAborts counts aborting transactions that released their locks at
	// abort-record append (before the force) under EarlyLockReleaseAborts.
	ELRAborts uint64
	// UndoFailures counts rollback undo actions that failed; non-zero means
	// the run corrupted in-memory state.
	UndoFailures uint64
	// FlushCycles counts group-commit flusher cycles over the engine's
	// lifetime; SinkWrites counts physical writes the durable segment sink
	// issued (zero for in-memory engines). SinkWrites/FlushCycles is the
	// writes-per-cycle efficiency stat: ~1 on the vectored flush path.
	FlushCycles uint64
	SinkWrites  uint64
	// AvgWindow is the mean group-commit window over the run's windowed
	// cycles; FinalWindow is the controller's window when the run ended
	// (equal to the configured window when the controller is off).
	// FenceWait is cumulative time publishers spent blocked in the publish
	// fence.
	AvgWindow   time.Duration
	FinalWindow time.Duration
	FenceWait   time.Duration
}

// WritesPerCycle returns physical sink writes per flusher cycle, or 0 for
// in-memory runs.
func (es EngineStats) WritesPerCycle() float64 {
	if es.FlushCycles == 0 {
		return 0
	}
	return float64(es.SinkWrites) / float64(es.FlushCycles)
}

// RunWorkload builds, runs and tears down one workload configuration,
// additionally reporting engine-side counters (durable lag, abort-path ELR
// releases, undo failures) sampled the moment the measurement ended. It is
// the entry point used by cmd/slibench for single-workload and comparison
// runs.
func RunWorkload(key string, o Options, sli bool, agents int) (workload.Result, EngineStats, error) {
	o = o.withDefaults()
	if agents <= 0 {
		agents = o.PeakAgents
	}
	e, gen, err := o.buildEngine(key, sli, agents)
	if err != nil {
		return workload.Result{}, EngineStats{}, err
	}
	defer e.Close()
	res := o.run(e, gen, agents)
	es := EngineStats{
		DurableLag:   e.DurableLag(),
		ELRAborts:    e.ELRAborts(),
		UndoFailures: e.UndoFailures(),
	}
	lt := e.LogTail()
	es.FlushCycles = lt.FlushCycles
	es.SinkWrites = lt.SinkWrites
	es.FinalWindow = time.Duration(lt.CurWindowSeconds * float64(time.Second))
	es.FenceWait = time.Duration(lt.FenceWaitSeconds * float64(time.Second))
	if lt.WindowedCycles > 0 {
		es.AvgWindow = time.Duration(lt.WindowWaitSeconds / float64(lt.WindowedCycles) * float64(time.Second))
	}
	return res, es, nil
}

// sortedKeys returns map keys in deterministic order (helper for summaries).
func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

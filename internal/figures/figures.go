// Package figures regenerates the paper's evaluation figures. Each FigureN
// function builds the appropriate engine(s) and dataset, drives the workload
// the paper uses for that figure, and returns a Table whose rows correspond
// to the bars or series of the figure. The cmd/slibench CLI prints these
// tables, and the repository's top-level benchmarks (bench_test.go) report
// the headline numbers as benchmark metrics.
//
// Absolute numbers will differ from the paper's Niagara II / Shore-MT
// results; what these reproductions preserve is the shape of each figure.
package figures

import (
	"fmt"
	"os"
	"strings"
	"time"

	"slidb/internal/bench/tm1"
	"slidb/internal/bench/tpcb"
	"slidb/internal/bench/tpcc"
	"slidb/internal/core"
	"slidb/internal/lockmgr"
	"slidb/internal/profiler"
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

// Quick shrinks an Options for smoke tests and the repository-level
// benchmarks (slibench -scale quick).
func (o Options) Quick() Options {
	o = o.withDefaults()
	o.AgentCounts = []int{1, 4, 8}
	o.PeakAgents = 8
	o.Duration = 200 * time.Millisecond
	o.Warmup = 30 * time.Millisecond
	o.TM1Subscribers = 500
	o.TPCBBranches = 8
	o.TPCBAccountsPerBranch = 200
	o.TPCCWarehouses = 2
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

func (o Options) selectedWorkloads() []string {
	if len(o.Workloads) == 0 {
		return AllWorkloads()
	}
	return o.Workloads
}

// loaders maps each benchmark name of a workload key to the function that
// loads its dataset into an engine and returns the generator for one of its
// transactions or mixes.
var loaders = map[string]func(o Options, e *core.Engine, tx string) (workload.Generator, error){
	"ndbb": func(o Options, e *core.Engine, tx string) (workload.Generator, error) {
		cfg := tm1.Config{Subscribers: o.TM1Subscribers, Seed: o.Seed}
		if err := tm1.Load(e, cfg); err != nil {
			return nil, err
		}
		return tm1.NewGenerator(cfg, tx)
	},
	"tpcb": func(o Options, e *core.Engine, _ string) (workload.Generator, error) {
		cfg := tpcb.Config{Branches: o.TPCBBranches, AccountsPerBranch: o.TPCBAccountsPerBranch, Seed: o.Seed}
		if err := tpcb.Load(e, cfg); err != nil {
			return nil, err
		}
		return tpcb.NewGenerator(cfg, tpcb.TxAccountUpdate)
	},
	"tpcc": func(o Options, e *core.Engine, tx string) (workload.Generator, error) {
		cfg := tpcc.Config{Warehouses: o.TPCCWarehouses, Seed: o.Seed}
		if err := tpcc.Load(e, cfg); err != nil {
			return nil, err
		}
		return tpcc.NewGenerator(cfg, tx)
	},
}

// open creates a profiling engine with cfg. Under DataDir the engine is
// durable, rooted at a fresh subdirectory named after name: sweeps open many
// engines and each needs its own log.
func (o Options) open(name string, cfg core.Config) (*core.Engine, error) {
	cfg.Profile = true
	cfg.BufferFrames = o.BufferFrames
	if o.DataDir == "" {
		return core.Open(cfg), nil
	}
	dir, err := os.MkdirTemp(o.DataDir, strings.ReplaceAll(name, "/", "_")+"-*")
	if err != nil {
		return nil, err
	}
	return core.OpenAt(dir, cfg)
}

// build opens an engine with cfg for the given workload key, loads its
// dataset and returns the engine plus the key's workload generator.
func (o Options) build(key string, cfg core.Config) (*core.Engine, workload.Generator, error) {
	benchName, txName, ok := strings.Cut(key, "/")
	if !ok {
		return nil, nil, fmt.Errorf("figures: bad workload key %q", key)
	}
	load, ok := loaders[benchName]
	if !ok {
		return nil, nil, fmt.Errorf("figures: unknown benchmark %q", benchName)
	}
	// NDBB is the in-memory dataset; TPC-B and TPC-C are "disk-resident" and
	// pay the artificial I/O penalty (paper §5.2).
	if benchName != "ndbb" {
		cfg.IODelay = o.IODelay
	}
	e, err := o.open(key, cfg)
	if err != nil {
		return nil, nil, err
	}
	gen, err := load(o, e, txName)
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	return e, gen, nil
}

// run drives e with gen from the given number of closed-loop clients. A
// transaction that fails with anything but core.Abort fails the run.
func (o Options) run(e *core.Engine, gen workload.Generator, clients int) (workload.Result, error) {
	res := workload.Run(e, gen, workload.Options{
		Clients:  clients,
		Duration: o.Duration,
		Warmup:   o.Warmup,
		Seed:     o.Seed,
	})
	if res.Errors > 0 {
		return res, fmt.Errorf("figures: %d transactions failed with an unexpected error", res.Errors)
	}
	return res, nil
}

// measure builds, runs and tears down one configuration of a workload key,
// driven by one closed-loop client per agent.
func (o Options) measure(key string, cfg core.Config) (workload.Result, error) {
	e, gen, err := o.build(key, cfg)
	if err != nil {
		return workload.Result{}, err
	}
	defer e.Close()
	res, err := o.run(e, gen, cfg.Agents)
	if err != nil {
		return res, fmt.Errorf("%s: %w", key, err)
	}
	return res, nil
}

// per1k returns v per thousand transactions of ls.
func per1k(v uint64, ls lockmgr.StatsSnapshot) float64 {
	if ls.Transactions == 0 {
		return 0
	}
	return 1000 * float64(v) / float64(ls.Transactions)
}

// sliOutcomes returns the shares (%) of the SLI inheritances resolved in ls
// that were reclaimed, invalidated and discarded.
func sliOutcomes(ls lockmgr.StatsSnapshot) (reclaimed, invalidated, discarded float64) {
	resolved := float64(ls.SLIReclaimed + ls.SLIInvalidated + ls.SLIDiscarded)
	if resolved == 0 {
		resolved = 1
	}
	return 100 * float64(ls.SLIReclaimed) / resolved,
		100 * float64(ls.SLIInvalidated) / resolved,
		100 * float64(ls.SLIDiscarded) / resolved
}

// lockWaitMsPerXct returns the lock-wait time per completed transaction.
func lockWaitMsPerXct(res workload.Result) float64 {
	n := res.Completed()
	if n == 0 {
		return 0
	}
	return res.Breakdown.Get(profiler.LockWait).Seconds() * 1000 / float64(n)
}

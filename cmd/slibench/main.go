// Command slibench regenerates the evaluation figures of "Improving OLTP
// Scalability using Speculative Lock Inheritance" (VLDB 2009) against the
// slidb storage manager, and can also run individual workloads.
//
// Usage examples:
//
//	slibench -figure 1                     # lock manager contention vs load
//	slibench -figure 11 -scale paper       # SLI speedups at paper-like scale
//	slibench -ablation hot-threshold       # SLI design-choice ablation
//	slibench -ablation sli-elr             # SLI x Early-Lock-Release grid
//	slibench -ablation abort-elr           # ELR for aborts under forced rollbacks
//	slibench -workload tpcb/tpcb -sli -elr -abortrate 0.3  # CLR rollback path
//	slibench -workload ndbb/mix -agents 16 -sli -duration 5s
//	slibench -workload tpcb/tpcb -sli -elr -async     # scalable commit pipeline
//	slibench -workload tpcb/tpcb -datadir /tmp/slidb  # durable run (real fsyncs)
//	slibench -ablation log-tail -datadir /tmp/slidb   # fixed vs adaptive group commit
//	slibench -workload tpcb/tpcb -datadir /tmp/slidb -adaptivegc -prealloc  # self-tuning log tail
//	slibench -recover /tmp/slidb/tpcb_tpcb-1234       # replay a data directory
//	slibench -benchout BENCH_quick.json    # baseline vs SLI vs SLI+ELR, JSON artifact
//	slibench -list                         # show available workloads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"slidb/internal/core"
	"slidb/internal/figures"
	"slidb/internal/profiler"
	"slidb/internal/record"
)

func main() {
	var (
		figureN     = flag.Int("figure", 0, "paper figure to regenerate (1, 6, 7, 8, 9, 10, 11); 0 = none")
		ablation    = flag.String("ablation", "", "ablation study to run (hot-threshold, levels, bimodal, roving-hotspot, sli-elr, log-tail, abort-elr)")
		wl          = flag.String("workload", "", "single workload to run, e.g. ndbb/mix, tpcb/tpcb, tpcc/Payment")
		scale       = flag.String("scale", "quick", "dataset/measurement scale: quick, default, or paper")
		agents      = flag.Int("agents", 0, "agent (worker) count for -workload runs; 0 = scale default")
		clients     = flag.Int("clients", 0, "closed-loop client goroutines; 0 = one per agent (use > agents to exercise -async pipelining)")
		sli         = flag.Bool("sli", false, "enable Speculative Lock Inheritance for -workload runs")
		elr         = flag.Bool("elr", false, "enable Early Lock Release on both the commit and abort paths (locks released at outcome-record append, not after the fsync)")
		elrAborts   = flag.Bool("elraborts", false, "enable Early Lock Release on the abort path only (see -elr; the two knobs are independent in core.Config)")
		async       = flag.Bool("async", false, "enable flush pipelining (agents run ahead of the log force, bounded by the pipeline depth)")
		abortRate   = flag.Float64("abortrate", 0, "fraction of transactions forced to abort after doing their work (exercises the CLR rollback path; used by -workload and as the -ablation abort-elr rate)")
		adaptiveGC  = flag.Bool("adaptivegc", false, "replace the fixed group-commit window with the self-tuning controller (bounds set by -gcmin/-gcmax)")
		gcMin       = flag.Duration("gcmin", 0, "lower bound for the adaptive group-commit window; 0 = engine default")
		gcMax       = flag.Duration("gcmax", 0, "upper bound for the adaptive group-commit window; 0 = engine default")
		prealloc    = flag.Bool("prealloc", false, "preallocate durable WAL segments at creation (fallocate, falling back to truncate); only meaningful with -datadir")
		gcWindow    = flag.Duration("gcwindow", 0, "group-commit window for -workload/-benchout engines")
		flushDelay  = flag.Duration("flushdelay", 0, "simulated log-force latency for -workload/-benchout engines")
		duration    = flag.Duration("duration", 0, "override measurement duration")
		warmup      = flag.Duration("warmup", 0, "override warmup duration")
		list        = flag.Bool("list", false, "list available workloads, figures and ablations")
		all         = flag.Bool("all-figures", false, "regenerate every figure")
		subset      = flag.String("workloads", "", "comma-separated workload keys to restrict per-workload figures to")
		datadir     = flag.String("datadir", "", "root directory for durable engines: runs open disk-backed engines (real WAL fsyncs) in per-run subdirectories")
		recoverDir  = flag.String("recover", "", "open the given data directory, report crash-recovery statistics and recovered row counts, checkpoint, and exit")
		benchout    = flag.String("benchout", "", "run TPC-B and TM-1 under baseline / SLI / SLI+ELR and write the results to the given JSON file")
		metricsAddr = flag.String("metricsaddr", "", "serve /metrics (Prometheus) and /debug/slowtx for the engine currently under measurement on this address, e.g. :9100")
	)
	flag.Parse()

	if *recoverDir != "" {
		runRecover(*recoverDir)
		return
	}

	if *list {
		fmt.Println("workloads:")
		for _, w := range figures.AllWorkloads() {
			fmt.Println("  " + w)
		}
		fmt.Println("figures: 1 6 7 8 9 10 11")
		fmt.Println("ablations: " + strings.Join(figures.Ablations(), " "))
		return
	}

	opt := optionsForScale(*scale)
	if *duration > 0 {
		opt.Duration = *duration
	}
	if *warmup > 0 {
		opt.Warmup = *warmup
	}
	if *subset != "" {
		for _, w := range strings.Split(*subset, ",") {
			if w = strings.TrimSpace(w); w != "" {
				opt.Workloads = append(opt.Workloads, w)
			}
		}
	}
	if *datadir != "" {
		exitOn(os.MkdirAll(*datadir, 0o755))
		opt.DataDir = *datadir
	}
	opt.EarlyLockRelease = *elr
	opt.EarlyLockReleaseAborts = *elr || *elrAborts
	opt.AsyncCommit = *async
	opt.GroupCommitWindow = *gcWindow
	opt.AdaptiveGroupCommit = *adaptiveGC
	opt.GroupCommitMin = *gcMin
	opt.GroupCommitMax = *gcMax
	opt.PreallocateSegments = *prealloc
	opt.LogFlushDelay = *flushDelay
	opt.Clients = *clients
	opt.AbortRate = *abortRate
	if *metricsAddr != "" {
		opt.OnEngine = startMetricsServer(*metricsAddr)
	}

	switch {
	case *benchout != "":
		runBench(opt, *agents, *benchout)
	case *all:
		for _, n := range []int{1, 6, 7, 8, 9, 10, 11} {
			emitFigure(n, opt)
		}
	case *figureN != 0:
		emitFigure(*figureN, opt)
	case *ablation != "":
		tbl, err := figures.Ablation(*ablation, opt)
		exitOn(err)
		fmt.Println(tbl)
	case *wl != "":
		runSingle(*wl, opt, *agents, *sli)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// startMetricsServer serves the observability surface of whichever engine
// the harness is currently measuring. Figure sweeps build and discard many
// engines, so the returned figures.OnEngine hook retargets the handler
// atomically each time a new engine comes up; scrapes that land between
// engines get a 503 rather than stale data.
func startMetricsServer(addr string) func(*core.Engine) {
	var cur atomic.Pointer[http.Handler]
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		h := cur.Load()
		if h == nil {
			http.Error(w, "no engine under measurement yet", http.StatusServiceUnavailable)
			return
		}
		(*h).ServeHTTP(w, r)
	})
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(os.Stderr, "slibench: metrics server:", err)
		}
	}()
	return func(e *core.Engine) {
		h := e.ObsHandler()
		cur.Store(&h)
	}
}

func optionsForScale(scale string) figures.Options {
	switch scale {
	case "paper":
		return figures.PaperOptions()
	case "default":
		return figures.DefaultOptions()
	case "quick":
		return figures.DefaultOptions().Quick()
	default:
		fmt.Fprintf(os.Stderr, "unknown -scale %q (use quick, default, or paper)\n", scale)
		os.Exit(2)
		return figures.Options{}
	}
}

func emitFigure(n int, opt figures.Options) {
	start := time.Now()
	tbl, err := figures.Figure(n, opt)
	exitOn(err)
	fmt.Println(tbl)
	fmt.Printf("(generated in %v)\n\n", time.Since(start).Round(time.Millisecond))
}

func runSingle(wl string, opt figures.Options, agents int, sli bool) {
	res, es, err := figures.RunWorkload(wl, opt, sli, agents)
	exitOn(err)
	s := res.Breakdown.GroupedShares()
	ls := res.LockStats
	fmt.Printf("%s  (sli=%v elr=%v elraborts=%v async=%v adaptivegc=%v prealloc=%v abortrate=%.2f)\n",
		wl, sli, opt.EarlyLockRelease, opt.EarlyLockReleaseAborts, opt.AsyncCommit,
		opt.AdaptiveGroupCommit, opt.PreallocateSegments, opt.AbortRate)
	fmt.Printf("  throughput        %.1f tps (%d committed, %d failed, %d errors)\n",
		res.Throughput, res.Committed, res.Failed, res.Errors)
	fmt.Printf("  avg latency       %v\n", res.AvgLatency.Round(time.Microsecond))
	fmt.Printf("  breakdown         %v\n", s)
	fmt.Printf("  log waits         reserve %v, buffer-full %v (totals)\n",
		res.Breakdown.Get(profiler.LogReserveWait).Round(time.Microsecond),
		res.Breakdown.Get(profiler.LogBufferFullWait).Round(time.Microsecond))
	fmt.Printf("  sli passed        %d (reclaimed %d, invalidated %d, discarded %d)\n",
		ls.SLIPassed, ls.SLIReclaimed, ls.SLIInvalidated, ls.SLIDiscarded)
	fmt.Printf("  elr releases      %d commits, %d aborts\n", ls.ELRReleases, es.ELRAborts)
	fmt.Printf("  abort path        undo %v, clr-append %v (totals; %d undo failures)\n",
		res.Breakdown.Get(profiler.UndoWork).Round(time.Microsecond),
		res.Breakdown.Get(profiler.AbortLogWork).Round(time.Microsecond),
		es.UndoFailures)
	fmt.Printf("  durable lag       %d bytes (at measurement end)\n", es.DurableLag)
	fmt.Printf("  log tail          %d flush cycles, %.2f writes/cycle, avg window %v, fence wait %v\n",
		es.FlushCycles, es.WritesPerCycle(), es.AvgWindow.Round(time.Microsecond), es.FenceWait.Round(time.Microsecond))
	fmt.Printf("  gc window         %v final (adaptive=%v)\n", es.FinalWindow.Round(time.Microsecond), opt.AdaptiveGroupCommit)
}

// benchConfig is one configuration of the -benchout comparison sweep.
type benchConfig struct {
	Name  string
	SLI   bool
	ELR   bool
	Async bool
}

// benchEntry is one row of the emitted BENCH_*.json artifact, tracking the
// perf trajectory of the commit pipeline across PRs.
type benchEntry struct {
	Workload      string  `json:"workload"`
	Config        string  `json:"config"`
	Agents        int     `json:"agents"`
	TPS           float64 `json:"tps"`
	AvgLatencyUs  float64 `json:"avg_latency_us"`
	LogFlushShare float64 `json:"log_flush_share"`
	LockWaitMs    float64 `json:"lock_wait_ms_total"`
	ReserveWaitMs float64 `json:"log_reserve_wait_ms_total"`
	SLIPassed     uint64  `json:"sli_passed"`
	ELRReleases   uint64  `json:"elr_releases"`
	// DurableLag is in bytes of unforced log (byte-offset LSNs).
	DurableLag uint64 `json:"durable_lag"`
	// ELRAborts counts rollbacks that released their locks at abort-record
	// append (the EarlyLockReleaseAborts path); UndoFailures counts undo
	// actions that failed during rollback and should always be zero.
	ELRAborts    uint64 `json:"elr_aborts"`
	UndoFailures uint64 `json:"undo_failures"`
	Errors       uint64 `json:"errors"`
	// Log-tail efficiency: flusher cycles over the run, physical sink writes
	// per cycle (~1 on the vectored durable path, 0 in-memory), the mean
	// group-commit window actually waited, and cumulative publish-fence wait.
	FlushCycles    uint64  `json:"flush_cycles"`
	WritesPerCycle float64 `json:"writes_per_cycle"`
	AvgWindowUs    float64 `json:"avg_window_us"`
	FenceWaitUs    float64 `json:"fence_wait_us"`
}

// runBench sweeps TPC-B and the TM-1 (NDBB) mix across the baseline, SLI,
// and SLI+ELR configurations with a non-zero log-force latency, prints the
// comparison, and writes the rows as a JSON artifact for CI to archive.
func runBench(opt figures.Options, agents int, outPath string) {
	if agents <= 0 {
		agents = opt.PeakAgents
	}
	// The commit pipeline only matters when forcing the log costs something;
	// default to a realistic latency unless the caller chose one.
	if opt.LogFlushDelay == 0 {
		opt.LogFlushDelay = 500 * time.Microsecond
	}
	if opt.GroupCommitWindow == 0 {
		opt.GroupCommitWindow = 100 * time.Microsecond
	}
	if opt.Clients == 0 {
		// Overcommit clients relative to agents so the sli+elr config can
		// fill the AsyncCommit pipeline (a blocked client per agent keeps
		// the in-flight window at one).
		opt.Clients = 4 * agents
	}
	configs := []benchConfig{
		{Name: "baseline"},
		{Name: "sli", SLI: true},
		{Name: "sli+elr", SLI: true, ELR: true, Async: true},
	}
	var entries []benchEntry
	fmt.Printf("%-12s %-10s %12s %14s %12s %12s\n", "workload", "config", "tps", "avg-lat-us", "log-flush-%", "durable-lag")
	for _, wl := range []string{figures.WLTPCB, figures.WLNDBBMix} {
		for _, c := range configs {
			o := opt
			o.EarlyLockRelease = c.ELR
			o.EarlyLockReleaseAborts = c.ELR
			o.AsyncCommit = c.Async
			res, es, err := figures.RunWorkload(wl, o, c.SLI, agents)
			exitOn(err)
			e := benchEntry{
				Workload:      wl,
				Config:        c.Name,
				Agents:        agents,
				TPS:           res.Throughput,
				AvgLatencyUs:  float64(res.AvgLatency.Microseconds()),
				LogFlushShare: res.Breakdown.GroupedShares().LogFlush,
				LockWaitMs:    res.Breakdown.Get(profiler.LockWait).Seconds() * 1000,
				ReserveWaitMs: res.Breakdown.Get(profiler.LogReserveWait).Seconds() * 1000,
				SLIPassed:     res.LockStats.SLIPassed,
				ELRReleases:   res.LockStats.ELRReleases,
				DurableLag:    es.DurableLag,
				ELRAborts:     es.ELRAborts,
				UndoFailures:  es.UndoFailures,
				Errors:        res.Errors,

				FlushCycles:    es.FlushCycles,
				WritesPerCycle: es.WritesPerCycle(),
				AvgWindowUs:    float64(es.AvgWindow.Nanoseconds()) / 1e3,
				FenceWaitUs:    float64(es.FenceWait.Nanoseconds()) / 1e3,
			}
			entries = append(entries, e)
			fmt.Printf("%-12s %-10s %12.1f %14.0f %12.1f %12d\n",
				e.Workload, e.Config, e.TPS, e.AvgLatencyUs, 100*e.LogFlushShare, e.DurableLag)
		}
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	exitOn(err)
	exitOn(os.WriteFile(outPath, append(data, '\n'), 0o644))
	fmt.Printf("\nwrote %d results to %s\n", len(entries), outPath)
}

// runRecover opens a data directory left behind by a durable run (cleanly
// closed or crashed), prints what restart had to replay and what survived,
// writes a fresh checkpoint so the next open is cheap, and exits.
func runRecover(dir string) {
	start := time.Now()
	e, err := core.OpenAt(dir, core.Config{})
	exitOn(err)
	defer e.Close()
	st := e.RecoveryStats()
	fmt.Printf("recovered %s in %v\n", dir, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  checkpoint LSN    %d\n", st.CheckpointLSN)
	fmt.Printf("  tables restored   %d (%d rows)\n", st.TablesRestored, st.RowsRestored)
	fmt.Printf("  log tail scanned  %d records\n", st.LogRecordsScanned)
	fmt.Printf("  winners / losers  %d / %d (%d rollbacks fully logged)\n",
		st.Winners, st.Losers, st.RollbacksComplete)
	fmt.Printf("  records redone    %d (+%d CLRs, %d DDL)\n",
		st.RecordsRedone, st.CLRsRedone, st.DDLReplayed)
	fmt.Printf("  records undone    %d (%d tx rolled back, %d rollbacks resumed)\n",
		st.RecordsUndone, st.TxUndone, st.RollbacksResumed)
	fmt.Println("tables:")
	for _, tbl := range e.Catalog().Tables() {
		rows := 0
		err := e.Exec(func(tx *core.Tx) error {
			return tx.ScanTable(tbl.Name, func(record.Row) bool { rows++; return true })
		})
		exitOn(err)
		fmt.Printf("  %-24s %d rows\n", tbl.Name, rows)
	}
	exitOn(e.Checkpoint())
	fmt.Println("checkpointed; log truncated")
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "slibench:", err)
		os.Exit(1)
	}
}

// Command slibench regenerates the evaluation figures of "Improving OLTP
// Scalability using Speculative Lock Inheritance" (VLDB 2009) and its design
// ablations against the slidb storage manager, and replays the data
// directories durable runs leave behind.
//
// Usage examples:
//
//	slibench -figure 1                     # lock manager contention vs load
//	slibench -figure 11 -scale paper       # SLI speedups at paper-like scale
//	slibench -all-figures -scale quick     # every figure, smoke scale
//	slibench -ablation hot-threshold       # SLI design-choice ablation
//	slibench -ablation sli-elr             # SLI x Early-Lock-Release grid
//	slibench -ablation abort-elr           # ELR for aborts under forced rollbacks
//	slibench -ablation sli-elr -datadir /tmp/slidb     # durable engines (real fsyncs)
//	slibench -recover /tmp/slidb/tpcb_tpcb-1234        # replay a data directory
//	slibench -list                         # show available workloads
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"slidb/internal/core"
	"slidb/internal/figures"
	"slidb/internal/record"
)

func main() {
	var (
		figureN    = flag.Int("figure", 0, "paper figure to regenerate (1, 6, 7, 8, 9, 10, 11); 0 = none")
		ablation   = flag.String("ablation", "", "ablation study to run (hot-threshold, levels, bimodal, roving-hotspot, sli-elr, abort-elr)")
		scale      = flag.String("scale", "quick", "dataset/measurement scale: quick, default, or paper")
		duration   = flag.Duration("duration", 0, "override measurement duration")
		warmup     = flag.Duration("warmup", 0, "override warmup duration")
		list       = flag.Bool("list", false, "list available workloads, figures and ablations")
		all        = flag.Bool("all-figures", false, "regenerate every figure")
		subset     = flag.String("workloads", "", "comma-separated workload keys to restrict per-workload figures to")
		datadir    = flag.String("datadir", "", "root directory for durable engines: runs open disk-backed engines (real WAL fsyncs) in per-run subdirectories")
		recoverDir = flag.String("recover", "", "open the given data directory, report crash-recovery statistics and recovered row counts, checkpoint, and exit")
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

	switch {
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
	default:
		flag.Usage()
		os.Exit(2)
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
	for _, name := range e.Tables() {
		rows := 0
		err := e.Exec(func(tx *core.Tx) error {
			return tx.ScanTable(name, func(record.Row) bool { rows++; return true })
		})
		exitOn(err)
		fmt.Printf("  %-24s %d rows\n", name, rows)
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

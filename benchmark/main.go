// Command benchmark is slidb's measuring stick: four OLTP workloads driven
// through the public API in a closed loop, reported as end-to-end metrics
// (untraced run) and per-layer metrics (traced run plus single-layer probes),
// with the outputs checked. See README.md in this directory.
//
//	benchmark -workload tpcb_durable -seed 1 -seconds 10 -trace 0
//	benchmark -seed 1 -out seed1.json
//	benchmark -compare seed1.json seed2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds and the default of -seconds: 2 s
// of warm-up, then five timed intervals of 2 s. It is not longer because the
// write workloads must not outgrow the engine's 4096-frame buffer pool inside
// one run (see "Engine issue" in README.md), and they do from about 15 s.
const runSeconds = 10

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	dataDir  string
	ramDir   string
	out      string
	traceOut string

	toy bool // the package's own tests: toy datasets, short restart phase, small probes
}

// sizing is everything that differs between the measured configuration and
// the package's smoke test of it.
type sizing struct {
	sc          scale
	restartTxns int
	spanCap     int
	probes      probeScale
}

func (o *options) sizing(w *workload) sizing {
	if o.toy {
		return sizing{sc: toyScale, restartTxns: 500, spanCap: 1 << 16, probes: 0.01}
	}
	return sizing{sc: fullScale, restartTxns: w.restartTxns, spanCap: spansPerClient, probes: 1}
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: tm1_read, tpcb_ramlog, tpcb_durable or tpcc_mix (default: each in turn)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the input generator")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured seconds: five timed intervals of a fifth each")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and probes, per-layer metrics")
	compare := flag.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the tables in this program define it")
	flag.StringVar(&o.dataDir, "datadir", "", "parent of the durable data directories (default .bench_data beside BENCHMARK.json)")
	flag.StringVar(&o.ramDir, "ramdir", "", "parent of the tpcb_ramlog/tpcc_mix data directories; point it at a tmpfs for the paper's set-up (default: -datadir)")
	flag.StringVar(&o.out, "out", "", "write the full report (quartiles, samples, header) here as JSON")
	flag.StringVar(&o.traceOut, "traceout", "", "write the traced run's spans here as JSON lines (with one -workload)")
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *manifest:
		_, err = os.Stdout.Write(manifestJSON())
	default:
		err = run(&o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// findRoot is the checkout root: the nearest directory at or above the
// working directory that holds BENCHMARK.json.
func findRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two report files")
	}
	a, err := readReport(args[0])
	if err != nil {
		return err
	}
	b, err := readReport(args[1])
	if err != nil {
		return err
	}
	if n := printComparison(os.Stdout, args[0], args[1], compareReports(a, b)); n > 0 {
		return fmt.Errorf("%d metrics regressed", n)
	}
	return nil
}

// run measures the chosen workload, or each of the four in turn, in the
// chosen trace mode. Every run ends with the driver's result line, so with one
// -workload that line is the last of standard output.
func run(o *options) error {
	chosen := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown -workload %q", o.workload)
		}
		chosen = []*workload{w}
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if o.traceOut != "" && len(chosen) > 1 {
		return fmt.Errorf("-traceout holds one workload's spans: name it with -workload")
	}
	root := findRoot()
	if o.dataDir == "" {
		o.dataDir = filepath.Join(root, ".bench_data")
	}
	if o.ramDir == "" {
		o.ramDir = o.dataDir
	}
	for _, d := range []string{o.dataDir, o.ramDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
		defer os.Remove(d) // only if this run leaves it empty
	}
	rep := &report{Env: envHeader(root, o.dataDir, o.ramDir, o.seed)}
	if fsName(o.ramDir) != "tmpfs" {
		fmt.Fprintf(os.Stderr, "benchmark: warning: -ramdir %s is %s, not tmpfs: tpcb_ramlog and tpcc_mix pay a real fsync per commit (env.ramlog_tmpfs=0)\n", o.ramDir, fsName(o.ramDir))
	}
	printEnv(rep.Env)

	correct := true
	for _, w := range chosen {
		measure := runUntraced
		if o.trace != 0 {
			measure = runTraced
		}
		r, err := measure(o, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		r.print(os.Stdout)
		line, err := r.contract()
		if err != nil {
			return err
		}
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println("# claim=null")
		fmt.Println(string(data))
		rep.Runs = append(rep.Runs, *r)
		correct = correct && r.Correct
	}
	if o.out != "" {
		if err := writeReport(o.out, rep); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("checks failed")
	}
	return nil
}

func printEnv(env map[string]any) {
	for _, k := range []string{"env.nproc", "env.gomaxprocs", "env.go_version", "env.datadir_fs", "env.ramlog_tmpfs", "git_commit", "seed"} {
		fmt.Printf("# %s=%v\n", k, env[k])
	}
}

func (o *options) dirFor(w *workload) string {
	if w.ramlog {
		return o.ramDir
	}
	return o.dataDir
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmup is a fifth of the measured time, at most 3 s.
func warmup(s float64) time.Duration { return seconds(min(3, s/5)) }

// Spans are 32 bytes; 4 Mi per client bounds the traced run at 256 MiB.
const spansPerClient = 4 << 20

// runUntraced is the end-to-end run: the workload's set-ups, warm-up, five
// timed intervals with spans and the profiler off, the checks, the restart
// phase.
func runUntraced(o *options, w *workload) (*runReport, error) {
	sz := o.sizing(w)
	out, err := execute(&plan{
		w: w, sc: sz.sc, seed: o.seed, dir: o.dirFor(w),
		setups: w.setups, warmup: warmup(o.seconds), intervals: 5, interval: seconds(o.seconds / 5),
		restartTxns: sz.restartTxns, restarts: 3,
	})
	if err != nil {
		return nil, err
	}
	return &runReport{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds,
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Violations: out.violations,
		Samples: out.samples, Metrics: endToEndMetrics(out),
	}, nil
}

// runTraced is the per-layer run. -seconds is split between an untraced
// window (the base of trace.overhead_frac and of the allocation counters) and
// a traced one on a fresh engine with Profile on and spans recorded; the
// probes run after both.
func runTraced(o *options, w *workload) (*runReport, error) {
	sz := o.sizing(w)
	// The traced run reports no latency percentile of its own, so it can
	// spend less of its time warming up than the end-to-end run does.
	warm := warmup(o.seconds) / 2
	u, err := execute(&plan{
		w: w, sc: sz.sc, seed: o.seed, dir: o.dirFor(w),
		setups: 1, warmup: warm, intervals: 1, interval: seconds(0.4 * o.seconds),
	})
	if err != nil {
		return nil, err
	}
	t, err := execute(&plan{
		w: w, sc: sz.sc, seed: o.seed, dir: o.dirFor(w), traced: true,
		setups: 1, warmup: warm, intervals: 1, interval: seconds(0.6 * o.seconds),
		restartTxns: sz.restartTxns, restarts: 1, analyze: probeRepeats,
		spanCap: sz.spanCap, traceOut: o.traceOut,
	})
	if err != nil {
		return nil, err
	}
	probeDir, err := os.MkdirTemp(o.dataDir, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(probeDir)
	probes, err := runProbes(probeDir, sz.probes)
	if err != nil {
		return nil, err
	}
	failed := u.failed + t.failed
	return &runReport{
		Workload: w.name, Traced: true, Seed: o.seed, Seconds: o.seconds,
		Correct: failed == 0, Attempted: u.attempted + t.attempted, Failed: failed,
		Violations: append(u.violations, t.violations...),
		Metrics:    layerMetrics(u, t, probes, fsName(o.ramDir) == "tmpfs"),
	}, nil
}

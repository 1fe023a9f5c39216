// Command benchdiff compares two BENCH_*.json artifacts produced by
// slibench -benchout and reports per-configuration throughput deltas, so CI
// can annotate each run with its drift against the previous run's artifact.
//
// Usage:
//
//	benchdiff [-threshold 10] OLD.json NEW.json
//	benchdiff OLD.json NEW.json -threshold 10   // flags after paths also work
//
// Rows are matched by (workload, config, agents). A throughput drop larger
// than the threshold (percent) is flagged as a regression with a GitHub
// Actions ::warning:: annotation; everything else is informational. A
// missing or unreadable OLD file is not an error — the first run of a
// repository has no previous artifact — benchdiff just says so and exits 0.
// The exit status is always 0: benchmark noise on shared CI runners must not
// fail the build, only annotate it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// entry mirrors the fields of slibench's benchEntry that benchdiff compares.
// Decoding ignores any extra fields, so the two tools can evolve their
// schemas independently.
type entry struct {
	Workload      string  `json:"workload"`
	Config        string  `json:"config"`
	Agents        int     `json:"agents"`
	TPS           float64 `json:"tps"`
	AvgLatencyUs  float64 `json:"avg_latency_us"`
	ReserveWaitMs float64 `json:"log_reserve_wait_ms_total"`
	ELRAborts     uint64  `json:"elr_aborts"`
	UndoFailures  uint64  `json:"undo_failures"`
	// Log-tail efficiency (PR 7): physical sink writes per flusher cycle
	// (~1 on the vectored durable path, 0 for in-memory runs) and
	// cumulative publish-fence wait.
	FlushCycles    uint64  `json:"flush_cycles"`
	WritesPerCycle float64 `json:"writes_per_cycle"`
	FenceWaitUs    float64 `json:"fence_wait_us"`
}

type key struct {
	workload, config string
	agents           int
}

func main() {
	threshold := flag.Float64("threshold", 10, "regression threshold in percent of tps")
	// The flag package stops at the first positional argument; accept flags
	// anywhere (before, between, after the two paths) by re-parsing after
	// each positional. A malformed flag still exits 2 via ExitOnError.
	var paths []string
	rest := os.Args[1:]
	for {
		if err := flag.CommandLine.Parse(rest); err != nil {
			os.Exit(2)
		}
		remaining := flag.CommandLine.Args()
		if len(remaining) == 0 {
			break
		}
		paths = append(paths, remaining[0])
		rest = remaining[1:]
	}
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold pct] OLD.json NEW.json")
		os.Exit(2)
	}
	oldPath, newPath := paths[0], paths[1]

	oldEntries, err := load(oldPath)
	if err != nil {
		fmt.Printf("::notice::benchdiff: no previous benchmark artifact (%v); nothing to compare\n", err)
		return
	}
	newEntries, err := load(newPath)
	if err != nil {
		fmt.Printf("::warning::benchdiff: cannot read current benchmark artifact: %v\n", err)
		return
	}

	prev := make(map[key]entry, len(oldEntries))
	for _, e := range oldEntries {
		prev[key{e.Workload, e.Config, e.Agents}] = e
	}

	regressions := 0
	// The reserve-wait columns track the fetch-and-add reservation win (the
	// log-lsn refactor) across runs, the abort-path columns track ELR-for-
	// aborts coverage, and the writes-per-cycle columns track the log
	// tail's flush efficiency (the vectored-write work); all are
	// informational, never a gate — except that a non-zero undo-failure
	// count is a correctness alarm, and a substantial writes-per-cycle
	// increase means the vectored flush path stopped batching; both get
	// warning annotations of their own.
	fmt.Printf("%-12s %-10s %7s %12s %12s %9s %12s %12s %9s %9s %10s\n",
		"workload", "config", "agents", "tps-prev", "tps-now", "delta-%", "rsv-ms-prev", "rsv-ms-now",
		"w/c-prev", "w/c-now", "undo-fail")
	for _, e := range newEntries {
		old, ok := prev[key{e.Workload, e.Config, e.Agents}]
		if !ok || old.TPS <= 0 {
			fmt.Printf("%-12s %-10s %7d %12s %12.1f %9s %12s %12.2f %9s %9.2f %10d\n",
				e.Workload, e.Config, e.Agents, "-", e.TPS, "new", "-", e.ReserveWaitMs,
				"-", e.WritesPerCycle, e.UndoFailures)
		} else {
			delta := 100 * (e.TPS - old.TPS) / old.TPS
			// A pre-PR-7 baseline artifact has no log-tail fields at all:
			// flush_cycles/writes_per_cycle decode as zero. Zero cycles means
			// "not measured", not "measured zero" — print n/a and skip the
			// fragmentation comparison rather than reporting 0.00 or a
			// division blowing up to +Inf%.
			wcPrev := "n/a"
			if old.FlushCycles > 0 {
				wcPrev = fmt.Sprintf("%.2f", old.WritesPerCycle)
			}
			fmt.Printf("%-12s %-10s %7d %12.1f %12.1f %+8.1f%% %12.2f %12.2f %9s %9.2f %10d\n",
				e.Workload, e.Config, e.Agents, old.TPS, e.TPS, delta, old.ReserveWaitMs, e.ReserveWaitMs,
				wcPrev, e.WritesPerCycle, e.UndoFailures)
			if delta < -*threshold {
				regressions++
				fmt.Printf("::warning::benchdiff: %s/%s (agents=%d) tps regressed %.1f%% (%.1f -> %.1f)\n",
					e.Workload, e.Config, e.Agents, -delta, old.TPS, e.TPS)
			}
			// Writes per flush cycle is an efficiency invariant, not noise:
			// the vectored path lands a whole cycle in one submission, so a
			// >10% climb means flushes fragmented into extra syscalls.
			if old.FlushCycles > 0 && old.WritesPerCycle > 0 && e.WritesPerCycle > 1.1*old.WritesPerCycle {
				fmt.Printf("::warning::benchdiff: %s/%s (agents=%d) writes/cycle regressed %.2f -> %.2f — vectored flush path is fragmenting\n",
					e.Workload, e.Config, e.Agents, old.WritesPerCycle, e.WritesPerCycle)
			}
		}
		if e.UndoFailures > 0 {
			fmt.Printf("::warning::benchdiff: %s/%s (agents=%d) reported %d undo failures — rollback bug, investigate\n",
				e.Workload, e.Config, e.Agents, e.UndoFailures)
		}
	}
	if regressions == 0 {
		fmt.Printf("::notice::benchdiff: no tps regression beyond %.0f%% against the previous run\n", *threshold)
	}
}

func load(path string) ([]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return entries, nil
}

package figures

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"slidb/internal/bench/tm1"
	"slidb/internal/bench/tpcb"
	"slidb/internal/core"
	"slidb/internal/lockmgr"
	"slidb/internal/profiler"
	"slidb/internal/record"
	"slidb/internal/workload"
)

// AblationHotThreshold varies the SLI hot-lock detection threshold
// (§4.2 criterion 2) on the NDBB mix and reports throughput and the share of
// SLI speculations that paid off. Threshold 1.01 effectively disables hot
// detection ("never hot"); 0.01 inherits almost everything touched.
func AblationHotThreshold(o Options) (Table, error) {
	o = o.withDefaults()
	t := Table{
		Title:   "Ablation: SLI hot-lock threshold (NDBB mix)",
		Columns: []string{"threshold", "tps", "passed-per-1k-xct", "reclaimed-%"},
	}
	for _, threshold := range []float64{0.01, 0.1, 0.25, 0.5, 0.9} {
		e, gen, err := buildNDBBWithEngineConfig(o, core.Config{
			SLI:             true,
			SLIHotThreshold: threshold,
			Agents:          o.PeakAgents,
			Profile:         true,
			BufferFrames:    o.BufferFrames,
		})
		if err != nil {
			return t, err
		}
		res := o.run(e, gen, o.PeakAgents)
		e.Close()
		ls := res.LockStats
		resolved := float64(ls.SLIReclaimed + ls.SLIInvalidated + ls.SLIDiscarded)
		if resolved == 0 {
			resolved = 1
		}
		perK := 0.0
		if ls.Transactions > 0 {
			perK = 1000 * float64(ls.SLIPassed) / float64(ls.Transactions)
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("%.2f", threshold),
			Values: []float64{threshold, res.Throughput, perK, 100 * float64(ls.SLIReclaimed) / resolved},
		})
	}
	return t, nil
}

// AblationEligibleLevels compares inheriting only table-and-above locks with
// the paper's page-and-above rule (§4.2 criterion 1), on the NDBB mix.
func AblationEligibleLevels(o Options) (Table, error) {
	o = o.withDefaults()
	t := Table{
		Title:   "Ablation: SLI minimum eligible lock level (NDBB mix)",
		Columns: []string{"tps", "passed-per-1k-xct"},
	}
	levels := []struct {
		name  string
		level lockmgr.Level
	}{
		{"table-and-above", lockmgr.LevelTable},
		{"page-and-above (paper)", lockmgr.LevelPage},
	}
	for _, lv := range levels {
		e, gen, err := buildNDBBWithEngineConfig(o, core.Config{
			SLI:          true,
			SLIMinLevel:  lv.level,
			Agents:       o.PeakAgents,
			Profile:      true,
			BufferFrames: o.BufferFrames,
		})
		if err != nil {
			return t, err
		}
		res := o.run(e, gen, o.PeakAgents)
		e.Close()
		perK := 0.0
		if res.LockStats.Transactions > 0 {
			perK = 1000 * float64(res.LockStats.SLIPassed) / float64(res.LockStats.Transactions)
		}
		t.Rows = append(t.Rows, Row{Label: lv.name, Values: []float64{res.Throughput, perK}})
	}
	return t, nil
}

// AblationBimodal reproduces the §4.4 "bimodal workload" discussion: two
// transaction groups touching disjoint tables, with transactions either
// assigned to agents at random (the paper's "do nothing" option 3) or run on
// a system with twice the agents so each group effectively has its own
// agents (approximating option 1, affinity-based assignment).
func AblationBimodal(o Options) (Table, error) {
	o = o.withDefaults()
	t := Table{
		Title:   "Ablation: bimodal workload (two disjoint transaction groups), §4.4",
		Columns: []string{"tps", "reclaimed-%", "discarded-%"},
	}

	build := func() (*core.Engine, error) {
		e := core.Open(core.Config{SLI: true, Agents: o.PeakAgents, Profile: true, BufferFrames: o.BufferFrames})
		schema := record.MustSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "v", Type: record.TypeInt},
		)
		for _, tbl := range []string{"group_a", "group_b"} {
			if err := e.CreateTable(tbl, schema, []string{"id"}); err != nil {
				e.Close()
				return nil, err
			}
		}
		err := e.Exec(func(tx *core.Tx) error {
			for i := 0; i < 1000; i++ {
				if err := tx.Insert("group_a", record.Row{record.Int(int64(i)), record.Int(0)}); err != nil {
					return err
				}
				if err := tx.Insert("group_b", record.Row{record.Int(int64(i)), record.Int(0)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			e.Close()
			return nil, err
		}
		return e, nil
	}

	read := func(table string) func(rng *rand.Rand) workload.TxFunc {
		return func(rng *rand.Rand) workload.TxFunc {
			id := rng.Int63n(1000)
			return func(tx *core.Tx) error {
				_, _, err := tx.Get(table, record.Int(id))
				return err
			}
		}
	}

	cases := []struct {
		name string
		gen  workload.Generator
	}{
		{"random assignment (paper's choice)", workload.Mix{
			{Name: "a", Weight: 1, Make: read("group_a")},
			{Name: "b", Weight: 1, Make: read("group_b")},
		}},
		{"single-group affinity (upper bound)", workload.Mix{
			{Name: "a", Weight: 1, Make: read("group_a")},
		}},
	}
	for _, c := range cases {
		e, err := build()
		if err != nil {
			return t, err
		}
		res := o.run(e, c.gen, o.PeakAgents)
		e.Close()
		ls := res.LockStats
		resolved := float64(ls.SLIReclaimed + ls.SLIInvalidated + ls.SLIDiscarded)
		if resolved == 0 {
			resolved = 1
		}
		t.Rows = append(t.Rows, Row{Label: c.name, Values: []float64{
			res.Throughput,
			100 * float64(ls.SLIReclaimed) / resolved,
			100 * float64(ls.SLIDiscarded) / resolved,
		}})
	}
	return t, nil
}

// AblationRovingHotspot reproduces the §4.4 "roving hotspot" discussion: an
// append-heavy history table whose hot page keeps moving. SLI's "short
// memory" should keep discarded inheritances bounded while still passing the
// table-level locks.
func AblationRovingHotspot(o Options) (Table, error) {
	o = o.withDefaults()
	t := Table{
		Title:   "Ablation: roving hotspot (append-heavy history table), §4.4",
		Columns: []string{"tps", "passed-per-1k-xct", "invalidated-%", "discarded-%"},
	}
	for _, sli := range []bool{false, true} {
		e := core.Open(core.Config{SLI: sli, Agents: o.PeakAgents, Profile: true, BufferFrames: o.BufferFrames})
		schema := record.MustSchema(
			record.Column{Name: "id", Type: record.TypeInt},
			record.Column{Name: "payload", Type: record.TypeString},
		)
		if err := e.CreateTable("history", schema, []string{"id"}); err != nil {
			e.Close()
			return t, err
		}
		var next atomic.Int64
		gen := workload.Mix{{Name: "append", Weight: 1, Make: func(rng *rand.Rand) workload.TxFunc {
			return func(tx *core.Tx) error {
				id := next.Add(1)*1000 + rng.Int63n(1000)
				return tx.Insert("history", record.Row{record.Int(id), record.String("event payload......")})
			}
		}}}
		res := o.run(e, gen, o.PeakAgents)
		e.Close()
		ls := res.LockStats
		resolved := float64(ls.SLIReclaimed + ls.SLIInvalidated + ls.SLIDiscarded)
		if resolved == 0 {
			resolved = 1
		}
		perK := 0.0
		if ls.Transactions > 0 {
			perK = 1000 * float64(ls.SLIPassed) / float64(ls.Transactions)
		}
		label := "baseline (SLI off)"
		if sli {
			label = "SLI on"
		}
		t.Rows = append(t.Rows, Row{Label: label, Values: []float64{
			res.Throughput, perK,
			100 * float64(ls.SLIInvalidated) / resolved,
			100 * float64(ls.SLIDiscarded) / resolved,
		}})
	}
	return t, nil
}

// AblationSLIELR measures the SLI × Early-Lock-Release grid on TPC-B with a
// non-zero group-commit window and flush delay, so every commit pays a
// realistic log-force latency. SLI removes the lock manager from the
// critical path; ELR (+ flush pipelining) removes the log force from the
// lock hold time. The grid separates the two effects and shows they
// compose: the hot branch-row locks that SLI passes between transactions
// are, under ELR, released at commit-record append instead of after the
// fsync.
func AblationSLIELR(o Options) (Table, error) {
	o = o.withDefaults()
	if o.LogFlushDelay == 0 {
		o.LogFlushDelay = 500 * time.Microsecond
	}
	if o.GroupCommitWindow == 0 {
		o.GroupCommitWindow = 100 * time.Microsecond
	}
	if o.Clients == 0 {
		// Overcommit clients so the SLI+ELR row can actually fill the
		// AsyncCommit pipeline; with one blocking client per agent the
		// in-flight window never exceeds one.
		o.Clients = 4 * o.PeakAgents
	}
	t := Table{
		Title:   "Ablation: SLI x Early Lock Release grid (TPC-B, non-zero log force latency)",
		Columns: []string{"tps", "log-flush-%", "lock-wait-ms/xct", "elr/1k-xct", "sli-passed/1k"},
	}
	grid := []struct {
		name     string
		sli, elr bool
	}{
		{"baseline", false, false},
		{"SLI", true, false},
		{"ELR", false, true},
		{"SLI+ELR", true, true},
	}
	for _, g := range grid {
		e, gen, err := buildTPCBWithEngineConfig(o, core.Config{
			SLI:                    g.sli,
			EarlyLockRelease:       g.elr,
			EarlyLockReleaseAborts: g.elr,
			AsyncCommit:            g.elr,
			Agents:                 o.PeakAgents,
			Profile:                true,
			BufferFrames:           o.BufferFrames,
			GroupCommitWindow:      o.GroupCommitWindow,
			LogFlushDelay:          o.LogFlushDelay,
			// TPC-B is disk-resident in the paper (§5.2); keep the same
			// per-I/O penalty the per-workload figures apply.
			IODelay: o.IODelay,
		})
		if err != nil {
			return t, err
		}
		res := o.run(e, gen, o.PeakAgents)
		e.Close()
		ls := res.LockStats
		perK := func(v uint64) float64 {
			if ls.Transactions == 0 {
				return 0
			}
			return 1000 * float64(v) / float64(ls.Transactions)
		}
		lockWaitMs := 0.0
		if n := res.Completed(); n > 0 {
			lockWaitMs = res.Breakdown.Get(profiler.LockWait).Seconds() * 1000 / float64(n)
		}
		t.Rows = append(t.Rows, Row{Label: g.name, Values: []float64{
			res.Throughput,
			100 * res.Breakdown.GroupedShares().LogFlush,
			lockWaitMs,
			perK(ls.ELRReleases),
			perK(ls.SLIPassed),
		}})
	}
	return t, nil
}

// AblationAbortELR isolates Early Lock Release on the ABORT path: TPC-B
// with a forced conflict-style abort rate (each chosen transaction does its
// full account/branch/history work and then rolls back) and a non-zero log
// force latency. Both arms run the identical commit pipeline — SLI +
// commit-side ELR + AsyncCommit — and differ only in
// Config.EarlyLockReleaseAborts, so the measured difference is purely the
// abort-side release policy (the knob split fixed the previous confound
// where one flag governed both paths). Without abort-side ELR a rollback
// undoes, logs its CLR chain, and then holds every lock across the force of
// its abort record — at a 30% abort rate that flush wait shows up directly
// in lock-wait-ms/xct — while with it every rollback releases at
// abort-record append and the lock-wait column collapses.
func AblationAbortELR(o Options) (Table, error) {
	o = o.withDefaults()
	if o.LogFlushDelay == 0 {
		o.LogFlushDelay = 500 * time.Microsecond
	}
	if o.GroupCommitWindow == 0 {
		o.GroupCommitWindow = 100 * time.Microsecond
	}
	if o.Clients == 0 {
		// Overcommit clients so the ELR arm can fill the AsyncCommit
		// pipeline (see AblationSLIELR).
		o.Clients = 4 * o.PeakAgents
	}
	if o.AbortRate == 0 {
		o.AbortRate = 0.3
	}
	t := Table{
		Title:   fmt.Sprintf("Ablation: ELR for aborts (TPC-B, %.0f%% forced aborts, non-zero log force latency)", 100*o.AbortRate),
		Columns: []string{"tps", "abort-%", "lock-wait-ms/xct", "log-flush-%", "elr-aborts/1k"},
	}
	for _, abortELR := range []bool{false, true} {
		e, gen, err := buildTPCBWithEngineConfig(o, core.Config{
			SLI:                    true,
			EarlyLockRelease:       true,
			EarlyLockReleaseAborts: abortELR,
			AsyncCommit:            true,
			Agents:                 o.PeakAgents,
			Profile:                true,
			BufferFrames:           o.BufferFrames,
			GroupCommitWindow:      o.GroupCommitWindow,
			LogFlushDelay:          o.LogFlushDelay,
			IODelay:                o.IODelay,
		})
		if err != nil {
			return t, err
		}
		gen = workload.WithAbortRate(gen, o.AbortRate)
		res := o.run(e, gen, o.PeakAgents)
		elrAborts, undoFailures := e.ELRAborts(), e.UndoFailures()
		e.Close()
		if undoFailures != 0 {
			return t, fmt.Errorf("figures: abort-elr ablation recorded %d undo failures (abortELR=%v)", undoFailures, abortELR)
		}
		lockWaitMs := 0.0
		if n := res.Completed(); n > 0 {
			lockWaitMs = res.Breakdown.Get(profiler.LockWait).Seconds() * 1000 / float64(n)
		}
		perK := 0.0
		if res.LockStats.Transactions > 0 {
			perK = 1000 * float64(elrAborts) / float64(res.LockStats.Transactions)
		}
		label := "strict aborts (hold until durable)"
		if abortELR {
			label = "ELR aborts (release at append)"
		}
		t.Rows = append(t.Rows, Row{Label: label, Values: []float64{
			res.Throughput,
			100 * res.FailureRate(),
			lockWaitMs,
			100 * res.Breakdown.GroupedShares().LogFlush,
			perK,
		}})
	}
	return t, nil
}

// AblationLogTail measures the self-tuning log tail on TPC-B with the full
// SLI+ELR pipeline: fixed vs adaptive group-commit window, at one agent and
// at the peak agent count. The adaptive controller should match the fixed
// window at a single agent (it shrinks toward GroupCommitMin, so a lone
// committer is not held for a full fixed window) and at peak load (it widens
// only while subscriptions keep arriving); the fence-us/xct column is the
// publish fence's share of the append path. Honors Options.DataDir, where
// the writes/cycle column becomes meaningful: the vectored flush path lands
// a whole cycle in one segment write, so the value should sit near 1.
func AblationLogTail(o Options) (Table, error) {
	o = o.withDefaults()
	if o.LogFlushDelay == 0 {
		o.LogFlushDelay = 500 * time.Microsecond
	}
	if o.GroupCommitWindow == 0 {
		o.GroupCommitWindow = 100 * time.Microsecond
	}
	userClients := o.Clients != 0
	if !userClients {
		// Overcommit clients so the pipeline stays full (see AblationSLIELR).
		o.Clients = 4 * o.PeakAgents
	}
	t := Table{
		Title:   "Ablation: log tail — fixed vs adaptive group commit (TPC-B, SLI+ELR)",
		Columns: []string{"agents", "tps", "avg-window-us", "final-window-us", "writes/cycle", "fence-us/xct"},
	}
	grid := []struct {
		name     string
		adaptive bool
	}{
		{"fixed", false},
		{"adaptive", true},
	}
	for _, agents := range []int{1, o.PeakAgents} {
		for _, g := range grid {
			oo := o
			if agents == 1 && !userClients {
				oo.Clients = 4
			}
			e, gen, err := buildTPCBWithEngineConfig(oo, core.Config{
				SLI:                    true,
				EarlyLockRelease:       true,
				EarlyLockReleaseAborts: true,
				AsyncCommit:            true,
				Agents:                 agents,
				Profile:                true,
				BufferFrames:           oo.BufferFrames,
				GroupCommitWindow:      oo.GroupCommitWindow,
				AdaptiveGroupCommit:    g.adaptive,
				GroupCommitMin:         oo.GroupCommitMin,
				GroupCommitMax:         oo.GroupCommitMax,
				PreallocateSegments:    oo.PreallocateSegments,
				LogFlushDelay:          oo.LogFlushDelay,
				IODelay:                oo.IODelay,
			})
			if err != nil {
				return t, err
			}
			res := oo.run(e, gen, agents)
			lt := e.LogTail()
			e.Close()
			avgWindowUs := 0.0
			if lt.WindowedCycles > 0 {
				avgWindowUs = lt.WindowWaitSeconds / float64(lt.WindowedCycles) * 1e6
			}
			writesPerCycle := 0.0
			if lt.FlushCycles > 0 {
				writesPerCycle = float64(lt.SinkWrites) / float64(lt.FlushCycles)
			}
			fencePerXct := 0.0
			if n := res.Completed(); n > 0 {
				fencePerXct = lt.FenceWaitSeconds * 1e6 / float64(n)
			}
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%s a=%d", g.name, agents),
				Values: []float64{
					float64(agents),
					res.Throughput,
					avgWindowUs,
					lt.CurWindowSeconds * 1e6,
					writesPerCycle,
					fencePerXct,
				},
			})
		}
	}
	return t, nil
}

// buildTPCBWithEngineConfig loads the TPC-B dataset into an engine with a
// custom configuration (used by the commit-pipeline ablations). When
// Options.DataDir is set the engine is disk-backed (real WAL segments and
// fsyncs) in a fresh subdirectory, matching Options.buildEngine.
func buildTPCBWithEngineConfig(o Options, cfg core.Config) (*core.Engine, workload.Generator, error) {
	var e *core.Engine
	if o.DataDir != "" {
		dir, err := os.MkdirTemp(o.DataDir, "ablation-tpcb-*")
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
	bcfg := tpcb.Config{Branches: o.TPCBBranches, AccountsPerBranch: o.TPCBAccountsPerBranch, Seed: o.Seed}
	if err := tpcb.Load(e, bcfg); err != nil {
		e.Close()
		return nil, nil, err
	}
	gen, err := tpcb.NewGenerator(bcfg, tpcb.TxAccountUpdate)
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	return e, gen, nil
}

// buildNDBBWithEngineConfig loads the NDBB dataset into an engine with a
// custom configuration (used by the ablations that vary lock-manager knobs).
func buildNDBBWithEngineConfig(o Options, cfg core.Config) (*core.Engine, workload.Generator, error) {
	e := core.Open(cfg)
	bcfg := tm1.Config{Subscribers: o.TM1Subscribers, Seed: o.Seed}
	if err := tm1.Load(e, bcfg); err != nil {
		e.Close()
		return nil, nil, err
	}
	gen, err := tm1.NewGenerator(bcfg, tm1.MixNDBB)
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	return e, gen, nil
}

// Ablation returns the named ablation table.
func Ablation(name string, o Options) (Table, error) {
	switch name {
	case "hot-threshold":
		return AblationHotThreshold(o)
	case "levels":
		return AblationEligibleLevels(o)
	case "bimodal":
		return AblationBimodal(o)
	case "roving-hotspot":
		return AblationRovingHotspot(o)
	case "sli-elr":
		return AblationSLIELR(o)
	case "log-tail":
		return AblationLogTail(o)
	case "abort-elr":
		return AblationAbortELR(o)
	default:
		return Table{}, fmt.Errorf("figures: unknown ablation %q (use hot-threshold, levels, bimodal, roving-hotspot, sli-elr, log-tail, abort-elr)", name)
	}
}

// Ablations lists the available ablation study names.
func Ablations() []string {
	return []string{"hot-threshold", "levels", "bimodal", "roving-hotspot", "sli-elr", "log-tail", "abort-elr"}
}

// quickOptions shrinks an Options for smoke tests; exported for reuse from
// the repository-level benchmarks.
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

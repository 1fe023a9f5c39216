package figures

import (
	"fmt"

	"slidb/internal/core"
)

// Figure1 reproduces Figure 1: the fraction of transaction CPU time spent in
// the lock manager (useful work vs contention) as offered load grows, for
// the NDBB mix with SLI disabled.
func Figure1(o Options) (Table, error) {
	o = o.withDefaults()
	t := Table{
		Title:   "Figure 1: lock manager overhead and contention vs load (NDBB mix, baseline)",
		Columns: []string{"agents", "tps", "lockmgr-work-%", "lockmgr-contention-%", "other-%"},
	}
	for _, agents := range o.AgentCounts {
		res, err := o.measure(WLNDBBMix, core.Config{Agents: agents})
		if err != nil {
			return t, err
		}
		s := res.Breakdown.GroupedShares()
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%d", agents),
			Values: []float64{
				float64(agents), res.Throughput,
				100 * s.LockMgrWork, 100 * s.LockMgrContention,
				100 * (s.OtherWork + s.OtherContention + s.SLI),
			},
		})
	}
	return t, nil
}

// breakdownFigure implements Figures 6 and 10: per-workload execution-time
// breakdowns at high load, with SLI off (Figure 6) or on (Figure 10).
func breakdownFigure(o Options, sli bool, title string) (Table, error) {
	o = o.withDefaults()
	t := Table{
		Title:   title,
		Columns: []string{"tps", "lockmgr-work-%", "lockmgr-cont-%", "sli-%", "other-work-%", "other-cont-%", "log-flush-%"},
	}
	for _, wl := range o.selectedWorkloads() {
		res, err := o.measure(wl, core.Config{SLI: sli, Agents: o.PeakAgents})
		if err != nil {
			return t, err
		}
		s := res.Breakdown.GroupedShares()
		t.Rows = append(t.Rows, Row{
			Label: wl,
			Values: []float64{
				res.Throughput,
				100 * s.LockMgrWork, 100 * s.LockMgrContention, 100 * s.SLI,
				100 * s.OtherWork, 100 * s.OtherContention, 100 * s.LogFlush,
			},
		})
	}
	return t, nil
}

// Figure6 reproduces Figure 6: baseline work/contention breakdowns at peak
// load for every transaction and mix.
func Figure6(o Options) (Table, error) {
	return breakdownFigure(o, false, "Figure 6: execution time breakdown at peak load (baseline, SLI off)")
}

// Figure10 reproduces Figure 10: the same breakdowns with SLI enabled on a
// fully loaded system.
func Figure10(o Options) (Table, error) {
	return breakdownFigure(o, true, "Figure 10: execution time breakdown under full load with SLI enabled")
}

// Figure7 reproduces Figure 7: throughput as load increases, for the NDBB
// mix, TPC-B and TPC-C Payment (baseline system).
func Figure7(o Options) (Table, error) {
	o = o.withDefaults()
	workloads := []string{WLNDBBMix, WLTPCB, WLPayment}
	t := Table{
		Title:   "Figure 7: throughput vs offered load (baseline, SLI off)",
		Columns: append([]string{"agents"}, workloads...),
	}
	for _, agents := range o.AgentCounts {
		row := Row{Label: fmt.Sprintf("%d", agents), Values: []float64{float64(agents)}}
		for _, wl := range workloads {
			res, err := o.measure(wl, core.Config{Agents: agents})
			if err != nil {
				return t, err
			}
			row.Values = append(row.Values, res.Throughput)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure8 reproduces Figure 8: the breakdown of lock acquisitions by
// SLI-related characteristics (hot/cold × heritable/row/exclusive) and the
// average number of locks acquired per transaction.
func Figure8(o Options) (Table, error) {
	o = o.withDefaults()
	t := Table{
		Title:   "Figure 8: lock acquisition breakdown by SLI-related characteristics (baseline)",
		Columns: []string{"locks-per-xct", "hot-heritable-%", "hot-other-%", "cold-heritable-%", "cold-other-%", "row-locks-%"},
	}
	for _, wl := range o.selectedWorkloads() {
		res, err := o.measure(wl, core.Config{Agents: o.PeakAgents})
		if err != nil {
			return t, err
		}
		ls := res.LockStats
		total := float64(ls.TotalAcquires())
		if total == 0 {
			total = 1
		}
		t.Rows = append(t.Rows, Row{
			Label: wl,
			Values: []float64{
				ls.LocksPerTransaction(),
				100 * float64(ls.HotHeritable) / total,
				100 * float64(ls.HotNonHeritable) / total,
				100 * float64(ls.ColdHeritable) / total,
				100 * float64(ls.ColdOther) / total,
				100 * float64(ls.AcquiresByLevel[3]) / total,
			},
		})
	}
	return t, nil
}

// Figure9 reproduces Figure 9: the outcomes of locks SLI chose to pass
// between transactions — reclaimed (used), invalidated, or discarded unused.
func Figure9(o Options) (Table, error) {
	o = o.withDefaults()
	t := Table{
		Title:   "Figure 9: outcomes of SLI-inherited locks (SLI on)",
		Columns: []string{"passed-per-1k-xct", "reclaimed-%", "invalidated-%", "discarded-%"},
	}
	for _, wl := range o.selectedWorkloads() {
		res, err := o.measure(wl, core.Config{SLI: true, Agents: o.PeakAgents})
		if err != nil {
			return t, err
		}
		ls := res.LockStats
		reclaimed, invalidated, discarded := sliOutcomes(ls)
		t.Rows = append(t.Rows, Row{
			Label:  wl,
			Values: []float64{per1k(ls.SLIPassed, ls), reclaimed, invalidated, discarded},
		})
	}
	return t, nil
}

// Figure11 reproduces Figure 11: throughput of SLI relative to the baseline
// for every workload at peak load (the paper reports 10-40% improvements for
// short transactions and ~0% for the large TPC-C transactions).
func Figure11(o Options) (Table, error) {
	o = o.withDefaults()
	t := Table{
		Title:   "Figure 11: throughput improvement due to SLI at peak load",
		Columns: []string{"baseline-tps", "sli-tps", "speedup-%"},
	}
	for _, wl := range o.selectedWorkloads() {
		base, err := o.measure(wl, core.Config{Agents: o.PeakAgents})
		if err != nil {
			return t, err
		}
		withSLI, err := o.measure(wl, core.Config{SLI: true, Agents: o.PeakAgents})
		if err != nil {
			return t, err
		}
		speedup := 0.0
		if base.Throughput > 0 {
			speedup = 100 * (withSLI.Throughput - base.Throughput) / base.Throughput
		}
		t.Rows = append(t.Rows, Row{
			Label:  wl,
			Values: []float64{base.Throughput, withSLI.Throughput, speedup},
		})
	}
	return t, nil
}

// Figure returns the named figure (1, 6, 7, 8, 9, 10 or 11).
func Figure(n int, o Options) (Table, error) {
	switch n {
	case 1:
		return Figure1(o)
	case 6:
		return Figure6(o)
	case 7:
		return Figure7(o)
	case 8:
		return Figure8(o)
	case 9:
		return Figure9(o)
	case 10:
		return Figure10(o)
	case 11:
		return Figure11(o)
	default:
		return Table{}, fmt.Errorf("figures: the paper has no reproducible figure %d (use 1, 6, 7, 8, 9, 10 or 11)", n)
	}
}

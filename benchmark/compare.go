package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Verdicts of -compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // b is worse than a by more than the metric's bound
	verdictUnresolved = "unresolved" // either side's own inter-quartile spread exceeds the bound
)

type comparison struct {
	Workload, Metric string
	A, B             float64
	Change           float64 // (B-A)/A, positive = B larger
	Bound            string
	Verdict          string
}

// limit is the metric's bound as an amount, for a side whose median is base.
func (d metricDef) limit(base float64) float64 {
	if d.Abs {
		return d.Bound
	}
	return d.Bound * math.Abs(base)
}

func (d metricDef) boundText() string {
	if d.Abs {
		return fmt.Sprintf("+%g", d.Bound)
	}
	return fmt.Sprintf("%g%%", 100*d.Bound)
}

// judge compares one metric of the base run a with the same metric of b.
func judge(d metricDef, a, b stat) (change float64, verdict string) {
	change = ratio(b.Value-a.Value, a.Value)
	worse := b.Value - a.Value
	if d.Better == higher {
		worse = -worse
	}
	switch {
	case a.Q3-a.Q1 > d.limit(a.Value) || b.Q3-b.Q1 > d.limit(b.Value):
		return change, verdictUnresolved
	case worse > d.limit(a.Value):
		return change, verdictRegressed
	default:
		return change, verdictOK
	}
}

func untracedRun(rep *report, workload string) *runReport {
	for i := range rep.Runs {
		if rep.Runs[i].Workload == workload && !rep.Runs[i].Traced {
			return &rep.Runs[i]
		}
	}
	return nil
}

// compareReports judges every workload x end-to-end metric present in both:
// BENCHMARK.json's and the two only this program holds to a bound.
func compareReports(a, b *report) []comparison {
	var out []comparison
	for _, w := range workloads {
		ra, rb := untracedRun(a, w.name), untracedRun(b, w.name)
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range slices.Concat(endToEnd, endToEndLocal) {
			sa, oka := ra.Metrics[d.Name]
			sb, okb := rb.Metrics[d.Name]
			if !oka || !okb {
				continue
			}
			change, verdict := judge(d, sa, sb)
			out = append(out, comparison{w.name, d.Name, sa.Value, sb.Value, change, d.boundText(), verdict})
		}
	}
	return out
}

// printComparison writes one row per workload x metric; every change is
// relative to a's median, which is printed beside it.
func printComparison(w io.Writer, aPath, bPath string, rows []comparison) (regressed int) {
	fmt.Fprintf(w, "base a = %s\nside b = %s\n", aPath, bPath)
	fmt.Fprintf(w, "%-13s %-17s %14s %14s %22s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "change (b-a)/a", "bound", "verdict")
	for _, c := range rows {
		fmt.Fprintf(w, "%-13s %-17s %14.4f %14.4f %+9.2f%% of %-11.6g %7s  %s\n",
			c.Workload, c.Metric, c.A, c.B, 100*c.Change, c.A, c.Bound, c.Verdict)
		if c.Verdict == verdictRegressed {
			regressed++
		}
	}
	return regressed
}

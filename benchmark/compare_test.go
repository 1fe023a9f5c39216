package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdictsOnFixtures(t *testing.T) {
	a, err := readReport(filepath.Join("testdata", "compare_a.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := readReport(filepath.Join("testdata", "compare_b.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := compareReports(a, b)
	got := map[string]string{}
	for _, r := range rows {
		got[r.Workload+"/"+r.Metric] = r.Verdict
	}
	// The fixtures sit far from any bound BENCHMARK.json may choose (at most
	// 25 %), so the verdicts do not depend on the bounds' current values.
	want := map[string]string{
		"tm1_read/tps":            verdictOK,         // -1 %
		"tm1_read/lat_p50_us":     verdictRegressed,  // +40 %
		"tm1_read/lat_p99_us":     verdictOK,         // improved by 20 %
		"tpcb_durable/tps":        verdictUnresolved, // a's own quartiles are 50 % apart
		"tpcb_durable/restart_s":  verdictOK,         // improved by 20 %
		"tpcb_durable/lat_p50_us": verdictUnresolved, // b's own quartiles are 75 % apart
		"tpcc_mix/tps":            verdictRegressed,  // higher is better and b is 40 % lower

		// The two metrics only -compare bounds: failures by an absolute
		// +0.001 from an expected 0, log volume by 2 %.
		"tpcb_durable/failed_frac":       verdictRegressed, // 0 -> 0.002
		"tpcc_mix/failed_frac":           verdictOK,        // 0 -> 0.0005
		"tpcb_durable/log_bytes_per_txn": verdictRegressed, // +5 %
	}
	if len(got) != len(want) {
		t.Errorf("compared %d pairs, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}

	var out bytes.Buffer
	if n := printComparison(&out, "a.json", "b.json", rows); n != 4 {
		t.Errorf("printComparison counted %d regressions, want 4", n)
	}
	for _, line := range []string{"base a = a.json", "tm1_read", "of 100000", "unresolved", "+0.001"} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("output lacks %q:\n%s", line, out.String())
		}
	}
}

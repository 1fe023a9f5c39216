package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs every workload, untraced and traced, at toy
// scale (200 ms intervals, a restart phase of 500 transactions) and holds the
// result to BENCHMARK.json: every metric the file names is emitted exactly
// once with a finite value, the checks pass, and nothing else is emitted.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four engines; skipped with -short")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		o := &options{seed: 1, seconds: 1, dataDir: dir, ramDir: dir, toy: true,
			traceOut: filepath.Join(dir, w.name+".spans.jsonl")}
		for _, traced := range []bool{false, true} {
			run, want := runUntraced, endToEnd
			if traced {
				run, want = runTraced, perLayer
			}
			r, err := run(o, w)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s traced=%v: failed %d, violations %v", w.name, traced, r.Failed, r.Violations)
			}
			line, err := r.contract()
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := line.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s missing", w.name, traced, d.Name)
				} else if got.Unit != d.Unit {
					t.Errorf("%s traced=%v: %s has unit %q, BENCHMARK.json says %q", w.name, traced, d.Name, got.Unit, d.Unit)
				}
			}
			if !traced {
				for _, d := range want {
					if line.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, line.Metrics[d.Name].Value)
					}
				}
				continue
			}
			// What each workload is meant to stress and to bypass.
			v := func(name string) float64 { return line.Metrics[name].Value }
			if w.name == "tm1_read" {
				if v("wal.flush_cycles_per_1k_txn") != 0 || v("wal.log_bytes_per_txn") != 0 {
					t.Errorf("tm1_read touched the log: %v cycles/ktxn, %v B/txn", v("wal.flush_cycles_per_1k_txn"), v("wal.log_bytes_per_txn"))
				}
			} else {
				if v("wal.flush_cycles_per_1k_txn") <= 0 || v("wal.log_bytes_per_txn") <= 0 || v("recovery.records_redone") <= 0 {
					t.Errorf("%s: no log activity seen (cycles %v, bytes %v, redone %v)", w.name,
						v("wal.flush_cycles_per_1k_txn"), v("wal.log_bytes_per_txn"), v("recovery.records_redone"))
				}
			}
			if v("core.dispatch_us_p50") <= 0 || v("core.commit_us_p50") <= 0 || v("lockmgr.acquires_per_txn") <= 0 {
				t.Errorf("%s: spans or lock counters empty", w.name)
			}
			checkSpanFile(t, o.traceOut)
		}
	}
}

// checkSpanFile verifies the JSON-lines trace: a header, then spans whose
// parent, when present, is an earlier span of the same transaction.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		ID, Name string
		Parent   *string
		Txn      uint64
		Start    int64
		End      int64
	}
	txnOf := map[string]uint64{}
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		n++
		if n == 1 {
			continue // header
		}
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("%s line %d: %v", path, n, err)
		}
		if l.End < l.Start {
			t.Fatalf("%s line %d: span ends before it starts", path, n)
		}
		if l.Parent != nil {
			if ptxn, ok := txnOf[*l.Parent]; !ok || ptxn != l.Txn {
				t.Fatalf("%s line %d: parent %s is not an earlier span of transaction %d", path, n, *l.Parent, l.Txn)
			}
		} else if l.Name != "exec" {
			t.Fatalf("%s line %d: root span is %q", path, n, l.Name)
		}
		txnOf[l.ID] = l.Txn
	}
	if n < 100 {
		t.Errorf("%s holds only %d lines", path, n)
	}
}

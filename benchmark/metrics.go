package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef is one row of BENCHMARK.json. The tables below are the source of
// truth: -manifest writes the file from them and a test holds it to that.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median the metric may worsen by
	Abs    bool    `json:"-"`               // the bound is an absolute amount, not a share
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the numbers a caller of the embedded engine sees, reported by
// the untraced run on every workload.
var endToEnd = []metricDef{
	{Name: "tps", Unit: "txn/s", Better: higher, Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "restart_s", Unit: "s", Better: lower, Bound: 0.25},
}

// endToEndLocal are end-to-end metrics BENCHMARK.json does not carry. The
// driver wants every metric non-zero on every workload and every bound a
// share: failures are 0 everywhere and a read-only workload logs 0 bytes. And
// lat_p99_us did not repeat within its 10 % between sets of runs in this
// sandbox, so by issue 11's rule it is the per-layer client.lat_p99_us there
// and its bound is not widened. The untraced run reports all three, -out keeps
// them and -compare judges them.
var endToEndLocal = []metricDef{
	{Name: "lat_p99_us", Unit: "us", Better: lower, Bound: 0.10},
	{Name: "failed_frac", Unit: "ratio", Better: lower, Bound: 0.001, Abs: true},
	{Name: "log_bytes_per_txn", Unit: "B", Better: lower, Bound: 0.02},
}

// perLayer are the single-layer numbers of the traced run: probes, counter
// deltas per transaction, span self times, and the checks' own counts.
var perLayer = []metricDef{
	{Name: "lockmgr.acquire_release_ns", Unit: "ns", Better: lower},
	{Name: "lockmgr.sli_reclaim_ns", Unit: "ns", Better: lower},
	{Name: "lockmgr.acquires_per_txn", Unit: "1/txn", Better: lower},
	{Name: "lockmgr.cache_hits_per_txn", Unit: "1/txn", Better: higher},
	{Name: "lockmgr.sli_passed_per_1k_txn", Unit: "1/ktxn", Better: higher},
	{Name: "lockmgr.sli_reclaim_ratio", Unit: "ratio", Better: higher},
	{Name: "lockmgr.sli_invalidated_per_1k_txn", Unit: "1/ktxn", Better: lower},
	{Name: "lockmgr.waits_per_1k_txn", Unit: "1/ktxn", Better: lower},
	{Name: "lockmgr.deadlocks_per_1k_txn", Unit: "1/ktxn", Better: lower},
	{Name: "lockmgr.wait_share", Unit: "ratio", Better: lower},
	{Name: "wal.append_ns", Unit: "ns", Better: lower},
	{Name: "wal.append_2p_ns", Unit: "ns", Better: lower},
	{Name: "wal.commit_flush_us", Unit: "us", Better: lower},
	{Name: "wal.flush_cycles_per_1k_txn", Unit: "1/ktxn", Better: lower},
	{Name: "wal.sink_writes_per_cycle", Unit: "ratio", Better: lower},
	{Name: "wal.avg_window_us", Unit: "us", Better: lower},
	{Name: "wal.reserve_wait_share", Unit: "ratio", Better: lower},
	{Name: "wal.buffer_full_wait_share", Unit: "ratio", Better: lower},
	{Name: "wal.fence_wait_share", Unit: "ratio", Better: lower},
	{Name: "wal.durable_lag_bytes", Unit: "B", Better: lower},
	{Name: "wal.log_bytes_per_txn", Unit: "B", Better: lower},
	{Name: "core.exec_empty_us", Unit: "us", Better: lower},
	{Name: "core.dispatch_us_p50", Unit: "us", Better: lower},
	{Name: "core.body_us_p50", Unit: "us", Better: lower},
	{Name: "core.commit_us_p50", Unit: "us", Better: lower},
	{Name: "core.tx_get_ns_p50", Unit: "ns", Better: lower},
	{Name: "core.tx_update_ns_p50", Unit: "ns", Better: lower},
	{Name: "core.tx_insert_ns_p50", Unit: "ns", Better: lower},
	{Name: "core.tx_scan_us_p50", Unit: "us", Better: lower},
	{Name: "core.allocs_per_txn", Unit: "1/txn", Better: lower},
	{Name: "core.alloc_bytes_per_txn", Unit: "B", Better: lower},
	{Name: "core.gc_pause_ms_per_s", Unit: "ms/s", Better: lower},
	{Name: "heap.get_ns", Unit: "ns", Better: lower},
	{Name: "heap.update_ns", Unit: "ns", Better: lower},
	{Name: "heap.insert_ns", Unit: "ns", Better: lower},
	{Name: "btree.get_ns", Unit: "ns", Better: lower},
	{Name: "btree.insert_ns", Unit: "ns", Better: lower},
	{Name: "btree.scan100_us", Unit: "us", Better: lower},
	{Name: "record.encode_ns", Unit: "ns", Better: lower},
	{Name: "record.decode_ns", Unit: "ns", Better: lower},
	{Name: "record.encodekey_ns", Unit: "ns", Better: lower},
	{Name: "buffer.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "buffer.evictions_per_1k_txn", Unit: "1/ktxn", Better: lower},
	{Name: "buffer.writebacks_per_1k_txn", Unit: "1/ktxn", Better: lower},
	{Name: "buffer.fetch_hit_ns", Unit: "ns", Better: lower},
	{Name: "buffer.fetch_miss_ns", Unit: "ns", Better: lower},
	{Name: "recovery.records_scanned", Unit: "count", Better: lower},
	{Name: "recovery.records_redone", Unit: "count", Better: lower},
	{Name: "recovery.redo_rec_per_s", Unit: "rec/s", Better: higher},
	{Name: "recovery.analyze_us_per_1k_rec", Unit: "us/krec", Better: lower},
	{Name: "recovery.checkpoint_ms", Unit: "ms", Better: lower},
	{Name: "recovery.restored_rows", Unit: "count", Better: lower},
	{Name: "profiler.coverage", Unit: "ratio", Better: higher},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: lower},
	{Name: "trace.sample_every", Unit: "count", Better: lower},
	{Name: "client.lat_p99_us", Unit: "us", Better: lower},
	{Name: "client.lat_p999_us", Unit: "us", Better: lower},
	{Name: "check.failed_frac", Unit: "ratio", Better: lower},
	{Name: "check.lost_acked", Unit: "count", Better: lower},
	{Name: "env.ramlog_tmpfs", Unit: "count", Better: higher},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []metricDef        `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifestJSON is BENCHMARK.json as the tables in this package define it.
func manifestJSON() []byte {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and finite numbers
	}
	return append(data, '\n')
}

func defByName(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// stat is one metric of one run: the reported value (a median where the run
// took several samples), its quartiles and the samples behind it.
type stat struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	N     int       `json:"n"`
	Raw   []float64 `json:"samples,omitempty"`
}

func statOf(unit string, samples []float64) stat {
	q1, med, q3 := quartiles(samples)
	return stat{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(samples), Raw: samples}
}

func single(unit string, v float64) stat { return stat{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }

// runReport is one invocation's result for one workload and trace mode.
type runReport struct {
	Workload   string          `json:"workload"`
	Traced     bool            `json:"traced"`
	Seed       uint64          `json:"seed"`
	Seconds    float64         `json:"seconds"`
	Correct    bool            `json:"correct"`
	Attempted  int64           `json:"attempted"`
	Failed     int64           `json:"failed"`
	Violations []string        `json:"violations,omitempty"`
	Samples    []int           `json:"latency_samples_per_interval,omitempty"`
	Metrics    map[string]stat `json:"metrics"`
}

// report is what -out writes and -compare reads.
type report struct {
	Env   map[string]any `json:"env"`
	Runs  []runReport    `json:"runs"`
	Claim *string        `json:"claim"` // always null: the benchmark measures, it does not claim
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                       `json:"correct"`
	Attempted int64                      `json:"attempted"`
	Failed    int64                      `json:"failed"`
	Metrics   map[string]contractMetrics `json:"metrics"`
}

type contractMetrics struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract renders a run as the driver's one-line JSON: every metric of the
// BENCHMARK.json table for its trace mode, present and finite, nothing else.
func (r *runReport) contract() (contractLine, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	out := contractLine{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: make(map[string]contractMetrics, len(defs))}
	for _, d := range defs {
		s, ok := r.Metrics[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return out, fmt.Errorf("metric %s is %v", d.Name, s.Value)
		}
		out.Metrics[d.Name] = contractMetrics{Value: s.Value, Unit: d.Unit}
	}
	return out, nil
}

// print writes every metric by name with its unit, one per line.
func (r *runReport) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s trace=%v seed=%d seconds=%g attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Traced, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct)
	for _, n := range names {
		s := r.Metrics[n]
		if s.N > 1 {
			fmt.Fprintf(w, "%-36s %16.4f %-8s q1=%.4f q3=%.4f n=%d\n", n, s.Value, s.Unit, s.Q1, s.Q3, s.N)
		} else {
			fmt.Fprintf(w, "%-36s %16.4f %s\n", n, s.Value, s.Unit)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION %s\n", v)
	}
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

package slidb_test

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slidb/internal/bench/tpcb"
	"slidb/internal/core"
	"slidb/internal/obs/obstest"
	"slidb/internal/profiler"
	"slidb/internal/workload"
)

// scrape fetches path from the engine's observability handler.
func scrape(e *core.Engine, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	e.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// openTPCB opens an in-memory engine with cfg and loads a TPC-B dataset of
// the given size into it, returning the engine and its workload generator.
func openTPCB(t *testing.T, cfg core.Config, branches, accountsPerBranch int) (*core.Engine, workload.Generator) {
	t.Helper()
	e := core.Open(cfg)
	bcfg := tpcb.Config{Branches: branches, AccountsPerBranch: accountsPerBranch, Seed: 1}
	if err := tpcb.Load(e, bcfg); err != nil {
		e.Close()
		t.Fatal(err)
	}
	gen, err := tpcb.NewGenerator(bcfg, tpcb.TxAccountUpdate)
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	return e, gen
}

// metricValue extracts the value of an unlabeled sample line from exposition
// output, or -1 if the metric is absent.
func metricValue(exposition, name string) float64 {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// TestMetricsScrapeUnderLoad drives the TPC-B workload while concurrently
// scraping /metrics, asserting that every scrape parses as well-formed
// Prometheus exposition output and that the committed counter never goes
// backwards — i.e. concurrent transaction completion never tears a scrape.
// Run under -race this also exercises the wait-free hot-path claims.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	e, gen := openTPCB(t, core.Config{
		SLI: true, EarlyLockRelease: true, AsyncCommit: true, Agents: 4, Profile: true,
	}, 4, 100)
	defer e.Close()

	var (
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		scrapes atomic.Int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastCommitted float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := scrape(e, "/metrics")
			body := rec.Body.String()
			if err := obstest.Validate(rec.Body.Bytes()); err != nil {
				t.Errorf("scrape does not validate: %v", err)
				return
			}
			c := metricValue(body, "slidb_txns_committed_total")
			if c < 0 {
				t.Error("scrape missing slidb_txns_committed_total")
				return
			}
			if c < lastCommitted {
				t.Errorf("committed counter went backwards: %v -> %v", lastCommitted, c)
				return
			}
			lastCommitted = c
			scrapes.Add(1)
		}
	}()

	res := workload.Run(e, gen, workload.Options{Clients: 4, Duration: 300 * time.Millisecond, Warmup: 20 * time.Millisecond, Seed: 1})
	close(stop)
	wg.Wait()
	if res.Committed == 0 {
		t.Fatal("workload committed nothing")
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected transaction errors: %d", res.Errors)
	}
	if n := e.UndoFailures(); n != 0 {
		t.Fatalf("undo failures: %d", n)
	}
	if scrapes.Load() == 0 {
		t.Fatal("no scrape completed during the run")
	}
	t.Logf("%d scrapes validated against %d committed transactions", scrapes.Load(), res.Committed)
}

// TestMetricsSurface asserts the stable metric names and full label sets the
// README documents: every profiler category is present even at zero, the
// histogram renders, and /debug/slowtx serves the documented JSON schema
// with per-category breakdowns (the engine profiles).
func TestMetricsSurface(t *testing.T) {
	eng, gen := openTPCB(t, core.Config{SLI: true, Agents: 2, Profile: true}, 2, 50)
	eng.Observe()
	res := workload.Run(eng, gen, workload.Options{Clients: 2, Duration: 150 * time.Millisecond, Warmup: 10 * time.Millisecond, Seed: 1})
	if res.Committed == 0 {
		eng.Close()
		t.Fatal("workload committed nothing")
	}
	// Scrapes still work once the engine is closed — the counters are
	// snapshots of final state.
	eng.Close()
	body := scrape(eng, "/metrics").Body.String()

	for _, name := range []string{
		"slidb_txns_committed_total",
		"slidb_txns_aborted_total",
		"slidb_elr_aborts_total",
		"slidb_undo_failures_total",
		"slidb_durable_lag_bytes",
		"slidb_log_wedged",
		"slidb_log_flush_cycles_total",
		"slidb_log_sink_writes_total",
		"slidb_log_fence_wait_seconds_total",
		"slidb_log_reserve_wait_seconds_total",
		"slidb_log_buffer_full_wait_seconds_total",
		"slidb_log_segment_rotations_total",
		"slidb_log_segment_preallocs_total",
		"slidb_agents",
		"slidb_lock_acquires_total",
		"slidb_lock_acquires_mode_total",
		"slidb_lock_class_total",
		"slidb_lock_cache_hits_total",
		"slidb_lock_conversions_total",
		"slidb_lock_latch_contended_total",
		"slidb_lock_waits_total",
		"slidb_lock_deadlocks_total",
		"slidb_lock_timeouts_total",
		"slidb_lock_transactions_total",
		"slidb_elr_releases_total",
		"slidb_sli_events_total",
		"slidb_profile_seconds_total",
		"slidb_txn_duration_seconds_bucket",
		"slidb_txn_duration_seconds_count",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	// The flusher has no group-commit window, so neither has a metric.
	if strings.Contains(body, "slidb_group_commit_window") {
		t.Error("/metrics still exports a group-commit window family")
	}
	// Every profiler category label must be present, even the zero ones.
	for c := profiler.Category(0); c.String() != "category("+strconv.Itoa(int(c))+")"; c++ {
		want := `slidb_profile_seconds_total{category="` + c.String() + `"}`
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing profiler series %s", want)
		}
	}
	if v := metricValue(body, "slidb_txns_committed_total"); v < float64(res.Committed) {
		t.Errorf("committed metric %v below workload count %d", v, res.Committed)
	}

	rec := scrape(eng, "/debug/slowtx")
	var rep struct {
		Capacity      int     `json:"capacity"`
		WindowSeconds float64 `json:"window_seconds"`
		Slowest       []struct {
			XID              uint64             `json:"xid"`
			Start            time.Time          `json:"start"`
			DurationSeconds  float64            `json:"duration_seconds"`
			Committed        bool               `json:"committed"`
			BreakdownSeconds map[string]float64 `json:"breakdown_seconds"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("slowtx JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if rep.Capacity <= 0 || rep.WindowSeconds <= 0 {
		t.Errorf("slowtx header: %+v", rep)
	}
	if len(rep.Slowest) == 0 {
		t.Fatal("no slow transactions traced during the workload")
	}
	for i := 1; i < len(rep.Slowest); i++ {
		if rep.Slowest[i].DurationSeconds > rep.Slowest[i-1].DurationSeconds {
			t.Errorf("slowtx not sorted slowest-first at %d", i)
		}
	}
	slow := rep.Slowest[0]
	if slow.DurationSeconds <= 0 || slow.Start.IsZero() {
		t.Errorf("traced tx malformed: %+v", slow)
	}
	if len(slow.BreakdownSeconds) == 0 {
		t.Error("profiling engine produced a trace with no breakdown")
	}
	for cat := range slow.BreakdownSeconds {
		known := false
		for c := profiler.Category(0); c.String() != "category("+strconv.Itoa(int(c))+")"; c++ {
			if c.String() == cat {
				known = true
				break
			}
		}
		if !known {
			t.Errorf("trace breakdown has unknown category %q", cat)
		}
	}
}

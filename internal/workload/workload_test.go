package workload

import (
	"errors"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"slidb/internal/core"
	"slidb/internal/profiler"
	"slidb/internal/record"
)

func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	e := core.Open(core.Config{Agents: 2, Profile: true})
	t.Cleanup(func() { e.Close() })
	schema := record.MustSchema(
		record.Column{Name: "id", Type: record.TypeInt},
		record.Column{Name: "v", Type: record.TypeInt},
	)
	if err := e.CreateTable("t", schema, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(func(tx *core.Tx) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("t", record.Row{record.Int(int64(i)), record.Int(0)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMixPicksAccordingToWeights(t *testing.T) {
	mix := Mix{
		{Name: "a", Weight: 90, Make: func(*rand.Rand) TxFunc { return func(*core.Tx) error { return nil } }},
		{Name: "b", Weight: 10, Make: func(*rand.Rand) TxFunc { return func(*core.Tx) error { return nil } }},
	}
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		name, fn := mix.Next(rng)
		if fn == nil {
			t.Fatal("nil transaction")
		}
		counts[name]++
	}
	ratio := float64(counts["a"]) / 10000
	if ratio < 0.85 || ratio > 0.95 {
		t.Fatalf("weight-90 entry picked %.1f%% of the time", 100*ratio)
	}
	if counts["a"]+counts["b"] != 10000 {
		t.Fatal("mix produced unknown entries")
	}
}

func TestRunMeasuresThroughputAndFailures(t *testing.T) {
	e := testEngine(t)
	gen := Mix{
		{Name: "read", Weight: 3, Make: func(rng *rand.Rand) TxFunc {
			id := rng.Int63n(100)
			return func(tx *core.Tx) error {
				_, _, err := tx.Get("t", record.Int(id))
				return err
			}
		}},
		{Name: "fail", Weight: 1, Make: func(rng *rand.Rand) TxFunc {
			return func(tx *core.Tx) error { return core.Abort }
		}},
	}
	res := Run(e, gen, Options{Clients: 4, Duration: 200 * time.Millisecond, Warmup: 50 * time.Millisecond})
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected errors: %d", res.Errors)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
	if res.AvgLatency <= 0 {
		t.Fatal("latency not computed")
	}
	if res.FailureRate() < 0.1 || res.FailureRate() > 0.45 {
		t.Fatalf("failure rate %.2f outside expected ~0.25 band", res.FailureRate())
	}
	if res.LockStats.Transactions == 0 {
		t.Fatal("lock stats not collected")
	}
	if res.Breakdown.Total() == 0 {
		t.Fatal("profiler breakdown empty despite profiling enabled")
	}
}

func TestRunCountsUnexpectedErrors(t *testing.T) {
	e := testEngine(t)
	boom := errors.New("boom")
	gen := Mix{{Name: "bad", Weight: 1, Make: func(*rand.Rand) TxFunc {
		return func(tx *core.Tx) error { return boom }
	}}}
	res := Run(e, gen, Options{Clients: 1, Duration: 100 * time.Millisecond})
	if res.Errors == 0 {
		t.Fatal("errors not counted")
	}
	if res.Committed != 0 {
		t.Fatal("failing transactions counted as committed")
	}
	if res.FailureRate() != 0 {
		t.Fatal("failure rate should be 0 when nothing commits")
	}
}

func TestRunDefaultsClientsToAgents(t *testing.T) {
	e := testEngine(t)
	gen := Mix{{Name: "noop", Weight: 1, Make: func(*rand.Rand) TxFunc {
		return func(tx *core.Tx) error { return nil }
	}}}
	res := Run(e, gen, Options{Duration: 50 * time.Millisecond})
	if res.Committed == 0 {
		t.Fatal("no transactions committed with defaulted client count")
	}
}

// scrapeProfile returns the slidb_profile_seconds_total samples of one
// /metrics scrape, keyed by category.
func scrapeProfile(t *testing.T, e *core.Engine) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	e.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	const prefix = `slidb_profile_seconds_total{category="`
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		cat, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			t.Fatalf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[cat] = v
	}
	return out
}

// TestProfileCountersNeverDecrease pins that the profiler is one monotonic
// sum: a measured interval leaves every exported profile sample and every
// Aggregate category at or above its value before the interval, and the
// interval's Breakdown is the difference of the two Aggregates.
func TestProfileCountersNeverDecrease(t *testing.T) {
	e := testEngine(t)
	gen := Mix{{Name: "update", Weight: 1, Make: func(rng *rand.Rand) TxFunc {
		id := rng.Int63n(100)
		return func(tx *core.Tx) error {
			return tx.Update("t", []record.Value{record.Int(id)}, func(r record.Row) (record.Row, error) {
				r[1] = record.Int(r[1].AsInt() + 1)
				return r, nil
			})
		}
	}}}
	opts := Options{Clients: 2, Duration: 50 * time.Millisecond, Warmup: 20 * time.Millisecond, Seed: 1}
	Run(e, gen, opts) // so the counters are non-zero before the measured run
	scraped, agg := scrapeProfile(t, e), e.Profiler().Aggregate()
	if agg.Total() == 0 {
		t.Fatal("profiler aggregate empty despite profiling enabled")
	}
	res := Run(e, gen, opts)
	scrapedAfter, aggAfter := scrapeProfile(t, e), e.Profiler().Aggregate()
	if len(scraped) != len(agg) || len(scrapedAfter) != len(agg) {
		t.Fatalf("scrapes have %d and %d categories, want %d", len(scraped), len(scrapedAfter), len(agg))
	}
	for cat, v := range scraped {
		if scrapedAfter[cat] < v {
			t.Errorf("slidb_profile_seconds_total{category=%q} went from %v to %v", cat, v, scrapedAfter[cat])
		}
	}
	for c := profiler.Category(0); int(c) < len(agg); c++ {
		if aggAfter.Get(c) < agg.Get(c) {
			t.Errorf("Aggregate %v went from %v to %v", c, agg.Get(c), aggAfter.Get(c))
		}
		if res.Breakdown.Get(c) > aggAfter.Get(c)-agg.Get(c) {
			t.Errorf("interval %v = %v, more than the %v the aggregate grew by", c, res.Breakdown.Get(c), aggAfter.Get(c)-agg.Get(c))
		}
	}
	if res.Breakdown.Total() == 0 {
		t.Fatal("interval breakdown empty despite profiling enabled")
	}
}

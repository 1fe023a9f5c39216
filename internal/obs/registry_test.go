package obs

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slidb/internal/obs/obstest"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with one family of every shape the engine
// collector uses, with fixed values, so the rendered exposition output is
// deterministic.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.CounterFunc("golden_ops_total", "Operations performed.",
		func() float64 { return 42 })
	r.GaugeFunc("golden_temperature_celsius", "Current temperature.",
		func() float64 { return 36.5 })
	r.CounterFunc("golden_snapshot_total", "Counter read from a snapshot callback.",
		func() float64 { return 7 })
	r.GaugeFunc("golden_depth", "Gauge read from a snapshot callback.",
		func() float64 { return 3 })
	r.LabeledCounterFunc("golden_events_total",
		"Events with a help line containing a backslash \\ to escape.", "kind",
		func() []Sample {
			return []Sample{
				{Label: "plain", Value: 1},
				{Label: "quote\" slash\\ newline\n", Value: 2},
			}
		})
	h := r.Histogram("golden_latency_seconds", "Observed latencies.",
		[]float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.005, 0.05, 0.5} {
		h.Observe(v)
	}
	return r
}

func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition output differs from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			path, buf.Bytes(), want)
	}
	if err := obstest.Validate(buf.Bytes()); err != nil {
		t.Errorf("golden output does not validate: %v", err)
	}
}

func TestHandlerContentType(t *testing.T) {
	rec := httptest.NewRecorder()
	goldenRegistry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got, want := rec.Header().Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; got != want {
		t.Errorf("content type %q, want %q", got, want)
	}
	if err := obstest.Validate(rec.Body.Bytes()); err != nil {
		t.Errorf("handler output does not validate: %v", err)
	}
}

func TestHistogramBucketsAndCount(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h", []float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 3, 2} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`h_seconds_bucket{le="1"} 1`,
		`h_seconds_bucket{le="2"} 3`,
		`h_seconds_bucket{le="+Inf"} 4`,
		`h_seconds_sum 7`,
		`h_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := obstest.Validate(buf.Bytes()); err != nil {
		t.Error(err)
	}
}

func TestRegistrationPanics(t *testing.T) {
	zero := func() float64 { return 0 }
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"invalid name", func(r *Registry) { r.CounterFunc("bad-name", "h", zero) }},
		{"leading digit", func(r *Registry) { r.CounterFunc("0bad", "h", zero) }},
		{"empty name", func(r *Registry) { r.GaugeFunc("", "h", zero) }},
		{"duplicate", func(r *Registry) { r.CounterFunc("dup_total", "h", zero); r.GaugeFunc("dup_total", "h", zero) }},
		{"invalid label", func(r *Registry) {
			r.LabeledCounterFunc("ok_total", "h", "bad-label", func() []Sample { return nil })
		}},
		{"colon label", func(r *Registry) {
			r.LabeledCounterFunc("ok2", "h", "a:b", func() []Sample { return nil })
		}},
		{"unsorted buckets", func(r *Registry) { r.Histogram("h_x", "h", []float64{1, 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestValidatorCatchesBadOutput(t *testing.T) {
	bad := []struct {
		name string
		data string
	}{
		{"sample without help", "orphan_total 1\n"},
		{"missing type", "# HELP x_total h\nx_total 1\n"},
		{"nonmonotone histogram", "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"inf count mismatch", "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
		{"bad metric name", "# HELP bad-name h\n# TYPE bad-name counter\nbad-name 1\n"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if err := obstest.Validate([]byte(tc.data)); err == nil {
				t.Errorf("%s: validator accepted malformed output", tc.name)
			}
		})
	}
}

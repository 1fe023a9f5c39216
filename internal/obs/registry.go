// Package obs is slidb's observability subsystem: a dependency-free metrics
// registry that renders the Prometheus text exposition format, an engine
// collector that maps the engine's existing counters, lock-manager statistics
// and profiler categories onto stable metric names, and a slow-transaction
// tracer that keeps the slowest recent transactions with their per-category
// time breakdowns.
//
// The package deliberately imports no third-party code (the container the
// engine ships in bakes nothing in) and nothing from internal/core — core
// imports obs to hang the Observe/ObsHandler surface off the Engine, so obs
// sees the engine only through the small EngineSource interface.
//
// Scrapes are wait-free with respect to the transaction hot path: every
// family except the transaction-duration histogram is a *Func whose callback
// reads the engine's own monotonic counters at scrape time, so collecting
// metrics never adds a lock acquisition to the commit path. Cross-metric consistency is NOT guaranteed (a scrape is not a
// transaction); each individual sample is a consistent atomic read.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Sample is one labeled sample emitted by a labeled collect callback.
type Sample struct {
	// Label is the value of the family's single label for this sample.
	Label string
	// Value is the sample value.
	Value float64
}

// metricKind is the Prometheus metric type of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one named metric family: the HELP/TYPE header plus a writer for
// its sample lines.
type family struct {
	name string
	help string
	kind metricKind
	// write emits the family's sample lines (no HELP/TYPE) to w.
	write func(w *bufio.Writer)
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4). Registration happens at setup time and
// panics on invalid or duplicate names — both are programmer errors; scraping
// is safe for concurrent use with itself and with the counters being updated.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// validName reports whether s is a legal Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether s is a legal Prometheus label name
// ([a-zA-Z_][a-zA-Z0-9_]*).
func validLabelName(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return validName(s)
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// formatValue renders a sample value. Integral values render without an
// exponent or decimal point, which is what every Prometheus parser expects
// for counters.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// register adds a family, panicking on an invalid or duplicate name.
func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", f.name))
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
	sort.Slice(r.families, func(i, j int) bool { return r.families[i].name < r.families[j].name })
}

// CounterFunc registers a counter whose value is read by fn at scrape time —
// the snapshot pattern used to export the engine's existing atomic counters
// without duplicating them.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: kindCounter, write: func(w *bufio.Writer) {
		fmt.Fprintf(w, "%s %s\n", name, formatValue(fn()))
	}})
}

// GaugeFunc registers a gauge whose value is read by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: kindGauge, write: func(w *bufio.Writer) {
		fmt.Fprintf(w, "%s %s\n", name, formatValue(fn()))
	}})
}

// LabeledCounterFunc registers a counter family with a single label whose
// samples are produced by fn at scrape time, in the order fn returns them.
func (r *Registry) LabeledCounterFunc(name, help, label string, fn func() []Sample) {
	if !validLabelName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	r.register(&family{name: name, help: help, kind: kindCounter, write: func(w *bufio.Writer) {
		for _, s := range fn() {
			fmt.Fprintf(w, "%s{%s=\"%s\"} %s\n", name, label, escapeLabelValue(s.Label), formatValue(s.Value))
		}
	}})
}

// Histogram is a fixed-bucket histogram. Observations are wait-free (atomic
// adds only), so it is safe to feed from the transaction completion hook.
type Histogram struct {
	upper   []float64 // ascending bucket upper bounds, exclusive of +Inf
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (the implicit +Inf bucket is added automatically).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
		}
	}
	h := &Histogram{upper: append([]float64(nil), buckets...)}
	h.buckets = make([]atomic.Uint64, len(buckets))
	r.register(&family{name: name, help: help, kind: kindHistogram, write: func(w *bufio.Writer) {
		// Per-bucket counts are independent atomics; summing from the lowest
		// bucket up keeps the rendered cumulative counts monotone even when
		// observations land mid-scrape.
		var cum uint64
		for i, ub := range h.upper {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatValue(ub), cum)
		}
		count := h.count.Load()
		if count < cum {
			// count is incremented after the bucket on the observe path; clamp
			// so le="+Inf" (which must equal _count) never reads below a bucket.
			count = cum
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
		fmt.Fprintf(w, "%s_sum %s\n", name, formatValue(math.Float64frombits(h.sumBits.Load())))
		fmt.Fprintf(w, "%s_count %d\n", name, count)
	}})
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (tens) and the scan is branch-
	// predictable; a binary search would not pay for itself here.
	for i, ub := range h.upper {
		if v <= ub {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// WritePrometheus renders every registered family in the text exposition
// format, sorted by family name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	fams := append([]*family(nil), r.families...)
	r.mu.RUnlock()
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		f.write(bw)
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

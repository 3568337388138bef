package telemetry

// A hand-rolled Prometheus-text-format metrics registry: counters, gauges
// and fixed-bucket histograms with atomic hot paths, no client_golang
// dependency (the module's zero-dependency constraint). Counters and
// gauges are func-backed views, so a server's existing atomic counters
// feed /metrics without double counting; only histograms hold their own
// state (atomic per-bucket counts).

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels annotates one metric child; rendered sorted by key.
type Labels map[string]string

// metricChild is one labeled series inside a family.
type metricChild struct {
	labels string // pre-rendered `k="v",k2="v2"` (no braces), "" when unlabeled
	value  func() float64
	hist   *Histogram
}

// metricFamily is one named metric with its help text, type, and children.
type metricFamily struct {
	name, help, typ string
	children        []*metricChild
}

// Registry is a set of metric families rendered in the Prometheus text
// exposition format. All methods are safe for concurrent use; registration
// normally happens once at construction time.
type Registry struct {
	mu       sync.Mutex
	families map[string]*metricFamily
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*metricFamily)}
}

// family returns (creating if needed) the named family, panicking on a
// type or help mismatch — a registration bug, not a runtime condition.
func (r *Registry) family(name, help, typ string) *metricFamily {
	f, ok := r.families[name]
	if !ok {
		f = &metricFamily{name: name, help: help, typ: typ}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// add appends a child, panicking on a duplicate label set.
func (f *metricFamily) add(c *metricChild) {
	for _, existing := range f.children {
		if existing.labels == c.labels {
			panic(fmt.Sprintf("telemetry: metric %s{%s} registered twice", f.name, c.labels))
		}
	}
	f.children = append(f.children, c)
	sort.Slice(f.children, func(i, j int) bool { return f.children[i].labels < f.children[j].labels })
}

// renderLabels renders a label set as `k="v",k2="v2"`, keys sorted.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + `="` + escapeLabel(labels[k]) + `"`
	}
	return strings.Join(parts, ",")
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// CounterFunc registers a monotonic counter backed by fn (typically a
// closure over an existing atomic counter).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, "counter").add(&metricChild{labels: renderLabels(labels), value: fn})
}

// GaugeFunc registers a gauge backed by fn.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, "gauge").add(&metricChild{labels: renderLabels(labels), value: fn})
}

// Histogram registers and returns a fixed-bucket histogram series. buckets
// are the upper bounds in strictly increasing order (the implicit +Inf
// bucket is added); nil uses DefBuckets.
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) *Histogram {
	h := NewHistogram(buckets)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, "histogram").add(&metricChild{labels: renderLabels(labels), hist: h})
	return h
}

// WritePrometheus renders every family in the text exposition format,
// families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*metricFamily, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, c := range f.children {
			if err := c.write(w, f.name); err != nil {
				return err
			}
		}
	}
	return nil
}

// write renders one child series.
func (c *metricChild) write(w io.Writer, name string) error {
	if c.hist != nil {
		return c.hist.write(w, name, c.labels)
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(name, c.labels), formatFloat(c.value())); err != nil {
		return err
	}
	return nil
}

// seriesName renders `name{labels}` (or bare name).
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as text/plain; version=0.0.4 — the /metrics
// endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// DefBuckets are the default latency buckets in seconds: 0.5ms to 60s,
// covering a cache hit (tens of microseconds land in the first bucket)
// through a cold distributed mine.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram with atomic buckets: Observe is
// lock-free and safe for concurrent use. Bucket semantics match
// Prometheus: an observation v lands in the first bucket whose upper bound
// is >= v; counts render cumulatively. Like Span, a nil *Histogram is a
// valid no-op (Observe discards, Count/Sum/Quantile report zero), so
// instrumented code never guards on whether telemetry is enabled.
type Histogram struct {
	bounds []float64       // upper bounds, strictly increasing
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count  atomic.Uint64
	sum    atomicFloat

	// Exemplar state: the largest-valued observation carrying a trace ID
	// since the last exposition. Links a p99 spike on a scrape graph to its
	// /debug/traces entry. Guarded by exMu — exemplars ride the slow path
	// (ObserveExemplar is called once per request, not per bucket update).
	exMu    sync.Mutex
	exTrace string
	exValue float64
}

// NewHistogram builds a histogram over the given upper bounds (nil =
// DefBuckets). Bounds must be strictly increasing.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveExemplar records one value and, when traceID is non-empty and the
// value is the largest since the last exposition, retains it as the series'
// exemplar. Exposition emits the exemplar as a comment line (ignored by
// plain text-format scrapers), then resets it so each scrape interval
// surfaces its own slowest trace.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if h == nil || traceID == "" {
		return
	}
	h.exMu.Lock()
	if h.exTrace == "" || v >= h.exValue {
		h.exTrace, h.exValue = traceID, v
	}
	h.exMu.Unlock()
}

// takeExemplar returns and clears the pending exemplar.
func (h *Histogram) takeExemplar() (string, float64, bool) {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if h.exTrace == "" {
		return "", 0, false
	}
	trace, v := h.exTrace, h.exValue
	h.exTrace, h.exValue = "", 0
	return trace, v, true
}

// Count returns the total observation count.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket holding the target rank, the standard
// histogram_quantile estimate. Observations in the +Inf overflow bucket
// clamp to the largest finite bound. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := float64(q * float64(total))
	cum := uint64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(h.bounds) {
				// Overflow bucket: no finite upper edge to interpolate to.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + float64((hi-lo)*frac)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// write renders the series in exposition format: cumulative `_bucket`
// lines (le labels merged after any fixed labels), then `_sum` and
// `_count`.
func (h *Histogram) write(w io.Writer, name, labels string) error {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := `le="` + formatFloat(b) + `"`
		if labels != "" {
			le = labels + "," + le
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	le := `le="+Inf"`
	if labels != "" {
		le = labels + "," + le
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, le, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), formatFloat(h.sum.load())); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), h.count.Load()); err != nil {
		return err
	}
	if trace, v, ok := h.takeExemplar(); ok {
		// A comment line, so the default exposition stays byte-identical for
		// scrapers (and goldens) when no exemplar was recorded.
		if _, err := fmt.Fprintf(w, "# exemplar %s%s trace_id=%s value=%s\n",
			name, braced(labels), trace, formatFloat(v)); err != nil {
			return err
		}
	}
	return nil
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// BuildInfoLabels returns the standard build_info label set — the module
// version stamped by the Go linker plus the Go runtime version — shared by
// every process's umine_build_info gauge.
func BuildInfoLabels() Labels {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return Labels{"version": version, "go": runtime.Version()}
}

// atomicFloat is a CAS-add float64 (Prometheus histogram _sum semantics).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

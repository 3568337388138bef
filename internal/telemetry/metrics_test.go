package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketPlacement pins the Prometheus bucket semantics: an
// observation v lands in the first bucket whose upper bound is >= v, and a
// value above every bound lands in the +Inf overflow bucket.
func TestHistogramBucketPlacement(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 5, 7} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 1} // le=1: {0.5, 1}; le=2: {1.5, 2}; le=5: {5}; +Inf: {7}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d: got %d observations, want %d", i, got, w)
		}
	}
	if got := h.Count(); got != 6 {
		t.Errorf("Count() = %d, want 6", got)
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+5+7; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum() = %g, want %g", got, want)
	}
}

// TestHistogramText is the exposition-format golden: cumulative _bucket
// lines (le merged after fixed labels), then _sum and _count.
func TestHistogramText(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "request latency", Labels{"phase": "mine"}, []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(30)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP req_seconds request latency
# TYPE req_seconds histogram
req_seconds_bucket{phase="mine",le="0.5"} 1
req_seconds_bucket{phase="mine",le="1"} 2
req_seconds_bucket{phase="mine",le="+Inf"} 3
req_seconds_sum{phase="mine"} 31
req_seconds_count{phase="mine"} 3
`
	if sb.String() != want {
		t.Errorf("exposition text:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestRegistryText pins counter/gauge rendering: families sorted by name,
// children sorted by label set, label keys sorted, values escaped.
func TestRegistryText(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("zz_gauge", "a gauge", nil, func() float64 { return 2.5 })
	r.CounterFunc("aa_total", "a counter", Labels{"outcome": "hit"}, func() float64 { return 3 })
	r.CounterFunc("aa_total", "a counter", Labels{"outcome": `quo"te`}, func() float64 { return 1 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_total a counter
# TYPE aa_total counter
aa_total{outcome="hit"} 3
aa_total{outcome="quo\"te"} 1
# HELP zz_gauge a gauge
# TYPE zz_gauge gauge
zz_gauge 2.5
`
	if sb.String() != want {
		t.Errorf("exposition text:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestRegistryPanics pins the registration bugs that must fail loudly: a
// family registered under two types, and a duplicate label set.
func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.CounterFunc("m_total", "m", nil, func() float64 { return 0 })
	mustPanic("type mismatch", func() {
		r.GaugeFunc("m_total", "m", nil, func() float64 { return 0 })
	})
	mustPanic("duplicate labels", func() {
		r.CounterFunc("m_total", "m", nil, func() float64 { return 0 })
	})
	mustPanic("non-increasing bounds", func() { NewHistogram([]float64{1, 1}) })
}

// TestHistogramConcurrent exercises the atomic hot path under the race
// detector.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g*i) * 1e-6)
			}
		}(g)
	}
	var sb strings.Builder
	r := NewRegistry()
	r.CounterFunc("c_total", "c", nil, func() float64 { return float64(h.Count()) })
	for i := 0; i < 50; i++ {
		sb.Reset()
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Errorf("Count() = %d, want 8000", got)
	}
}

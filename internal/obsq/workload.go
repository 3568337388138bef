package obsq

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"umine/internal/telemetry"
)

// The rolling workload profile: who is asking what, how often, and how well
// the serving layer absorbs it. Queries are grouped by (dataset, algorithm,
// threshold band) — the band is the log10 decade of the primary threshold,
// because a mine at min_esup 0.04 and one at 0.05 exercise the same regime
// while 0.0004 is a different workload entirely. Each group keeps an
// exponentially-decayed arrival weight (half-life WindowHalfLife), decayed
// per-outcome counts, and a latency histogram, so /debug/workload shows the
// *current* mix, not the process-lifetime average.

// DefaultWorkloadHalfLife halves a group's observed weight every 5 minutes —
// a query mix change is fully visible within a few half-lives.
const DefaultWorkloadHalfLife = 5 * time.Minute

// maxWorkloadEntries caps the group table; beyond it the coldest group (the
// lowest decayed weight) is evicted. 256 distinct (dataset, algo, band)
// triples is far past any realistic serving mix.
const maxWorkloadEntries = 256

// workloadLatencyBuckets are the groups' millisecond-scale latency buckets:
// 0.25ms doubling to ~4s.
var workloadLatencyBuckets = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Record is one served query observation.
type Record struct {
	Dataset   string
	Algorithm string
	MinESup   float64
	MinSup    float64
	PFT       float64
	Workers   int
	// Path is the serving decision, matching Explanation.Path: "mined",
	// "cache-hit", "cache-filtered", "ledger", "coalesced" — or "error".
	Path    string
	Latency time.Duration
}

// workloadEntry is one (dataset, algorithm, band) group's decayed state.
type workloadEntry struct {
	dataset   string
	algorithm string
	band      string

	// Decayed weights: total arrivals and per-path splits, all halved every
	// half-life. lastT anchors the decay.
	weight float64
	paths  map[string]float64
	lastT  time.Time

	// The most recent exact query in the group (the last_* fields of
	// /debug/workload).
	lastRec Record

	lat *telemetry.Histogram
}

func (e *workloadEntry) decayTo(now time.Time, halfLife time.Duration) {
	dt := now.Sub(e.lastT)
	if dt <= 0 {
		return
	}
	f := math.Exp2(-dt.Seconds() / halfLife.Seconds())
	e.weight *= f
	for k := range e.paths {
		e.paths[k] *= f
	}
	e.lastT = now
}

// Workload is the concurrent profile table. The zero value is not usable;
// construct with NewWorkload.
type Workload struct {
	halfLife time.Duration
	now      func() time.Time

	mu      sync.Mutex
	entries map[string]*workloadEntry
}

// NewWorkload builds a profile with the given half-life (0 selects
// DefaultWorkloadHalfLife).
func NewWorkload(halfLife time.Duration) *Workload {
	if halfLife <= 0 {
		halfLife = DefaultWorkloadHalfLife
	}
	return &Workload{
		halfLife: halfLife,
		now:      time.Now,
		entries:  make(map[string]*workloadEntry),
	}
}

// ThresholdBand names the log10 decade of the query's primary threshold
// (min_esup when set, min_sup otherwise): "1e-2" covers [0.01, 0.1).
func ThresholdBand(minESup, minSup float64) string {
	th := minESup
	if th <= 0 {
		th = minSup
	}
	if th <= 0 {
		return "none"
	}
	return fmt.Sprintf("1e%d", int(math.Floor(math.Log10(th))))
}

func workloadKey(dataset, algorithm, band string) string {
	return dataset + "\x00" + algorithm + "\x00" + band
}

// Observe folds one served query into the profile.
func (w *Workload) Observe(rec Record) {
	if w == nil {
		return
	}
	now := w.now()
	band := ThresholdBand(rec.MinESup, rec.MinSup)
	key := workloadKey(rec.Dataset, rec.Algorithm, band)
	w.mu.Lock()
	defer w.mu.Unlock()
	e := w.entries[key]
	if e == nil {
		e = &workloadEntry{
			dataset:   rec.Dataset,
			algorithm: rec.Algorithm,
			band:      band,
			paths:     make(map[string]float64),
			lastT:     now,
			lat:       telemetry.NewHistogram(workloadLatencyBuckets),
		}
		w.evictColdestLocked(now)
		w.entries[key] = e
	}
	e.decayTo(now, w.halfLife)
	e.weight++
	e.paths[rec.Path]++
	e.lastRec = rec
	e.lat.Observe(float64(rec.Latency.Nanoseconds()) / 1e6)
}

// evictColdestLocked makes room for one insertion when the table is full.
func (w *Workload) evictColdestLocked(now time.Time) {
	if len(w.entries) < maxWorkloadEntries {
		return
	}
	var coldKey string
	cold := math.Inf(1)
	for k, e := range w.entries {
		e.decayTo(now, w.halfLife)
		if e.weight < cold {
			cold = e.weight
			coldKey = k
		}
	}
	delete(w.entries, coldKey)
}

// WorkloadEntry is one group of the /debug/workload document.
type WorkloadEntry struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`
	Band      string `json:"threshold_band"`
	// RatePerMin estimates current arrivals per minute from the decayed
	// weight (weight × ln2 ÷ half-life).
	RatePerMin float64 `json:"rate_per_min"`
	// Weight is the decayed arrival count the rate derives from.
	Weight float64 `json:"weight"`
	// Paths splits the decayed weight by serving decision.
	Paths map[string]float64 `json:"paths,omitempty"`
	// CacheHitRatio is the decayed fraction of arrivals served without
	// mining (cache-hit + cache-filtered + coalesced); LedgerRatio the
	// fraction served from the incremental ledger.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	LedgerRatio   float64 `json:"ledger_ratio,omitempty"`
	// Latency quantiles in milliseconds over the group's lifetime.
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	// The group's most recent exact query parameters.
	LastMinESup float64 `json:"last_min_esup,omitempty"`
	LastMinSup  float64 `json:"last_min_sup,omitempty"`
	LastPFT     float64 `json:"last_pft,omitempty"`
	LastWorkers int     `json:"last_workers,omitempty"`
}

// WorkloadProfile is the full /debug/workload document.
type WorkloadProfile struct {
	HalfLifeSeconds float64         `json:"half_life_seconds"`
	Groups          []WorkloadEntry `json:"groups"`
}

// Snapshot renders the profile, hottest group first.
func (w *Workload) Snapshot() WorkloadProfile {
	if w == nil {
		return WorkloadProfile{}
	}
	now := w.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	prof := WorkloadProfile{
		HalfLifeSeconds: w.halfLife.Seconds(),
		Groups:          make([]WorkloadEntry, 0, len(w.entries)),
	}
	for _, e := range w.entries {
		e.decayTo(now, w.halfLife)
		prof.Groups = append(prof.Groups, w.renderLocked(e))
	}
	sort.Slice(prof.Groups, func(i, j int) bool {
		if prof.Groups[i].Weight != prof.Groups[j].Weight {
			return prof.Groups[i].Weight > prof.Groups[j].Weight
		}
		a, b := prof.Groups[i], prof.Groups[j]
		if a.Dataset != b.Dataset {
			return a.Dataset < b.Dataset
		}
		if a.Algorithm != b.Algorithm {
			return a.Algorithm < b.Algorithm
		}
		return a.Band < b.Band
	})
	return prof
}

func (w *Workload) renderLocked(e *workloadEntry) WorkloadEntry {
	out := WorkloadEntry{
		Dataset:     e.dataset,
		Algorithm:   e.algorithm,
		Band:        e.band,
		RatePerMin:  e.weight * math.Ln2 / w.halfLife.Minutes(),
		Weight:      e.weight,
		Paths:       make(map[string]float64, len(e.paths)),
		P50MS:       e.lat.Quantile(0.50),
		P95MS:       e.lat.Quantile(0.95),
		P99MS:       e.lat.Quantile(0.99),
		LastMinESup: e.lastRec.MinESup,
		LastMinSup:  e.lastRec.MinSup,
		LastPFT:     e.lastRec.PFT,
		LastWorkers: e.lastRec.Workers,
	}
	for k, v := range e.paths {
		out.Paths[k] = v
	}
	if e.weight > 0 {
		out.CacheHitRatio = (e.paths["cache-hit"] + e.paths["cache-filtered"] + e.paths["coalesced"]) / e.weight
		out.LedgerRatio = e.paths["ledger"] / e.weight
	}
	return out
}

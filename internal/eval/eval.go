// Package eval provides the measurement layer of the reproduction: wall
// clock timing, heap-based memory measurement, and the precision/recall
// accuracy metrics the paper uses to compare approximate miners against the
// exact ones (§4.4).
//
// The paper measures process memory on Windows; this reproduction runs in
// the Go runtime, so memory is measured as the peak live-heap delta during
// the mining run: a forced GC establishes a baseline, a sampling goroutine
// tracks HeapAlloc during the run, and a final forced GC bounds retained
// memory. The algorithm-reported structure sizes
// (core.MiningStats.PeakTrackedBytes) complement this runtime view and are
// immune to allocator noise.
package eval

import (
	"context"
	"runtime"
	"sync"
	"time"

	"umine/internal/core"
)

// Measurement is the outcome of one measured mining run.
type Measurement struct {
	Algorithm string
	// Elapsed is the wall-clock mining time.
	Elapsed time.Duration
	// PeakHeapBytes is the sampled peak of (HeapAlloc − baseline) during
	// the run, never negative.
	PeakHeapBytes int64
	// RetainedBytes is the post-GC heap growth attributable to the result
	// set.
	RetainedBytes int64
	// Results is the mined result set.
	Results *core.ResultSet
	// Err is the mining error, if any (other fields are zero then).
	Err error
}

// memSampleInterval is how often the sampler polls HeapAlloc. 200µs keeps
// overhead negligible while catching sub-millisecond allocation spikes of
// small runs.
const memSampleInterval = 200 * time.Microsecond

// Run executes one measured mining run of m under ctx: a cancellation or
// deadline aborts the mine at its next cooperative checkpoint and surfaces
// as Measurement.Err (= ctx.Err()). m carries its execution options from
// construction (algo.NewWith); results are identical for every Options
// value, so options only affect Elapsed and the heap measurements.
func Run(ctx context.Context, m core.Miner, db *core.Database, th core.Thresholds) Measurement {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		ticker := time.NewTicker(memSampleInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if d := int64(ms.HeapAlloc) - int64(base.HeapAlloc); d > peak {
					peak = d
				}
			}
		}
	}()

	start := time.Now()
	rs, err := m.Mine(ctx, db, th)
	elapsed := time.Since(start)

	// Final sample before stopping (covers runs shorter than the interval).
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	close(stop)
	wg.Wait()
	if d := int64(ms.HeapAlloc) - int64(base.HeapAlloc); d > peak {
		peak = d
	}
	if peak < 0 {
		peak = 0
	}

	runtime.GC()
	runtime.ReadMemStats(&ms)
	retained := int64(ms.HeapAlloc) - int64(base.HeapAlloc)
	if retained < 0 {
		retained = 0
	}

	out := Measurement{Algorithm: m.Name(), Elapsed: elapsed, PeakHeapBytes: peak, RetainedBytes: retained, Err: err}
	if err == nil {
		out.Results = rs
	}
	return out
}

// Accuracy holds the §4.4 approximation-quality metrics: precision
// |AR∩ER|/|AR| and recall |AR∩ER|/|ER|, where AR is the approximate result
// and ER the exact one. Empty denominators yield 1 (vacuous truth, matching
// the paper's treatment of empty result rows).
type Accuracy struct {
	Precision      float64
	Recall         float64
	Approximate    int // |AR|
	Exact          int // |ER|
	Intersection   int // |AR ∩ ER|
	FalsePositives int
	FalseNegatives int
}

// CompareSets computes Accuracy between an approximate and an exact result
// set. Only itemset membership is compared (the paper's P/R definition).
func CompareSets(approx, exact *core.ResultSet) Accuracy {
	exactSet := make(map[string]bool, exact.Len())
	for _, r := range exact.Results {
		exactSet[r.Itemset.Key()] = true
	}
	acc := Accuracy{Approximate: approx.Len(), Exact: exact.Len()}
	for _, r := range approx.Results {
		if exactSet[r.Itemset.Key()] {
			acc.Intersection++
		}
	}
	acc.FalsePositives = acc.Approximate - acc.Intersection
	acc.FalseNegatives = acc.Exact - acc.Intersection
	if acc.Approximate > 0 {
		acc.Precision = float64(acc.Intersection) / float64(acc.Approximate)
	} else {
		acc.Precision = 1
	}
	if acc.Exact > 0 {
		acc.Recall = float64(acc.Intersection) / float64(acc.Exact)
	} else {
		acc.Recall = 1
	}
	return acc
}

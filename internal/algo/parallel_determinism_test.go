package algo

import (
	"context"
	"math"
	"runtime"
	"testing"

	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/dataset"
)

// TestWorkerCountDeterminism is the contract of the parallel-execution
// extension: every registered miner must return a bit-identical ResultSet
// for Workers ∈ {1, 2, GOMAXPROCS}. The shared layer guarantees it by
// construction — work decompositions depend only on the input and shard
// merges happen in canonical order — and this test (run under -race in CI)
// flushes both determinism regressions and shard-merge data races.
func TestWorkerCountDeterminism(t *testing.T) {
	dbs := []*core.Database{
		coretest.PaperDB(),
		// Large enough that the counting pass splits into several chunks
		// (parallel.ChunkSizeFor's minimum chunk is 512 transactions) and
		// the UH-Mine fan-out has many first-level prefixes.
		dataset.Accident.GenerateUncertain(0.004, 11),
		dataset.Gazelle.GenerateUncertain(0.03, 12),
	}
	if testing.Short() {
		// Keep the multi-chunk database — it is the one that exercises the
		// shard merges — but drop the densest workload so the race-enabled
		// CI job stays fast.
		dbs = dbs[:2]
	}
	workerCounts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 {
		workerCounts = append(workerCounts, p)
	}
	for _, db := range dbs {
		for _, name := range Names() {
			m := MustNewWith(name, core.Options{})
			var th core.Thresholds
			switch m.Semantics() {
			case core.ExpectedSupport:
				th = core.Thresholds{MinESup: 0.2}
			case core.Probabilistic:
				th = core.Thresholds{MinSup: 0.25, PFT: 0.9}
			}
			var ref *core.ResultSet
			for _, w := range workerCounts {
				rs, err := MustNewWith(name, core.Options{Workers: w}).Mine(context.Background(), db, th)
				if err != nil {
					t.Fatalf("%s on %s (workers=%d): %v", name, db.Name, w, err)
				}
				if ref == nil {
					ref = rs
					continue
				}
				requireIdenticalResults(t, name, db.Name, workerCounts[0], w, ref, rs)
			}
		}
	}
}

// requireIdenticalResults asserts two result sets are bit-identical:
// the same itemsets in the same order with the same ESup, Var and FreqProb
// bits (NaN-safe), and matching work counters.
func requireIdenticalResults(t *testing.T, algoName, dbName string, refW, w int, ref, got *core.ResultSet) {
	t.Helper()
	if got.Len() != ref.Len() {
		t.Fatalf("%s on %s: workers=%d found %d itemsets, workers=%d found %d",
			algoName, dbName, w, got.Len(), refW, ref.Len())
	}
	for i := range ref.Results {
		a, b := ref.Results[i], got.Results[i]
		if !a.Itemset.Equal(b.Itemset) {
			t.Fatalf("%s on %s: result %d: workers=%d %v vs workers=%d %v",
				algoName, dbName, i, refW, a.Itemset, w, b.Itemset)
		}
		if !sameBits(a.ESup, b.ESup) || !sameBits(a.Var, b.Var) || !sameBits(a.FreqProb, b.FreqProb) {
			t.Fatalf("%s on %s: %v measures differ between workers=%d and workers=%d: (%v,%v,%v) vs (%v,%v,%v)",
				algoName, dbName, a.Itemset, refW, w, a.ESup, a.Var, a.FreqProb, b.ESup, b.Var, b.FreqProb)
		}
	}
	// Work counters must match too: parallelism may not change how much
	// algorithmic work happens, only who performs it. (PeakTrackedBytes is
	// part of the per-level accounting and merges by max, so it is equal as
	// well.)
	if ref.Stats != got.Stats {
		t.Fatalf("%s on %s: stats differ between workers=%d and workers=%d:\n%+v\nvs\n%+v",
			algoName, dbName, refW, w, ref.Stats, got.Stats)
	}
}

// sameBits compares floats bitwise, treating all NaNs as equal (PDUApriori
// reports FreqProb = NaN by design).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

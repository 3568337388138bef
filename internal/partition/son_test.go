package partition_test

// The SON completeness / bit-identity contract of the partitioned mining
// engine: for every partition-capable registered configuration, a
// partitioned mine (any K, any worker count) returns a ResultSet whose
// Results are bit-identical to a single-shot mine — same itemsets in the
// same canonical order with the same ESup/Var/FreqProb bits. Phase 1 runs
// the per-family candidate floor over every partition, phase 2 re-runs the
// target miner restricted to the candidate union, so both SON completeness
// (nothing frequent is lost) and precision (nothing extra survives) are
// asserted by one comparison against the unpartitioned reference.

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/partition"
)

// sonDBs returns the bit-identity fixtures: the paper's worked example
// (tiny: partitions beyond K > N stay empty), a multi-chunk random database
// (arbitrary float probabilities stress summation-order identity), and a
// rounded-probability database (UFP-tree node sharing actually occurs).
func sonDBs(t *testing.T) []*core.Database {
	dbs := []*core.Database{
		coretest.PaperDB(),
		coretest.RandomDB(rand.New(rand.NewSource(41)), 1400, 12, 0.6),
		coretest.RandomDBRounded(rand.New(rand.NewSource(42)), 500, 10, 0.6, 8),
	}
	if testing.Short() {
		// Keep the multi-chunk database — the one exercising chunked
		// counting across partition boundaries — and the paper example.
		dbs = dbs[:2]
	}
	return dbs
}

// sonThresholds picks thresholds deep enough that several levels mine (the
// paper example's N = 4 needs high ratios; the random databases need low
// ones so pairs and triples are frequent, not just singletons).
func sonThresholds(db *core.Database, sem core.Semantics) core.Thresholds {
	if db.N() <= 16 {
		if sem == core.ExpectedSupport {
			return core.Thresholds{MinESup: 0.2}
		}
		// msc = 1: exercises the degenerate Markov floor.
		return core.Thresholds{MinSup: 0.25, PFT: 0.9}
	}
	if sem == core.ExpectedSupport {
		return core.Thresholds{MinESup: 0.02}
	}
	return core.Thresholds{MinSup: 0.05, PFT: 0.7}
}

// partitionableNames returns the ten paper configurations (everything but
// MCSampling), asserting the expected count so a registry change cannot
// silently shrink this suite's coverage.
func partitionableNames(t *testing.T) []string {
	var names []string
	for _, n := range algo.Names() {
		if algo.SupportsPartitions(n) {
			names = append(names, n)
		}
	}
	if len(names) != 10 {
		t.Fatalf("expected the ten paper configurations to be partition-capable, got %d: %v", len(names), names)
	}
	return names
}

func TestPartitionedMineBitIdentical(t *testing.T) {
	dbs := sonDBs(t)
	ks := []int{1, 2, 4, 7}
	workerCounts := []int{1, 4}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, db := range dbs {
		for _, name := range partitionableNames(t) {
			sem := algo.MustNewWith(name, core.Options{}).Semantics()
			th := sonThresholds(db, sem)
			ref, err := algo.MustNewWith(name, core.Options{}).Mine(context.Background(), db, th)
			if err != nil {
				t.Fatalf("%s single-shot on %s: %v", name, db.Name, err)
			}
			for _, k := range ks {
				for _, w := range workerCounts {
					m, err := algo.NewWith(name, core.Options{Partitions: k, Workers: w})
					if err != nil {
						t.Fatalf("%s: NewWith(partitions=%d): %v", name, k, err)
					}
					rs, err := m.Mine(context.Background(), db, th)
					if err != nil {
						t.Fatalf("%s on %s (K=%d, workers=%d): %v", name, db.Name, k, w, err)
					}
					requireSameResults(t, name, db.Name, k, w, ref, rs)
				}
			}
		}
	}
}

// requireSameResults asserts the partitioned result is bit-identical to the
// single-shot reference: itemsets, order, and all measure bits (NaN-safe;
// PDUApriori reports FreqProb = NaN by design). Stats are intentionally not
// compared — a partitioned run counts the work it actually did (K partition
// mines plus the restricted verification).
func requireSameResults(t *testing.T, name, dbName string, k, w int, ref, got *core.ResultSet) {
	t.Helper()
	if got.Algorithm != ref.Algorithm || got.Semantics != ref.Semantics || got.N != ref.N || got.Thresholds != ref.Thresholds {
		t.Fatalf("%s on %s (K=%d, workers=%d): header differs: %+v vs %+v",
			name, dbName, k, w, header(got), header(ref))
	}
	if got.Len() != ref.Len() {
		t.Fatalf("%s on %s (K=%d, workers=%d): %d itemsets, single-shot found %d",
			name, dbName, k, w, got.Len(), ref.Len())
	}
	for i := range ref.Results {
		a, b := ref.Results[i], got.Results[i]
		if !a.Itemset.Equal(b.Itemset) {
			t.Fatalf("%s on %s (K=%d, workers=%d): result %d: %v vs single-shot %v",
				name, dbName, k, w, i, b.Itemset, a.Itemset)
		}
		if !sameBits(a.ESup, b.ESup) || !sameBits(a.Var, b.Var) || !sameBits(a.FreqProb, b.FreqProb) {
			t.Fatalf("%s on %s (K=%d, workers=%d): %v measures differ: (%v,%v,%v) vs single-shot (%v,%v,%v)",
				name, dbName, k, w, a.Itemset, b.ESup, b.Var, b.FreqProb, a.ESup, a.Var, a.FreqProb)
		}
	}
}

func header(rs *core.ResultSet) [4]any {
	return [4]any{rs.Algorithm, rs.Semantics, rs.N, rs.Thresholds}
}

func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestPartitionedWorkerIndependence pins the satellite bugfix contract
// directly: partition boundaries (and hence the candidate union and the
// merged result) derive from (N, K) alone, so the same K at wildly
// different worker counts yields identical results — partitioned mines are
// reproducible across machine sizes.
func TestPartitionedWorkerIndependence(t *testing.T) {
	db := coretest.RandomDB(rand.New(rand.NewSource(43)), 900, 10, 0.5)
	th := core.Thresholds{MinESup: 0.15}
	var ref *core.ResultSet
	for _, w := range []int{1, 2, 3, 16, -1} {
		m, err := algo.NewWith("UApriori", core.Options{Partitions: 4, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := m.Mine(context.Background(), db, th)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = rs
			continue
		}
		requireSameResults(t, "UApriori", db.Name, 4, w, ref, rs)
	}
}

// TestPartitionEngineProgress asserts the per-partition observability: a
// K-partition mine emits one PhasePartition event per non-empty partition
// before the phase-2 stream, and still ends with PhaseDone.
func TestPartitionEngineProgress(t *testing.T) {
	db := coretest.RandomDB(rand.New(rand.NewSource(44)), 600, 10, 0.5)
	var mu sync.Mutex
	var partitions []int
	var done bool
	m, err := algo.NewWith("UH-Mine", core.Options{
		Partitions: 4,
		Workers:    2,
		Progress: func(ev core.ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Phase {
			case core.PhasePartition:
				partitions = append(partitions, ev.Level)
			case core.PhaseDone:
				done = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mine(context.Background(), db, core.Thresholds{MinESup: 0.2}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(partitions) != 4 {
		t.Fatalf("got %d PhasePartition events (%v), want 4", len(partitions), partitions)
	}
	seen := map[int]bool{}
	for _, p := range partitions {
		if p < 1 || p > 4 || seen[p] {
			t.Fatalf("bad partition ordinals %v", partitions)
		}
		seen[p] = true
	}
	if !done {
		t.Fatal("no PhaseDone event")
	}
}

// TestPartitionProgressTotalsAndEmptyPartitions pins two observability
// contracts: the final PhaseDone event carries the exact run totals
// (phase-1 work included, matching the returned Stats), and empty
// partitions (K > N) are neither mined, nor announced as PhasePartition
// events, nor counted in RunStats.Partitions.
func TestPartitionProgressTotalsAndEmptyPartitions(t *testing.T) {
	db := coretest.PaperDB() // N = 4, so K = 7 leaves 3 partitions empty
	var mu sync.Mutex
	var partitionEvents int
	var doneStats core.MiningStats
	var runStats partition.RunStats
	eng, err := algo.NewPartitionEngine("UApriori", core.Options{Partitions: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng.Progress = func(ev core.ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Phase {
		case core.PhasePartition:
			partitionEvents++
		case core.PhaseDone:
			doneStats = ev.Stats
		}
	}
	eng.Observe = func(st partition.RunStats) {
		mu.Lock()
		defer mu.Unlock()
		runStats = st
	}
	rs, err := eng.Mine(context.Background(), db, core.Thresholds{MinESup: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if partitionEvents != 4 {
		t.Errorf("PhasePartition events = %d, want 4 (empty partitions announce nothing)", partitionEvents)
	}
	if runStats.Partitions != 4 {
		t.Errorf("RunStats.Partitions = %d, want 4 (empty partitions are not mined)", runStats.Partitions)
	}
	if doneStats != rs.Stats {
		t.Errorf("PhaseDone stats %+v differ from returned Stats %+v (phase-1 work missing from the done event?)", doneStats, rs.Stats)
	}
	if runStats.Candidates == 0 || rs.Len() == 0 {
		t.Errorf("degenerate run: candidates=%d results=%d", runStats.Candidates, rs.Len())
	}
}

package apriori

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/dataset"
)

// The vertical plan's contract: countVertical must produce aggregates that
// are bit-identical — not approximately equal — to the horizontal chunked
// scan, for any candidate set, any worker count, and databases both below
// and above the chunking threshold. The crossover heuristic is then free to
// switch plans without ever moving a result bit (which is what keeps the
// worker-determinism and partition bit-identity suites layout-agnostic).

// verticalFixtures returns databases on both sides of the chunk boundary
// (parallel.ChunkSizeFor's minimum chunk is 512 transactions).
func verticalFixtures() []*core.Database {
	return []*core.Database{
		coretest.PaperDB(),
		coretest.RandomDB(rand.New(rand.NewSource(7)), 300, 10, 0.4),
		coretest.RandomDB(rand.New(rand.NewSource(8)), 1400, 12, 0.3),
		dataset.Gazelle.GenerateUncertain(0.02, 9),
	}
}

// candidatesAt counts level 1 horizontally and generates the level-k
// candidate sets the way Run does, returning the candidates of level k
// (nil when the lattice dries up earlier).
func candidatesAt(t *testing.T, db *core.Database, minESup float64, k int) []Candidate {
	t.Helper()
	var stats core.MiningStats
	cands := make([]Candidate, 0, db.NumItems)
	for i := 0; i < db.NumItems; i++ {
		cands = append(cands, Candidate{Items: core.Itemset{core.Item(i)}})
	}
	if err := countChunked(context.Background(), db, cands, 1, false, 1, &stats); err != nil {
		t.Fatal(err)
	}
	minCount := minESup * float64(db.N())
	level := 1
	for {
		var frequent []core.Itemset
		for i := range cands {
			if cands[i].ESup >= minCount-core.Eps {
				frequent = append(frequent, cands[i].Items)
			}
		}
		if level == k || len(frequent) < 2 {
			if level == k {
				return cands
			}
			return nil
		}
		next := Generate(frequent, nil, Config{}, &stats)
		if len(next) == 0 {
			return nil
		}
		if err := countChunked(context.Background(), db, next, len(next[0].Items), false, 1, &stats); err != nil {
			t.Fatal(err)
		}
		cands = next
		level = len(next[0].Items)
	}
}

func freshCandidates(cands []Candidate) []Candidate {
	out := make([]Candidate, len(cands))
	for i := range cands {
		out[i] = Candidate{Items: cands[i].Items}
	}
	return out
}

// TestSparseCountAllocs: counting a sparse set of pair candidates — the
// shape of a long-tailed level 2 or a SON phase-2 verification — costs a
// fixed handful of allocations, fresh candidates included, however large the
// database. The horizontal plan allocates 64 times on this workload, so the
// bound also pins that Count picks the vertical plan for it.
func TestSparseCountAllocs(t *testing.T) {
	db := dataset.Gazelle.GenerateUncertain(0.2, 21)
	base := bandPairCandidates(db, 96, 8)
	db.Vertical() // built once per database, not per counting pass
	var stats core.MiningStats
	cfg := Config{Workers: 1}
	allocs := testing.AllocsPerRun(20, func() {
		var ex core.ExecStats
		if err := Count(context.Background(), db, freshCandidates(base), 2, cfg, &stats, &ex); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("counting %d sparse pairs: %v allocs per pass, want ≤ 4", len(base), allocs)
	}
}

// bandPairCandidates pairs the bandWidth items starting at descending-count
// rank rankLo (ties broken by item id), in canonical order.
func bandPairCandidates(db *core.Database, rankLo, bandWidth int) []Candidate {
	counts := db.ItemTIDCounts()
	items := make([]core.Item, len(counts))
	for it := range items {
		items[it] = core.Item(it)
	}
	sort.Slice(items, func(i, j int) bool {
		if counts[items[i]] != counts[items[j]] {
			return counts[items[i]] > counts[items[j]]
		}
		return items[i] < items[j]
	})
	band := items[rankLo : rankLo+bandWidth]
	var cands []Candidate
	for i := range band {
		for j := i + 1; j < len(band); j++ {
			cands = append(cands, Candidate{Items: core.NewItemset(band[i], band[j])})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Items.Compare(cands[j].Items) < 0 })
	return cands
}

func TestVerticalCountBitIdenticalToHorizontal(t *testing.T) {
	for _, db := range verticalFixtures() {
		for _, k := range []int{2, 3} {
			base := candidatesAt(t, db, 0.05, k)
			if base == nil {
				continue
			}
			for _, collectProbs := range []bool{false, true} {
				var hs, vs core.MiningStats
				horizontal := freshCandidates(base)
				if err := countChunked(context.Background(), db, horizontal, k, collectProbs, 1, &hs); err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					var ex core.ExecStats
					vertical := freshCandidates(base)
					if err := countVertical(context.Background(), db, vertical, collectProbs, workers, &vs, &ex); err != nil {
						t.Fatal(err)
					}
					for i := range horizontal {
						h, v := &horizontal[i], &vertical[i]
						if math.Float64bits(h.ESup) != math.Float64bits(v.ESup) ||
							math.Float64bits(h.Var) != math.Float64bits(v.Var) {
							t.Fatalf("%s k=%d workers=%d %v: vertical (%v,%v) != horizontal (%v,%v)",
								db.Name, k, workers, h.Items, v.ESup, v.Var, h.ESup, h.Var)
						}
						if collectProbs {
							if len(h.Probs) != len(v.Probs) {
								t.Fatalf("%s %v: prob vector length %d vs %d", db.Name, h.Items, len(v.Probs), len(h.Probs))
							}
							for j := range h.Probs {
								if math.Float64bits(h.Probs[j]) != math.Float64bits(v.Probs[j]) {
									t.Fatalf("%s %v: prob[%d] %v vs %v", db.Name, h.Items, j, v.Probs[j], h.Probs[j])
								}
							}
						}
					}
					if ex.KernelIntersects != int64(len(vertical)) {
						t.Fatalf("%s: exec counters did not attribute the pass: %+v", db.Name, ex)
					}
				}
			}
		}
	}
}

// TestUseVerticalHeuristic pins the crossover's qualitative behaviour: a
// huge dense candidate set must scan horizontally, a handful of rare-item
// candidates must probe postings, and level 1 never goes vertical.
func TestUseVerticalHeuristic(t *testing.T) {
	db := dataset.Gazelle.GenerateUncertain(0.02, 9)
	counts := db.ItemTIDCounts()
	// A sparse item (few postings) and its rarest peers.
	var rare []core.Item
	for it, c := range counts {
		if c > 0 && int(c) < db.N()/100 {
			rare = append(rare, core.Item(it))
		}
		if len(rare) == 4 {
			break
		}
	}
	if len(rare) < 2 {
		t.Skip("fixture has no rare items")
	}
	sparse := []Candidate{{Items: core.NewItemset(rare[0], rare[1])}}
	if !useVertical(db, sparse, 2) {
		t.Error("a single rare-pair candidate should intersect postings")
	}
	if useVertical(db, sparse, 1) {
		t.Error("level 1 must always scan horizontally")
	}
	// Every item pair over the densest items: probe work rivals the scan.
	var dense []Candidate
	for a := 0; a < db.NumItems && len(dense) < 4096; a++ {
		for b := a + 1; b < db.NumItems && len(dense) < 4096; b++ {
			dense = append(dense, Candidate{Items: core.NewItemset(core.Item(a), core.Item(b))})
		}
	}
	if useVertical(db, dense, 2) {
		t.Error("a dense pair blanket should fall back to the horizontal scan")
	}
}

// TestVerticalCancellation: countVertical must honor ctx between candidates.
func TestVerticalCancellation(t *testing.T) {
	db := coretest.RandomDB(rand.New(rand.NewSource(3)), 600, 8, 0.5)
	cands := candidatesAt(t, db, 0.05, 2)
	if cands == nil {
		t.Fatal("fixture generated no level-2 candidates")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stats core.MiningStats
	var ex core.ExecStats
	if err := countVertical(ctx, db, freshCandidates(cands), false, 4, &stats, &ex); err != context.Canceled {
		t.Fatalf("canceled countVertical returned %v", err)
	}
}

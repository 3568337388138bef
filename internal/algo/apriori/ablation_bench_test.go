package apriori

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"umine/internal/core"
	"umine/internal/dataset"
)

// BenchmarkAblationCounting isolates the design decision DESIGN.md calls
// out: candidate counting via the shared prefix trie versus the naive
// per-candidate database scan. The trie amortizes shared prefixes — its
// advantage grows with the number of candidates per level.
func BenchmarkAblationCounting(b *testing.B) {
	db := dataset.Accident.GenerateUncertain(0.002, 42)
	for _, numCands := range []int{16, 128, 1024} {
		cands := pairCandidates(db, numCands)
		b.Run(fmt.Sprintf("trie/cands=%d", numCands), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				work := cloneCandidates(cands)
				var stats core.MiningStats
				countChunked(context.Background(), db, work, 2, false, 1, &stats)
			}
		})
		b.Run(fmt.Sprintf("naive/cands=%d", numCands), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				work := cloneCandidates(cands)
				countNaive(db, work)
			}
		})
	}
}

// pairCandidates builds up to n 2-itemset candidates over the most frequent
// items, mimicking a level-2 counting pass.
func pairCandidates(db *core.Database, n int) []Candidate {
	esup, _ := db.ItemESupVar()
	type ranked struct {
		it core.Item
		e  float64
	}
	var items []ranked
	for it, e := range esup {
		if e > 0 {
			items = append(items, ranked{core.Item(it), e})
		}
	}
	// Simple selection of high-support items first to keep candidates
	// realistic (they actually occur).
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			if items[j].e > items[i].e {
				items[i], items[j] = items[j], items[i]
			}
		}
	}
	var cands []Candidate
	for i := 0; i < len(items) && len(cands) < n; i++ {
		for j := i + 1; j < len(items) && len(cands) < n; j++ {
			cands = append(cands, Candidate{Items: core.NewItemset(items[i].it, items[j].it)})
		}
	}
	// buildTrie requires canonical candidate order.
	sort.Slice(cands, func(i, j int) bool { return cands[i].Items.Compare(cands[j].Items) < 0 })
	return cands
}

func cloneCandidates(cands []Candidate) []Candidate {
	out := make([]Candidate, len(cands))
	for i := range cands {
		out[i] = Candidate{Items: cands[i].Items}
	}
	return out
}

// countNaive is the baseline the trie replaces: one full itemset-probability
// computation per candidate per transaction.
func countNaive(db *core.Database, cands []Candidate) {
	for i := range cands {
		for _, tx := range db.Transactions() {
			p := tx.ItemsetProb(cands[i].Items)
			cands[i].ESup += p
			cands[i].Var += p * (1 - p)
		}
	}
}

// TestCountNaiveMatchesTrie keeps the benchmark baseline honest: both
// counting strategies must produce identical aggregates.
func TestCountNaiveMatchesTrie(t *testing.T) {
	db := dataset.Gazelle.GenerateUncertain(0.005, 7)
	cands := pairCandidates(db, 64)
	naive := cloneCandidates(cands)
	countNaive(db, naive)
	trie := cloneCandidates(cands)
	var stats core.MiningStats
	countChunked(context.Background(), db, trie, 2, false, 1, &stats)
	for i := range cands {
		if d := naive[i].ESup - trie[i].ESup; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%v: naive esup %v, trie %v", cands[i].Items, naive[i].ESup, trie[i].ESup)
		}
		if d := naive[i].Var - trie[i].Var; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%v: naive var %v, trie %v", cands[i].Items, naive[i].Var, trie[i].Var)
		}
	}
}

package uhmine_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"umine/internal/algo"
	"umine/internal/algo/uhmine"
	"umine/internal/core"
	"umine/internal/core/coretest"
)

func newUHMine() core.Miner { return algo.MustNewWith("UH-Mine", core.Options{}) }

func TestPaperExample1(t *testing.T) {
	db := coretest.PaperDB()
	rs, err := newUHMine().Mine(context.Background(), db, core.Thresholds{MinESup: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("got %d itemsets, want 2 (A, C)", rs.Len())
	}
	a, _ := rs.Lookup(core.NewItemset(coretest.A))
	if math.Abs(a.ESup-2.1) > 1e-12 {
		t.Fatalf("esup(A) = %v", a.ESup)
	}
}

func TestAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 60; trial++ {
		db := coretest.RandomDB(rng, 10+rng.Intn(30), 6, 0.3+0.5*rng.Float64())
		minESup := 0.05 + 0.5*rng.Float64()
		rs, err := newUHMine().Mine(context.Background(), db, core.Thresholds{MinESup: minESup})
		if err != nil {
			t.Fatal(err)
		}
		want := coretest.BruteForceExpected(db, minESup)
		if rs.Len() != len(want) {
			t.Fatalf("trial %d: got %d itemsets, want %d", trial, rs.Len(), len(want))
		}
		for i := range want {
			if !rs.Results[i].Itemset.Equal(want[i].Itemset) {
				t.Fatalf("itemset %d: %v vs %v", i, rs.Results[i].Itemset, want[i].Itemset)
			}
			if math.Abs(rs.Results[i].ESup-want[i].ESup) > 1e-9 {
				t.Fatalf("%v esup %v vs %v", want[i].Itemset, rs.Results[i].ESup, want[i].ESup)
			}
			if math.Abs(rs.Results[i].Var-want[i].Var) > 1e-9 {
				t.Fatalf("%v var %v vs %v", want[i].Itemset, rs.Results[i].Var, want[i].Var)
			}
		}
	}
}

func TestSparseDataDeepPatterns(t *testing.T) {
	// A chain-structured database with high probabilities produces deep
	// prefix recursion; verify against brute force.
	db := core.MustNewDatabase("chain", [][]core.Unit{
		{{Item: 0, Prob: 0.9}, {Item: 1, Prob: 0.9}, {Item: 2, Prob: 0.9}, {Item: 3, Prob: 0.9}, {Item: 4, Prob: 0.9}},
		{{Item: 0, Prob: 0.9}, {Item: 1, Prob: 0.9}, {Item: 2, Prob: 0.9}, {Item: 3, Prob: 0.9}},
		{{Item: 0, Prob: 0.9}, {Item: 1, Prob: 0.9}, {Item: 2, Prob: 0.9}},
		{{Item: 0, Prob: 0.9}, {Item: 1, Prob: 0.9}},
		{{Item: 0, Prob: 0.9}},
	})
	rs, err := newUHMine().Mine(context.Background(), db, core.Thresholds{MinESup: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	want := coretest.BruteForceExpected(db, 0.2)
	if rs.Len() != len(want) {
		t.Fatalf("got %d, want %d", rs.Len(), len(want))
	}
	// {0 1 2 3 4} has esup 0.9^5 ≈ 0.59 < 1.0 → infrequent; {0 1 2 3} has
	// 2·0.9⁴ ≈ 1.31 > 1.0 → frequent.
	if _, ok := rs.Lookup(core.NewItemset(0, 1, 2, 3)); !ok {
		t.Fatal("{0 1 2 3} should be frequent")
	}
	if _, ok := rs.Lookup(core.NewItemset(0, 1, 2, 3, 4)); ok {
		t.Fatal("{0 1 2 3 4} should be infrequent")
	}
}

func TestEngineItemFloorFiltersBeforeDecide(t *testing.T) {
	db := coretest.PaperDB()
	calls := 0
	e := &uhmine.Engine{
		ItemFloor: 2.0, // only A (2.1) and C (2.6) pass
		Decide: func(items core.Itemset, esup, varsup float64) (core.Result, bool) {
			calls++
			return core.Result{Itemset: items, ESup: esup, Var: varsup}, true
		},
	}
	results, _, _ := e.Run(context.Background(), db)
	// Items A, C pass the floor; extensions {A C} evaluated too.
	if calls != 3 {
		t.Fatalf("decide called %d times, want 3 (A, C, AC)", calls)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestEmptyDatabase(t *testing.T) {
	rs, err := newUHMine().Mine(context.Background(), core.MustNewDatabase("empty", nil), core.Thresholds{MinESup: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Fatal("results on empty database")
	}
}

func TestRejectsBadThresholds(t *testing.T) {
	if _, err := newUHMine().Mine(context.Background(), coretest.PaperDB(), core.Thresholds{MinESup: 0}); err == nil {
		t.Fatal("min_esup 0 accepted")
	}
}

func TestPeakMemoryTracked(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	db := coretest.RandomDB(rng, 100, 10, 0.5)
	rs, err := newUHMine().Mine(context.Background(), db, core.Thresholds{MinESup: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stats.PeakTrackedBytes == 0 {
		t.Fatal("peak bytes not tracked")
	}
	if rs.Stats.DBScans != 2 {
		t.Fatalf("UH-Mine must scan the database exactly twice, got %d", rs.Stats.DBScans)
	}
}

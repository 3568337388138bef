package algo

// The UApriori suite: the expected-support rule on the Apriori framework.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"umine/internal/core"
	"umine/internal/core/coretest"
)

func newUApriori() core.Miner { return MustNewWith("UApriori", core.Options{}) }

func TestPaperExample1(t *testing.T) {
	db := coretest.PaperDB()
	rs, err := newUApriori().Mine(context.Background(), db, core.Thresholds{MinESup: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("got %d itemsets, want 2: %+v", rs.Len(), rs.Results)
	}
	a, _ := rs.Lookup(core.NewItemset(coretest.A))
	c, _ := rs.Lookup(core.NewItemset(coretest.C))
	if math.Abs(a.ESup-2.1) > 1e-12 || math.Abs(c.ESup-2.6) > 1e-12 {
		t.Fatalf("esup(A)=%v esup(C)=%v", a.ESup, c.ESup)
	}
}

func TestPaperDBLowerThreshold(t *testing.T) {
	// At min_esup = 0.25 (threshold 1.0) the frequent set grows to include
	// 2-itemsets; validate against brute force.
	db := coretest.PaperDB()
	rs, err := newUApriori().Mine(context.Background(), db, core.Thresholds{MinESup: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	want := coretest.BruteForceExpected(db, 0.25)
	compareResults(t, rs.Results, want)
}

func compareResults(t *testing.T, got, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d itemsets, want %d\ngot: %v\nwant: %v", len(got), len(want), names(got), names(want))
	}
	for i := range want {
		if !got[i].Itemset.Equal(want[i].Itemset) {
			t.Fatalf("itemset %d: %v vs %v", i, got[i].Itemset, want[i].Itemset)
		}
		if math.Abs(got[i].ESup-want[i].ESup) > 1e-9 {
			t.Fatalf("%v esup %v vs %v", got[i].Itemset, got[i].ESup, want[i].ESup)
		}
		if math.Abs(got[i].Var-want[i].Var) > 1e-9 {
			t.Fatalf("%v var %v vs %v", got[i].Itemset, got[i].Var, want[i].Var)
		}
	}
}

func names(rs []core.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Itemset.String()
	}
	return out
}

func TestAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		db := coretest.RandomDB(rng, 10+rng.Intn(30), 6, 0.4+0.4*rng.Float64())
		minESup := 0.05 + 0.5*rng.Float64()
		rs, err := newUApriori().Mine(context.Background(), db, core.Thresholds{MinESup: minESup})
		if err != nil {
			t.Fatal(err)
		}
		want := coretest.BruteForceExpected(db, minESup)
		compareResults(t, rs.Results, want)
	}
}

func TestUAprioriRejectsBadThresholds(t *testing.T) {
	db := coretest.PaperDB()
	for _, th := range []core.Thresholds{{MinESup: 0}, {MinESup: -0.5}, {MinESup: 2}} {
		if _, err := newUApriori().Mine(context.Background(), db, th); err == nil {
			t.Errorf("thresholds %+v accepted", th)
		}
	}
}

func TestEmptyAndDegenerateDatabases(t *testing.T) {
	empty := core.MustNewDatabase("empty", nil)
	rs, err := newUApriori().Mine(context.Background(), empty, core.Thresholds{MinESup: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Fatalf("empty database produced %d itemsets", rs.Len())
	}

	// All-empty transactions.
	blank := core.MustNewDatabase("blank", [][]core.Unit{{}, {}, {}})
	rs, err = newUApriori().Mine(context.Background(), blank, core.Thresholds{MinESup: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Fatalf("blank database produced %d itemsets", rs.Len())
	}

	// Single certain transaction: the itemset lattice of that transaction.
	one := core.MustNewDatabase("one", [][]core.Unit{{{Item: 0, Prob: 1}, {Item: 1, Prob: 1}}})
	rs, err = newUApriori().Mine(context.Background(), one, core.Thresholds{MinESup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 3 { // {0}, {1}, {0 1}
		t.Fatalf("got %d itemsets, want 3: %v", rs.Len(), names(rs.Results))
	}
}

func TestCertainDataMatchesClassicalApriori(t *testing.T) {
	// With all probabilities 1 the expected support is the classical
	// support; compare with a hand-computed example.
	db := core.MustNewDatabase("certain", [][]core.Unit{
		{{Item: 0, Prob: 1}, {Item: 1, Prob: 1}, {Item: 2, Prob: 1}},
		{{Item: 0, Prob: 1}, {Item: 1, Prob: 1}},
		{{Item: 0, Prob: 1}, {Item: 2, Prob: 1}},
		{{Item: 1, Prob: 1}, {Item: 2, Prob: 1}},
	})
	rs, err := newUApriori().Mine(context.Background(), db, core.Thresholds{MinESup: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Supports: {0}:3 {1}:3 {2}:3 {01}:2 {02}:2 {12}:2 {012}:1 → threshold 2.
	if rs.Len() != 6 {
		t.Fatalf("got %d itemsets, want 6: %v", rs.Len(), names(rs.Results))
	}
	if _, ok := rs.Lookup(core.NewItemset(0, 1, 2)); ok {
		t.Fatal("{0 1 2} has support 1 and must not be frequent")
	}
}

func TestStatsAreTracked(t *testing.T) {
	db := coretest.PaperDB()
	rs, err := newUApriori().Mine(context.Background(), db, core.Thresholds{MinESup: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stats.CandidatesGenerated == 0 || rs.Stats.DBScans == 0 {
		t.Fatalf("stats not tracked: %+v", rs.Stats)
	}
	if rs.Stats.PeakTrackedBytes == 0 {
		t.Fatal("peak bytes not tracked")
	}
}

package apriori

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"umine/internal/core"
	"umine/internal/core/coretest"
)

// expectedSupportDecide builds the plain UApriori decision for tests.
func expectedSupportDecide(minCount float64) func(c *Candidate) (core.Result, Verdict) {
	return func(c *Candidate) (core.Result, Verdict) {
		if c.ESup >= minCount-core.Eps {
			return core.Result{Itemset: c.Items, ESup: c.ESup, Var: c.Var}, Frequent
		}
		return core.Result{}, 0
	}
}

func TestRunMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 40; trial++ {
		db := coretest.RandomDB(rng, 20, 6, 0.5)
		minESup := 0.1 + 0.4*rng.Float64()
		minCount := float64(db.N()) * minESup
		results, _, _ := Run(context.Background(), db, Config{Decide: expectedSupportDecide(minCount)})
		want := coretest.BruteForceExpected(db, minESup)
		if len(results) != len(want) {
			t.Fatalf("got %d, want %d", len(results), len(want))
		}
		for i := range want {
			if !results[i].Itemset.Equal(want[i].Itemset) {
				t.Fatalf("itemset %d: %v vs %v", i, results[i].Itemset, want[i].Itemset)
			}
		}
	}
}

func TestCollectProbsMatchesTxProbs(t *testing.T) {
	db := coretest.PaperDB()
	var seen []*Candidate
	Run(context.Background(), db, Config{
		CollectProbs: true,
		Decide: func(c *Candidate) (core.Result, Verdict) {
			cc := *c
			cc.Probs = append([]float64(nil), c.Probs...)
			seen = append(seen, &cc)
			if c.ESup >= 1 {
				return core.Result{Itemset: c.Items, ESup: c.ESup}, Frequent
			}
			return core.Result{}, 0
		},
	})
	for _, c := range seen {
		want := db.TxProbs(c.Items)
		var nonzero []float64
		for _, p := range want {
			if p > 0 {
				nonzero = append(nonzero, p)
			}
		}
		if len(nonzero) != len(c.Probs) {
			t.Fatalf("%v: %d probs, want %d", c.Items, len(c.Probs), len(nonzero))
		}
		// The trie walk visits transactions in order, so vectors align.
		for i := range nonzero {
			if math.Abs(nonzero[i]-c.Probs[i]) > 1e-12 {
				t.Fatalf("%v prob %d: %v vs %v", c.Items, i, c.Probs[i], nonzero[i])
			}
		}
	}
}

func TestTrieCountingAgainstNaive(t *testing.T) {
	// The trie walk must accumulate exactly Σ_t Pr(X ⊆ t) per candidate.
	rng := rand.New(rand.NewSource(402))
	db := coretest.RandomDB(rng, 50, 10, 0.5)
	cands := []Candidate{
		{Items: core.NewItemset(0, 1)},
		{Items: core.NewItemset(0, 2)},
		{Items: core.NewItemset(1, 9)},
		{Items: core.NewItemset(3, 4)},
		{Items: core.NewItemset(8, 9)},
	}
	var stats core.MiningStats
	countChunked(context.Background(), db, cands, 2, false, 1, &stats)
	for i := range cands {
		want, wantVar := db.ESupVar(cands[i].Items)
		if math.Abs(cands[i].ESup-want) > 1e-9 {
			t.Fatalf("%v esup %v, want %v", cands[i].Items, cands[i].ESup, want)
		}
		if math.Abs(cands[i].Var-wantVar) > 1e-9 {
			t.Fatalf("%v var %v, want %v", cands[i].Items, cands[i].Var, wantVar)
		}
	}
}

func TestGenerateJoinAndPrune(t *testing.T) {
	frequent := []core.Itemset{
		core.NewItemset(1, 2),
		core.NewItemset(1, 3),
		core.NewItemset(2, 3),
		core.NewItemset(2, 4),
	}
	var stats core.MiningStats
	cands := Generate(frequent, nil, Config{}, &stats)
	// Joins: {1,2}+{1,3} → {1,2,3} (all subsets frequent: {2,3} ✓);
	// {2,3}+{2,4} → {2,3,4} (subset {3,4} missing → pruned).
	if len(cands) != 1 || !cands[0].Items.Equal(core.NewItemset(1, 2, 3)) {
		t.Fatalf("candidates = %+v", cands)
	}
	if stats.CandidatesPruned != 1 {
		t.Fatalf("pruned = %d, want 1", stats.CandidatesPruned)
	}
}

func TestGenerateESupBound(t *testing.T) {
	frequent := []core.Itemset{
		core.NewItemset(1, 2),
		core.NewItemset(1, 3),
		core.NewItemset(2, 3),
	}
	esups := map[string]float64{
		core.NewItemset(1, 2).Key(): 5,
		core.NewItemset(1, 3).Key(): 5,
		core.NewItemset(2, 3).Key(): 1, // bound: esup({1,2,3}) ≤ 1
	}
	var stats core.MiningStats
	if cands := Generate(frequent, esups, Config{ESupPrune: 2}, &stats); len(cands) != 0 {
		t.Fatalf("esup bound did not prune: %+v", cands)
	}
	stats = core.MiningStats{}
	if cands := Generate(frequent, esups, Config{ESupPrune: 0.5}, &stats); len(cands) != 1 {
		t.Fatalf("loose bound over-pruned: %+v", cands)
	}
}

func TestEmptyLevelOneTerminates(t *testing.T) {
	db := core.MustNewDatabase("tiny", [][]core.Unit{{{Item: 0, Prob: 0.1}}})
	results, stats, _ := Run(context.Background(), db, Config{Decide: expectedSupportDecide(5)})
	if len(results) != 0 {
		t.Fatal("unexpected results")
	}
	if stats.DBScans != 1 {
		t.Fatalf("scans = %d, want 1", stats.DBScans)
	}
}

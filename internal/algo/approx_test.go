package algo

// The suite of the approximate probabilistic miners (§3.3): the Poisson
// rule on Apriori and the Normal rule on Apriori and on UH-Mine.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/dataset"
	"umine/internal/prob"
)

// approxMiners builds the three approximate miners.
func approxMiners() []core.Miner {
	return []core.Miner{MustNewWith("PDUApriori", core.Options{}), MustNewWith("NDUApriori", core.Options{}), MustNewWith("NDUH-Mine", core.Options{})}
}

func TestNamesAndSemantics(t *testing.T) {
	miners := approxMiners()
	want := []string{"PDUApriori", "NDUApriori", "NDUH-Mine"}
	for i, m := range miners {
		if m.Name() != want[i] {
			t.Errorf("name %q, want %q", m.Name(), want[i])
		}
		if m.Semantics() != core.Probabilistic {
			t.Errorf("%s: wrong semantics", m.Name())
		}
	}
}

// TestNDUAprioriAndNDUHMineAgree: the two Normal-approximation miners use
// different search frameworks (breadth-first Apriori vs depth-first
// UH-Struct) but the identical frequentness test, so their result sets must
// match exactly — itemsets, expected supports, variances and approximate
// frequent probabilities.
func TestNDUAprioriAndNDUHMineAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	for trial := 0; trial < 25; trial++ {
		db := coretest.RandomDB(rng, 30+rng.Intn(100), 8, 0.3+0.4*rng.Float64())
		th := core.Thresholds{MinSup: 0.1 + 0.3*rng.Float64(), PFT: 0.2 + 0.7*rng.Float64()}
		a, err := MustNewWith("NDUApriori", core.Options{}).Mine(context.Background(), db, th)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MustNewWith("NDUH-Mine", core.Options{}).Mine(context.Background(), db, th)
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() != b.Len() {
			t.Fatalf("trial %d: NDUApriori %d vs NDUH-Mine %d itemsets", trial, a.Len(), b.Len())
		}
		for i := range a.Results {
			ra, rb := a.Results[i], b.Results[i]
			if !ra.Itemset.Equal(rb.Itemset) {
				t.Fatalf("itemset %d: %v vs %v", i, ra.Itemset, rb.Itemset)
			}
			if math.Abs(ra.ESup-rb.ESup) > 1e-9 || math.Abs(ra.Var-rb.Var) > 1e-9 ||
				math.Abs(ra.FreqProb-rb.FreqProb) > 1e-9 {
				t.Fatalf("%v: (%v,%v,%v) vs (%v,%v,%v)", ra.Itemset,
					ra.ESup, ra.Var, ra.FreqProb, rb.ESup, rb.Var, rb.FreqProb)
			}
		}
	}
}

// TestPDUAprioriReductionEquivalence: PDUApriori must accept exactly the
// itemsets whose Poisson tail at their expected support exceeds pft — the
// λ-inversion may not change the accepted set.
func TestPDUAprioriReductionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	for trial := 0; trial < 20; trial++ {
		db := coretest.RandomDB(rng, 40, 6, 0.5)
		th := core.Thresholds{MinSup: 0.2 + 0.2*rng.Float64(), PFT: 0.3 + 0.6*rng.Float64()}
		msc := th.MinSupCount(db.N())
		rs, err := MustNewWith("PDUApriori", core.Options{}).Mine(context.Background(), db, th)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, r := range rs.Results {
			got[r.Itemset.Key()] = true
		}
		for _, x := range coretest.AllItemsets(db.NumItems) {
			esup := db.ESup(x)
			wantIn := prob.PoissonFreqProb(esup, msc) >= th.PFT-1e-7
			// Tolerance band: skip itemsets within bisection slack of the
			// threshold.
			tail := prob.PoissonFreqProb(esup, msc)
			if math.Abs(tail-th.PFT) < 1e-6 {
				continue
			}
			if got[x.Key()] != wantIn {
				t.Fatalf("trial %d: %v esup=%v tail=%v pft=%v: in=%v want=%v",
					trial, x, esup, tail, th.PFT, got[x.Key()], wantIn)
			}
		}
	}
}

func TestPDUAprioriFreqProbIsNaN(t *testing.T) {
	db := coretest.PaperDB()
	rs, err := MustNewWith("PDUApriori", core.Options{}).Mine(context.Background(), db, core.Thresholds{MinSup: 0.25, PFT: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("no results")
	}
	for _, r := range rs.Results {
		if !math.IsNaN(r.FreqProb) {
			t.Fatalf("%v: FreqProb = %v, want NaN (§3.3.1 limitation)", r.Itemset, r.FreqProb)
		}
	}
}

// TestApproximationQualityOnLargeDB: on a database large enough for the
// CLT, the Normal miners must agree with the exact miner almost perfectly —
// the paper's Tables 8/9 show precision/recall ≈ 1.
func TestApproximationQualityOnLargeDB(t *testing.T) {
	db := dataset.Accident.GenerateUncertain(0.004, 42) // ~1360 transactions
	th := core.Thresholds{MinSup: 0.2, PFT: 0.9}
	exactRS, err := MustNewWith("DCB", core.Options{}).Mine(context.Background(), db, th)
	if err != nil {
		t.Fatal(err)
	}
	if exactRS.Len() == 0 {
		t.Fatal("exact miner found nothing; workload too hard")
	}
	for _, m := range approxMiners() {
		rs, err := m.Mine(context.Background(), db, th)
		if err != nil {
			t.Fatal(err)
		}
		p, r := precisionRecall(rs, exactRS)
		minP := 0.9
		if m.Name() == "PDUApriori" {
			minP = 0.8 // Poisson matches only the mean; the paper finds it weaker
		}
		if p < minP || r < 0.9 {
			t.Errorf("%s: precision %.3f recall %.3f below expectation", m.Name(), p, r)
		}
	}
}

func precisionRecall(approx, exactRS *core.ResultSet) (p, r float64) {
	exactSet := map[string]bool{}
	for _, res := range exactRS.Results {
		exactSet[res.Itemset.Key()] = true
	}
	inter := 0
	for _, res := range approx.Results {
		if exactSet[res.Itemset.Key()] {
			inter++
		}
	}
	if approx.Len() > 0 {
		p = float64(inter) / float64(approx.Len())
	} else {
		p = 1
	}
	if exactRS.Len() > 0 {
		r = float64(inter) / float64(exactRS.Len())
	} else {
		r = 1
	}
	return p, r
}

// TestNormalFreqProbValuesNearExact validates the reported per-itemset
// probabilities, not just set membership.
func TestNormalFreqProbValuesNearExact(t *testing.T) {
	db := dataset.Accident.GenerateUncertain(0.003, 7)
	th := core.Thresholds{MinSup: 0.25, PFT: 0.5}
	msc := th.MinSupCount(db.N())
	rs, err := MustNewWith("NDUApriori", core.Options{}).Mine(context.Background(), db, th)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("no results")
	}
	checked := 0
	for _, r := range rs.Results {
		if len(r.Itemset) > 2 || checked > 20 {
			continue
		}
		exactFP := coretest.FreqProb(db, r.Itemset, msc)
		if math.Abs(exactFP-r.FreqProb) > 0.02 {
			t.Errorf("%v: normal fp %v vs exact %v", r.Itemset, r.FreqProb, exactFP)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no itemsets checked")
	}
}

func TestApproxRejectsBadThresholds(t *testing.T) {
	db := coretest.PaperDB()
	for _, m := range approxMiners() {
		for _, th := range []core.Thresholds{
			{MinSup: 0, PFT: 0.5},
			{MinSup: 0.5, PFT: 0},
			{MinSup: 0.5, PFT: 1},
			{MinSup: 2, PFT: 0.5},
		} {
			if _, err := m.Mine(context.Background(), db, th); err == nil {
				t.Errorf("%s accepted %+v", m.Name(), th)
			}
		}
	}
}

func TestEmptyDatabase(t *testing.T) {
	empty := core.MustNewDatabase("empty", nil)
	for _, m := range approxMiners() {
		rs, err := m.Mine(context.Background(), empty, core.Thresholds{MinSup: 0.5, PFT: 0.9})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if rs.Len() != 0 {
			t.Errorf("%s: results on empty database", m.Name())
		}
	}
}

// TestFreqProbSaturation reproduces the §4.5 finding: on large databases,
// the frequent probabilities of probabilistic frequent itemsets are almost
// always ≈ 1 (the support distribution concentrates far above the
// threshold or far below — borderline itemsets are rare).
func TestFreqProbSaturation(t *testing.T) {
	db := dataset.Connect.GenerateUncertain(0.05, 9) // ~3380 transactions
	rs, err := MustNewWith("NDUApriori", core.Options{}).Mine(context.Background(), db, core.Thresholds{MinSup: 0.5, PFT: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("no results")
	}
	saturated := 0
	for _, r := range rs.Results {
		if r.FreqProb > 0.9999 {
			saturated++
		}
	}
	// The larger the database, the narrower the borderline band; at ~3.4k
	// transactions a solid majority of frequent probabilities is ≈ 1.
	if frac := float64(saturated) / float64(rs.Len()); frac < 0.75 {
		t.Errorf("only %.0f%% of frequent probabilities ≈ 1; §4.5 expects most", frac*100)
	}
}

package algo

import (
	"context"
	"testing"

	"umine/internal/core"
	"umine/internal/dataset"
)

// TestLargeDBFreqProbSaturation reproduces the paper's §4.5 finding that
// surprised its authors: "the frequent probabilities of most probabilistic
// frequent itemsets are often 1 when the uncertain databases are large
// enough". The effect is the concentration of the Poisson-Binomial around
// its mean: an itemset whose expected support clears N·min_sup by a few
// standard deviations has tail probability ≈ 1, and on large N almost every
// frequent itemset is of that kind.
func TestLargeDBFreqProbSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("large-database test in -short mode")
	}
	small := dataset.Kosarak.GenerateUncertain(0.0001, 17) // N ≈ 99
	large := dataset.Kosarak.GenerateUncertain(0.003, 17)  // N ≈ 2970
	th := core.Thresholds{MinSup: 0.02, PFT: 0.9}

	share := func(db *core.Database) (float64, int) {
		rs, err := MustNewWith("DCB", core.Options{}).Mine(context.Background(), db, th)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Len() == 0 {
			t.Fatalf("no probabilistic frequent itemsets on %s", db.Name)
		}
		sat := 0
		for _, r := range rs.Results {
			if r.FreqProb >= 0.999 {
				sat++
			}
		}
		return float64(sat) / float64(rs.Len()), rs.Len()
	}

	smallShare, smallN := share(small)
	largeShare, largeN := share(large)
	t.Logf("saturated share: %.2f of %d (N=%d) vs %.2f of %d (N=%d)",
		smallShare, smallN, small.N(), largeShare, largeN, large.N())
	if largeShare < 0.7 {
		t.Errorf("only %.2f of frequent itemsets saturate on the large database; §4.5 expects most", largeShare)
	}
	if largeShare < smallShare-0.05 {
		t.Errorf("saturation share fell with database size: %.2f (N=%d) → %.2f (N=%d)",
			smallShare, small.N(), largeShare, large.N())
	}
}

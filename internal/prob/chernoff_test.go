package prob

import (
	"math"
	"math/rand"
	"testing"
)

// TestChernoffNeverFalselyDismisses is the safety property of Lemma 1: if
// the pruning test fires, the exact frequent probability must indeed be
// below pft (no probabilistic frequent itemset may be pruned).
func TestChernoffNeverFalselyDismisses(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 2000; trial++ {
		n := 5 + rng.Intn(60)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = rng.Float64()
		}
		mu, _ := pbMeanVar(ps)
		minCount := 1 + rng.Intn(n)
		pft := rng.Float64()*0.98 + 0.01
		if ChernoffInfrequent(mu, minCount, pft) {
			exact := PBTailGE(ps, minCount)
			if exact > pft {
				t.Fatalf("false dismissal: mu=%v minCount=%d pft=%v exact=%v",
					mu, minCount, pft, exact)
			}
		}
	}
}

func TestChernoffZeroMean(t *testing.T) {
	if !ChernoffInfrequent(0, 1, 0.5) {
		t.Error("zero expected support must prune for minCount ≥ 1")
	}
	if ChernoffInfrequent(0, 0, 0.5) {
		t.Error("minCount 0 is always frequent; must not prune")
	}
}

func TestChernoffVacuousWhenMeanExceedsThreshold(t *testing.T) {
	// δ ≤ 0 when minCount ≤ mu + 1: no pruning regardless of pft.
	if ChernoffInfrequent(10, 10, 0.999) {
		t.Error("pruned although threshold ≤ mean + 1")
	}
	if ChernoffInfrequent(10, 11, 0.999) {
		t.Error("pruned although δ = 0")
	}
}

func TestChernoffPrunesFarTail(t *testing.T) {
	// An itemset with expected support 1 can essentially never reach
	// support 100: the bound must fire for any realistic pft.
	if !ChernoffInfrequent(1, 100, 0.9) {
		t.Error("far tail not pruned")
	}
	if !ChernoffInfrequent(1, 100, 0.001) {
		t.Error("far tail not pruned at small pft")
	}
}

// TestChernoffBoundDominatesExactTail: the Lemma 1 bound is never below the
// exact tail, so the test never prunes at pft just under the exact tail,
// including minCount beyond n where the tail is exactly zero.
func TestChernoffBoundDominatesExactTail(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 1000; trial++ {
		n := 5 + rng.Intn(40)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = rng.Float64()
		}
		mu, _ := pbMeanVar(ps)
		minCount := 1 + rng.Intn(n+5)
		exact := PBTailGE(ps, minCount)
		if ChernoffInfrequent(mu, minCount, exact-1e-9) {
			t.Fatalf("bound below exact tail %v (mu=%v, minCount=%d)", exact, mu, minCount)
		}
	}
}

// TestChernoffBoundEdges: the bound in the far tail is tiny but positive
// (it prunes at pft 1e-100, not at the smallest positive pft), and it is a
// number, not NaN, in the e^{−δ²µ/4} branch. TestChernoffZeroMean and
// TestChernoffVacuousWhenMeanExceedsThreshold cover the other edges.
func TestChernoffBoundEdges(t *testing.T) {
	if !ChernoffInfrequent(1, 1000, 1e-100) {
		t.Error("extreme tail bound not below 1e-100")
	}
	if ChernoffInfrequent(1, 1000, math.SmallestNonzeroFloat64) {
		t.Error("extreme tail bound not positive")
	}
	if !ChernoffInfrequent(2.5, 7, 1) {
		t.Error("bound in the δ ≤ 2e−1 branch is not below 1")
	}
}

func TestChernoffMoreAggressiveAtHigherPFT(t *testing.T) {
	// If the bound prunes at pft₁ it must also prune at every pft₂ > pft₁
	// (bound < pft₁ < pft₂).
	mu, minCount := 3.0, 20
	pruned := false
	for _, pft := range []float64{0.001, 0.01, 0.1, 0.5, 0.9, 0.99} {
		now := ChernoffInfrequent(mu, minCount, pft)
		if pruned && !now {
			t.Fatalf("pruning not monotone in pft at %v", pft)
		}
		pruned = now
	}
}

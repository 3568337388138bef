package prob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randProbs(rng *rand.Rand, n int) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = rng.Float64()
	}
	return ps
}

func TestPBDistMatchesBinomial(t *testing.T) {
	// Equal probabilities reduce the Poisson-Binomial to a Binomial.
	n, p := 12, 0.3
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = p
	}
	dist := PBDist(ps)
	for k := 0; k <= n; k++ {
		want := binomPMF(n, k, p)
		if math.Abs(dist[k]-want) > 1e-12 {
			t.Fatalf("dist[%d] = %v, want binomial %v", k, dist[k], want)
		}
	}
}

func binomPMF(n, k int, p float64) float64 {
	lgN, _ := math.Lgamma(float64(n) + 1)
	lgK, _ := math.Lgamma(float64(k) + 1)
	lgNK, _ := math.Lgamma(float64(n-k) + 1)
	return math.Exp(lgN - lgK - lgNK + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

func TestPBDistSumsToOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ps := randProbs(rng, 1+rng.Intn(40))
		dist := PBDist(ps)
		sum := 0.0
		for _, v := range dist {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// pbMeanVar returns the mean and variance of the Poisson-Binomial
// distribution with the given trial probabilities: μ = Σp, σ² = Σp(1−p).
func pbMeanVar(ps []float64) (mean, variance float64) {
	for _, p := range ps {
		mean += p
		variance += p * (1 - p)
	}
	return mean, variance
}

func TestPBMeanVarAgainstDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		ps := randProbs(rng, 1+rng.Intn(30))
		mean, variance := pbMeanVar(ps)
		dist := PBDist(ps)
		var m, m2 float64
		for k, pk := range dist {
			m += float64(k) * pk
			m2 += float64(k) * float64(k) * pk
		}
		if math.Abs(mean-m) > 1e-9 {
			t.Fatalf("mean %v vs distribution %v", mean, m)
		}
		if math.Abs(variance-(m2-m*m)) > 1e-9 {
			t.Fatalf("variance %v vs distribution %v", variance, m2-m*m)
		}
	}
}

func TestPBDistTruncatedExactTail(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		ps := randProbs(rng, n)
		cap := rng.Intn(n + 2)
		full := PBDist(ps)
		trunc := PBDistTruncated(ps, cap)
		// Point masses below cap must match exactly.
		for k := 0; k < len(trunc)-1; k++ {
			if math.Abs(trunc[k]-full[k]) > 1e-12 {
				t.Fatalf("trunc[%d] = %v, full %v (cap %d, n %d)", k, trunc[k], full[k], cap, n)
			}
		}
		// The bucket must hold the lumped tail.
		wantTail := 0.0
		for k := len(trunc) - 1; k < len(full); k++ {
			wantTail += full[k]
		}
		if math.Abs(trunc[len(trunc)-1]-wantTail) > 1e-12 {
			t.Fatalf("bucket = %v, want %v (cap %d)", trunc[len(trunc)-1], wantTail, cap)
		}
	}
}

func TestPBTailGEAgainstFullDist(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(25)
		ps := randProbs(rng, n)
		full := PBDist(ps)
		for k := 0; k <= n+1; k++ {
			want := 0.0
			for i := k; i <= n; i++ {
				want += full[i]
			}
			if want > 1 {
				want = 1
			}
			if got := PBTailGE(ps, k); math.Abs(got-want) > 1e-9 {
				t.Fatalf("TailGE(%d) = %v, want %v", k, got, want)
			}
		}
	}
}

func TestPBFreqProbDPAgainstTail(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		ps := randProbs(rng, n)
		for _, k := range []int{0, 1, n / 2, n, n + 1} {
			dp := PBFreqProbDP(ps, k)
			conv := PBTailGE(ps, k)
			if math.Abs(dp-conv) > 1e-9 {
				t.Fatalf("DP(%d) = %v, convolution %v (n=%d)", k, dp, conv, n)
			}
		}
	}
}

func TestPBFreqProbDPSkipsZeroProbs(t *testing.T) {
	// Zero containment probabilities must not change the result (the DP
	// skips them as an optimization).
	ps := []float64{0.5, 0, 0.7, 0, 0, 0.2}
	dense := []float64{0.5, 0.7, 0.2}
	for k := 0; k <= 4; k++ {
		if got, want := PBFreqProbDP(ps, k), PBFreqProbDP(dense, k); math.Abs(got-want) > 1e-12 {
			t.Fatalf("k=%d: %v vs %v", k, got, want)
		}
	}
}

// Property: the Normal approximation converges to the exact tail on large
// inputs — the paper's bridge between the two definitions.
func TestNormalApproxConvergesToExactTail(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 4000
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 0.2 + 0.6*rng.Float64()
	}
	mean, variance := pbMeanVar(ps)
	for _, mult := range []float64{0.95, 0.99, 1.0, 1.01, 1.05} {
		k := int(mean * mult)
		exact := PBTailGE(ps, k)
		approx := NormalFreqProb(mean, variance, k)
		if math.Abs(exact-approx) > 5e-3 {
			t.Errorf("k=%d: exact %v vs normal %v", k, exact, approx)
		}
	}
}

// Property: the Poisson approximation is close for small probabilities
// (Le Cam regime).
func TestPoissonApproxCloseForSmallProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 20000
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 0.002 * rng.Float64()
	}
	mean, _ := pbMeanVar(ps)
	for _, k := range []int{int(mean) - 2, int(mean), int(mean) + 3} {
		if k < 0 {
			continue
		}
		exact := PBTailGE(ps, k)
		approx := PoissonFreqProb(mean, k)
		if math.Abs(exact-approx) > 2e-2 {
			t.Errorf("k=%d: exact %v vs poisson %v", k, exact, approx)
		}
	}
}

func TestPBQuantile(t *testing.T) {
	// Deterministic trials: all-ones gives sup = n with certainty.
	ones := []float64{1, 1, 1}
	for _, q := range []float64{0.01, 0.5, 1} {
		if got := PBQuantile(ones, q); got != 3 {
			t.Errorf("PBQuantile(ones, %v) = %d, want 3", q, got)
		}
	}
	// Symmetric fair coins: median of Binomial(4, 0.5) is 2.
	coins := []float64{0.5, 0.5, 0.5, 0.5}
	if got := PBQuantile(coins, 0.5); got != 2 {
		t.Errorf("median of Binomial(4,1/2) = %d, want 2", got)
	}
	if got := PBQuantile(coins, 1); got != 4 {
		t.Errorf("q=1 quantile = %d, want 4", got)
	}
	// Monotone in q.
	rng := rand.New(rand.NewSource(8))
	ps := make([]float64, 30)
	for i := range ps {
		ps[i] = rng.Float64()
	}
	prev := -1
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		got := PBQuantile(ps, q)
		if got < prev {
			t.Fatalf("quantile not monotone at q=%v", q)
		}
		prev = got
	}
}

func TestPBQuantileMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(30)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = rng.Float64()
		}
		dist := PBDist(ps)
		for _, q := range []float64{0.1, 0.5, 0.9} {
			s := PBQuantile(ps, q)
			cum := 0.0
			for k := 0; k <= s; k++ {
				cum += dist[k]
			}
			if cum < q-1e-9 {
				t.Fatalf("Pr{sup ≤ %d} = %v < q = %v", s, cum, q)
			}
			if s > 0 {
				cumBelow := cum - dist[s]
				if cumBelow >= q+1e-9 {
					t.Fatalf("quantile %d not minimal for q=%v", s, q)
				}
			}
		}
	}
}

func TestPBInterval(t *testing.T) {
	ps := make([]float64, 100)
	for i := range ps {
		ps[i] = 0.5
	}
	lo, hi := PBInterval(ps, 0.05)
	if lo >= hi || lo > 50 || hi < 50 {
		t.Fatalf("95%% interval [%d, %d] should straddle the mean 50", lo, hi)
	}
	// Tighter alpha widens the interval.
	lo2, hi2 := PBInterval(ps, 0.01)
	if lo2 > lo || hi2 < hi {
		t.Errorf("99%% interval [%d,%d] narrower than 95%% [%d,%d]", lo2, hi2, lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid alpha accepted")
		}
	}()
	PBInterval(ps, 0)
}

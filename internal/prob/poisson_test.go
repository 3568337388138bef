package prob

import (
	"math"
	"math/rand"
	"testing"
)

// poissonPMF returns Pr{K = k} for K ~ Poisson(lambda), computed in log
// space to avoid overflow.
func poissonPMF(k int, lambda float64) float64 {
	if k < 0 || lambda < 0 {
		return 0
	}
	if lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(lambda) - lambda - lg)
}

// poissonCDFDirect is an independent O(k) reference: sum of PMF terms.
func poissonCDFDirect(k int, lambda float64) float64 {
	s := 0.0
	for i := 0; i <= k; i++ {
		s += poissonPMF(i, lambda)
	}
	if s > 1 {
		return 1
	}
	return s
}

func TestPoissonCDFAgainstDirectSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		lambda := rng.Float64() * 60
		k := rng.Intn(100)
		got := PoissonCDF(k, lambda)
		want := poissonCDFDirect(k, lambda)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("PoissonCDF(%d, %v) = %v, want %v", k, lambda, got, want)
		}
	}
}

func TestPoissonCDFEdges(t *testing.T) {
	if got := PoissonCDF(-1, 5); got != 0 {
		t.Errorf("CDF(-1) = %v", got)
	}
	if got := PoissonCDF(3, 0); got != 1 {
		t.Errorf("CDF with λ=0 = %v", got)
	}
	if !math.IsNaN(PoissonCDF(3, -1)) || !math.IsNaN(PoissonCDF(3, math.NaN())) {
		t.Error("invalid λ must give NaN")
	}
	// Large λ stability.
	if got := PoissonCDF(100000, 100000); got < 0.4 || got > 0.6 {
		t.Errorf("CDF at mean for λ=1e5 = %v, want ≈ 0.5", got)
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 20} {
		s := 0.0
		for k := 0; k < 200; k++ {
			s += poissonPMF(k, lambda)
		}
		if math.Abs(s-1) > 1e-10 {
			t.Errorf("PMF sum for λ=%v is %v", lambda, s)
		}
	}
}

func TestPoissonFreqProbMonotoneInLambda(t *testing.T) {
	prev := -1.0
	for lambda := 0.0; lambda <= 30; lambda += 0.5 {
		fp := PoissonFreqProb(lambda, 10)
		if fp < prev-1e-12 {
			t.Fatalf("tail not monotone at λ=%v: %v < %v", lambda, fp, prev)
		}
		prev = fp
	}
	if PoissonFreqProb(5, 0) != 1 {
		t.Error("minCount 0 must give probability 1")
	}
}

func TestInversePoissonLambdaRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		minCount int
		pft      float64
	}{
		{1, 0.5}, {10, 0.9}, {10, 0.1}, {100, 0.99}, {1000, 0.9}, {5, 0.7},
	} {
		lambda := InversePoissonLambda(tc.minCount, tc.pft)
		if math.IsNaN(lambda) || lambda <= 0 {
			t.Fatalf("λ*(%d, %v) = %v", tc.minCount, tc.pft, lambda)
		}
		// At λ*, the tail meets pft; just below, it does not.
		if got := PoissonFreqProb(lambda, tc.minCount); got < tc.pft-1e-6 {
			t.Errorf("tail at λ* = %v < pft %v", got, tc.pft)
		}
		if got := PoissonFreqProb(lambda*(1-1e-4)-1e-6, tc.minCount); got > tc.pft+1e-3 {
			t.Errorf("tail just below λ* = %v still ≥ pft %v (minCount=%d)", got, tc.pft, tc.minCount)
		}
	}
}

func TestInversePoissonLambdaHigherPFTNeedsHigherLambda(t *testing.T) {
	prev := 0.0
	for _, pft := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		lambda := InversePoissonLambda(20, pft)
		if lambda < prev {
			t.Fatalf("λ* not monotone in pft at %v: %v < %v", pft, lambda, prev)
		}
		prev = lambda
	}
}

func TestInversePoissonLambdaEdges(t *testing.T) {
	if got := InversePoissonLambda(0, 0.5); got != 0 {
		t.Errorf("minCount 0 → λ* = %v", got)
	}
	for _, pft := range []float64{0, 1, -1, math.NaN()} {
		if !math.IsNaN(InversePoissonLambda(5, pft)) {
			t.Errorf("pft %v should give NaN", pft)
		}
	}
}

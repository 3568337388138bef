package prob

import "math"

// PoissonCDF returns Pr{K ≤ k} for K ~ Poisson(lambda), k ≥ 0. Computed
// through the incomplete gamma identity Pr{K ≤ k} = Q(k+1, λ), which is
// numerically stable for arbitrary λ and O(1) in k.
func PoissonCDF(k int, lambda float64) float64 {
	switch {
	case math.IsNaN(lambda) || lambda < 0:
		return math.NaN()
	case k < 0:
		return 0
	case lambda == 0:
		return 1
	}
	return RegUpperGamma(float64(k)+1, lambda)
}

// PoissonFreqProb returns the Poisson approximation of the frequent
// probability: Pr{sup(X) ≥ minCount} ≈ 1 − PoissonCDF(minCount−1; λ) with
// λ = esup(X). This is the PDUApriori tail (§3.3.1); the paper's formula
// sums to N·min_sup inclusive, i.e. approximates the strict tail — we use
// the ≥ semantics demanded by Definition 3.
func PoissonFreqProb(esup float64, minCount int) float64 {
	return 1 - PoissonCDF(minCount-1, esup)
}

// InversePoissonLambda returns the smallest λ* such that
// PoissonFreqProb(λ*, minCount) ≥ pft, i.e. the expected-support threshold
// that makes the Poisson tail meet the probabilistic frequentness threshold.
// PDUApriori runs UApriori at min_esup = λ* (§3.3.1). The tail is strictly
// increasing and continuous in λ, so a bisection converges; accuracy is
// driven to ~1e-9·max(1, λ).
func InversePoissonLambda(minCount int, pft float64) float64 {
	if minCount <= 0 {
		return 0
	}
	if pft <= 0 || pft >= 1 || math.IsNaN(pft) {
		return math.NaN()
	}
	tail := func(lambda float64) float64 { return PoissonFreqProb(lambda, minCount) }
	// Bracket: tail(0) = 0 < pft; grow hi until tail(hi) ≥ pft. The tail at
	// λ = minCount is ≈ 0.5, and approaches 1 as λ grows, so the bracket is
	// found quickly.
	lo, hi := 0.0, float64(minCount)
	for tail(hi) < pft {
		lo = hi
		hi *= 2
		if hi > 1e18 {
			return math.NaN() // unreachable for pft < 1
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-9*math.Max(1, hi); i++ {
		mid := (lo + hi) / 2
		if tail(mid) < pft {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

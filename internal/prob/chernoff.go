package prob

import "math"

// ChernoffInfrequent implements Lemma 1 (Chernoff bound-based pruning,
// after Sun et al. 2010): given the expected support mu of itemset X, the
// absolute minimum support count minCount = N·min_sup, and the probabilistic
// frequentness threshold pft, it reports whether X is certainly NOT a
// probabilistic frequent itemset — i.e. the Chernoff upper bound on
// Pr{sup(X) ≥ minCount} already falls below pft.
//
// With δ = (minCount − mu − 1)/mu, the bound is
//
//	Pr{sup ≥ minCount} ≤ 2^{−δµ}          if δ > 2e − 1,
//	Pr{sup ≥ minCount} ≤ e^{−δ²µ/4}       if 0 < δ ≤ 2e − 1.
//
// When δ ≤ 0 (the threshold does not exceed the mean) the bound is vacuous
// and the function reports false: no pruning. A true return is always safe
// (no false dismissals); false says nothing — the caller must still compute
// the exact probability. The test is O(1) given mu; the paper counts it as
// O(N) including the scan that produces mu (Table 4).
func ChernoffInfrequent(mu float64, minCount int, pft float64) bool {
	if mu <= 0 {
		// Zero expected support: sup ≡ 0 < minCount for any minCount ≥ 1.
		return minCount >= 1
	}
	delta := (float64(minCount) - mu - 1) / mu
	if delta <= 0 {
		return false
	}
	const twoEMinus1 = 2*math.E - 1
	var bound float64
	if delta > twoEMinus1 {
		bound = math.Exp2(-delta * mu)
	} else {
		bound = math.Exp(-delta * delta * mu / 4)
	}
	return bound < pft
}

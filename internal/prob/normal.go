// Package prob is the probability substrate the miners share. The paper's
// central observation (Sections 1 and 3.3) is that the support of an itemset
// over an uncertain database is Poisson-Binomial distributed, so its
// frequentness probability is a tail of that distribution. Each function
// here serves one way of computing or bounding that tail:
//
//   - exact: PBDistTruncated and the FFT-backed Convolve and
//     ConvolveTruncated (the divide-and-conquer miners), and PBDist,
//     PBQuantile and PBInterval (support confidence intervals);
//   - Poisson, matched on the mean: PoissonCDF, PoissonFreqProb and
//     InversePoissonLambda (PDUApriori), over RegUpperGamma;
//   - Normal, matched on mean and variance (Lyapunov CLT): NormalFreqProb
//     and StdNormalTail (NDUApriori, NDUH-Mine and the stream window);
//   - Chernoff: ChernoffInfrequent, the pruning test of Lemma 1.
//
// PBFreqProbDP and PBTailGE are the paper's plain DP recurrence and the
// exact tail from the truncated distribution; only tests call them, as the
// references the miners' exact paths are checked against.
package prob

import "math"

// StdNormalTail returns 1 − Φ(z) with full precision in the upper tail.
func StdNormalTail(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// NormalFreqProb returns the Normal (CLT) approximation of the frequent
// probability Pr{sup(X) ≥ minCount} for an itemset with expected support
// esup and support variance variance, using the continuity-corrected tail
//
//	Pr ≈ 1 − Φ((minCount − 0.5 − esup) / sqrt(variance)).
//
// This is the formula of NDUApriori/NDUH-Mine (§3.3.2–3.3.3); the paper
// prints it without the 1−· complement, an evident typo since Pr must
// increase with esup.
//
// Degenerate variance (all containment probabilities 0 or 1) collapses the
// distribution onto its mean: the tail is 1 when esup ≥ minCount−0.5 and 0
// otherwise.
func NormalFreqProb(esup, variance float64, minCount int) float64 {
	m := float64(minCount) - 0.5
	if variance <= 0 {
		if esup >= m {
			return 1
		}
		return 0
	}
	return StdNormalTail((m - esup) / math.Sqrt(variance))
}

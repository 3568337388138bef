// Package exact implements the frequentness test of the exact probabilistic
// frequent itemset miners of the paper's §3.2: the dynamic-programming
// algorithm DP [Bernecker et al. 2009] and the divide-and-conquer algorithm
// DC [Sun et al. 2010], each with and without the Chernoff bound-based
// pruning of Lemma 1 — the four configurations the experiments call DPNB,
// DPB, DCNB and DCB.
//
// All four run on the Apriori breadth-first framework (anti-monotonicity of
// frequent probability justifies subset pruning): the registry
// (umine/internal/algo) mounts Decide on it as each configuration's rule.
// They differ only in the per-itemset frequentness test:
//
//   - DP evaluates the §3.2.1 recurrence in O(N·msc) per itemset (the
//     paper's O(N²·min_sup));
//   - DC builds the support distribution by recursive halving with
//     FFT-accelerated convolution, O(N log N) per itemset, truncating every
//     vector at msc with an exact absorbing tail bucket;
//   - the B variants first test the Chernoff upper bound (O(1) given the
//     expected support, which the shared counting pass already produced)
//     and skip the exact computation when the bound already rules the
//     candidate out.
//
// The DP kernel also stops on a candidate as soon as a union bound (the DP
// row so far plus a Chernoff tail on the remaining transactions) proves it
// cannot pass; see internal/kernel. That is an execution shortcut, not a
// pruning rule: DPNB still runs the full DP for every accepted candidate,
// each candidate still counts once in ExactEvaluations, and results and
// MiningStats are unchanged — only wall time moves. The paper's count-based
// comparisons (Tables 4 and 5) therefore stand, while the DPNB-vs-DPB
// wall-time gap narrows: the kernel now drops most of the candidates that
// Lemma 1 spares DPB from computing, a little later in their DP.
//
// DP has one execution path, the kernel. prob.PBFreqProbDP, the paper's
// recurrence written out plainly, is its test oracle: the kernel package's
// tests and fuzz targets, and this package's miner-level test, check every
// accepted frequent probability against it bit for bit. The incremental
// ledger gives a DP miner a row store (Rows, through algo.NewResumable) so
// that a re-verification over an appended database extends each itemset's
// kept DP row instead of re-running it; the kernel's resumable row reads
// the same bits. On amd64 CPUs with AVX2 the kernel's row update runs four
// cells per instruction in assembly, each lane rounding as the Go loop
// does; the choice is made once from CPUID, not by an option, and answers
// carry the same bits on every CPU and architecture.
package exact

import (
	"umine/internal/algo/apriori"
	"umine/internal/core"
	"umine/internal/kernel"
	"umine/internal/prob"
)

// Decide returns the exact miners' Apriori frequentness test at thresholds
// th over n transactions: Lemma 1's Chernoff test first when chernoff is set
// (the B variants), then DC's or DP's exact frequent probability, which must
// exceed PFT. DP resumes from rows when rows is non-nil, and Decide starts
// the store's staging for the one mine that uses the returned test. The
// test is safe for concurrent calls; the verdict reports which of the two
// tests ran.
func Decide(dc, chernoff bool, rows *Rows, th core.Thresholds, n int) func(*apriori.Candidate) (core.Result, apriori.Verdict) {
	msc := th.MinSupCount(n)
	above := aboveFunc(dc, rows, msc, th.PFT+core.Eps)
	if rows != nil {
		rows.begin()
	}
	return func(c *apriori.Candidate) (core.Result, apriori.Verdict) {
		if chernoff && prob.ChernoffInfrequent(c.ESup, msc, th.PFT) {
			return core.Result{}, apriori.ChernoffPruned
		}
		if fp, ok := above(c.Items, c.Probs); ok {
			return core.Result{Itemset: c.Items, ESup: c.ESup, Var: c.Var, FreqProb: fp}, apriori.Frequent | apriori.ExactEvaluated
		}
		return core.Result{}, apriori.ExactEvaluated
	}
}

// aboveFunc returns the per-itemset exact frequentness test: the frequent
// probability and whether it exceeds thr. DP dispatches to the
// internal/kernel verification kernel, which stops on a candidate once a
// union bound rules it out and otherwise returns bits identical to the prob
// package's reference recurrence; with rows it resumes from the kept rows
// instead.
func aboveFunc(dc bool, rows *Rows, msc int, thr float64) func(items core.Itemset, ps []float64) (float64, bool) {
	switch {
	case dc:
		return func(_ core.Itemset, ps []float64) (float64, bool) {
			fp := freqProbDC(ps, msc)
			return fp, fp > thr
		}
	case rows != nil:
		return func(items core.Itemset, ps []float64) (float64, bool) { return rows.above(items, ps, msc, thr) }
	default:
		return func(_ core.Itemset, ps []float64) (float64, bool) { return kernel.FreqTailAbove(ps, msc, thr) }
	}
}

// freqProbDC computes Pr{sup ≥ msc} by the §3.2.2 divide-and-conquer:
// split the probability vector, recursively build each half's support
// distribution (truncated at msc with an absorbing bucket), and convolve
// the halves (FFT-backed above the cutoff). Exact for the tail at msc.
func freqProbDC(ps []float64, msc int) float64 {
	if msc <= 0 {
		return 1
	}
	if msc > len(ps) {
		return 0
	}
	dist := supportDistDC(ps, msc)
	t := dist[len(dist)-1]
	if t > 1 {
		t = 1
	}
	if t < 0 {
		t = 0
	}
	return t
}

// dcLeafSize is the divide-and-conquer base case: below this many
// transactions the distribution is built by direct sequential convolution.
const dcLeafSize = 32

// supportDistDC returns the truncated support distribution (absorbing
// bucket at index cap) of the Poisson-Binomial with the given trial
// probabilities.
func supportDistDC(ps []float64, cap int) []float64 {
	if len(ps) <= dcLeafSize {
		return prob.PBDistTruncated(ps, cap)
	}
	mid := len(ps) / 2
	left := supportDistDC(ps[:mid], cap)
	right := supportDistDC(ps[mid:], cap)
	return prob.ConvolveTruncated(left, right, cap)
}

// Package partition is the SON-style partitioned mining engine: it
// decomposes one mine over an uncertain database into K independent
// partition-local mines (phase 1) plus a single full-database verification
// pass restricted to the unioned partition candidates (phase 2), and merges
// deterministically into a result bit-identical to a single-shot mine.
//
// # Why SON applies to expected support
//
// The classic SON decomposition (Savasere, Omiecinski, Navathe, VLDB 1995)
// rests on support being additive across a horizontal partitioning of the
// transactions. Expected support is additive in exactly the same way:
// esup(X) = Σ_t Pr(X ⊆ t) splits over any partition of the transaction list
// into Σ_i esup_i(X). Hence if esup(X) ≥ N·r (X globally frequent at ratio
// r) then esup_i(X) ≥ N_i·r in at least one partition i — otherwise the
// partition sums would each fall short of their N_i·r share and the total
// could not reach N·r. Mining every partition at the same *ratio* r (the
// partition-relative threshold N_i·r) therefore yields a candidate union
// that is a superset of the globally frequent itemsets; one counting pass
// over the full database then separates the true positives. No frequent
// itemset can be lost, and nothing infrequent survives phase 2.
//
// # The candidate-superset argument for probabilistic miners
//
// Probabilistic frequentness (Pr{sup(X) ≥ msc} > pft) is NOT partitionwise
// decomposable: an itemset can be probabilistically frequent globally while
// failing the same (min_sup, pft) test in every partition (the partition
// tails can each sit just under pft while their convolution clears it). The
// engine therefore drives phase 1 with an expected-support mine at a
// per-family candidate floor — a provable lower bound on the expected
// support of any itemset the target algorithm can accept:
//
//   - exact DP/DC miners: Markov's inequality for the integer-valued
//     support gives Pr{sup ≥ msc} ≤ esup/msc, so an accepted itemset has
//     esup > pft·msc (BoundMarkov);
//   - PDUApriori: the Poisson reduction accepts exactly when esup ≥ λ*,
//     the λ where the Poisson tail crosses pft, so λ* itself is the floor
//     (BoundPoisson);
//   - NDUApriori / NDUH-Mine: the Normal tail at (esup, var) with
//     var ≤ esup is maximized at var = esup below the continuity-corrected
//     mean, so inverting t(e) = NormalTail((msc−0.5−e)/√e) = pft (capped at
//     msc−0.5, where a zero-variance itemset is always accepted) bounds the
//     esup of any acceptable itemset from below (BoundNormal).
//
// Expected support being additive, the SON argument applies to the floor:
// every itemset the target algorithm would accept clears the floor in at
// least one partition, so the union is again a candidate superset — this
// time for the DP/DC (or approximate) verification pass of phase 2.
//
// # Bit-identity
//
// Phase 2 does not recompute measures with its own arithmetic: it re-runs
// the target miner over the full database, built with a candidate
// restriction (Engine.NewPhase2; the registry's algo.NewRestricted states
// the contract). The restricted run evaluates exactly
// the single-shot search tree intersected with the candidate union, using
// the miner's own counting passes, summation groupings and decision tests —
// so every reported measure carries the same bits a single-shot mine
// produces, and since the union is a superset of the single-shot result the
// reported set is identical too. Phase-1 floors are additionally relaxed by
// a small margin (phase1Slack) so floating-point grouping differences
// between partition sums and full-database sums can never drop a borderline
// candidate.
//
// Partition boundaries are computed from (N, K) alone — like
// parallel.ChunkSizeFor, they never depend on the worker count — so the
// decomposition, the candidate union and the merged result are identical
// on every machine size. Each interior boundary is the even split ⌊i·N/K⌋
// rounded down to a coarse power-of-two grid, so an append of a few
// transactions almost always leaves every boundary where it was: the
// shards of an append-only dataset keep their ranges and receive only the
// new tail.
// SON needs no particular split — phase 2 verifies over the whole
// database — so the grid changes no answer.
package partition

import (
	"fmt"
	"math/bits"
	"sort"

	"umine/internal/core"
	"umine/internal/prob"
)

// Range is one partition's half-open transaction range [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of transactions in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Boundaries splits [0, n) into exactly k contiguous ranges. Interior
// boundary i is ⌊i·n/k⌋ rounded down to a multiple of the grid
// g = 2^max(0, bitlen(⌈n/k⌉) − 5); the last range ends at n. The layout is
// a function of (n, k) alone — never of the worker count or the machine —
// so a partitioned mine decomposes identically everywhere, and a restarted
// coordinator derives the same ranges.
//
// The grid is what makes the layout hold still under ingest: appending d
// transactions moves boundary i only when ⌊i·n/k / g⌋ or g itself changes,
// which for small d is rare (g ≥ ⌈n/k⌉/32), so a shard's range is usually a
// prefix of its next range and the shard can be sent just the appended
// tail. The grid is fine enough to keep the split balanced: every range is
// within g ≤ ⌈n/k⌉/16 of n/k, and none is shorter than ⌊n/k⌋ rounded down
// to a multiple of g. When n < k the leading ranges are empty.
func Boundaries(n, k int) []Range {
	if k < 1 {
		k = 1
	}
	g := boundaryGrid(n, k)
	// ⌊i·n/k⌋ as i·q + ⌊i·r/k⌋ (n = q·k + r), so i·n cannot overflow.
	q, r := n/k, n%k
	out := make([]Range, k)
	lo := 0
	for i := range out {
		hi := n
		if i < k-1 {
			hi = (i+1)*q + (i+1)*r/k
			hi -= hi % g
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// boundaryGrid is the granularity Boundaries rounds interior boundaries
// down to: 2^max(0, bitlen(⌈n/k⌉) − 5), i.e. between 1/32 and 1/16 of the
// even range size ⌈n/k⌉ (1 while ⌈n/k⌉ < 32).
func boundaryGrid(n, k int) int {
	return 1 << max(0, bits.Len(uint((n+k-1)/k))-5)
}

// CandidateSet is the deduplicated union of phase-1 candidate itemsets.
// Build it single-threaded (Add), then share it read-only: Contains is safe
// for concurrent use once no more Add calls happen, which is how phase 2's
// parallel counting consults it.
type CandidateSet struct {
	m map[string]core.Itemset
}

// NewCandidateSet returns an empty set.
func NewCandidateSet() *CandidateSet {
	return &CandidateSet{m: make(map[string]core.Itemset)}
}

// Add inserts the itemsets, ignoring duplicates.
func (s *CandidateSet) Add(sets ...core.Itemset) {
	for _, x := range sets {
		key := x.Key()
		if _, ok := s.m[key]; !ok {
			s.m[key] = x
		}
	}
}

// Contains reports membership. It does not retain x.
func (s *CandidateSet) Contains(x core.Itemset) bool {
	_, ok := s.m[x.Key()]
	return ok
}

// Len returns the number of distinct candidates.
func (s *CandidateSet) Len() int { return len(s.m) }

// Itemsets returns the candidates in canonical order.
func (s *CandidateSet) Itemsets() []core.Itemset {
	out := make([]core.Itemset, 0, len(s.m))
	for _, x := range s.m {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Bound selects the per-family phase-1 candidate floor (see the package
// comment for the derivations).
type Bound int

const (
	// BoundESup is the expected-support family's own threshold: floor =
	// N·min_esup.
	BoundESup Bound = iota
	// BoundMarkov is the exact probabilistic miners' floor: Markov's
	// inequality gives floor = pft·msc.
	BoundMarkov
	// BoundPoisson is PDUApriori's floor: the inverted Poisson tail λ*.
	BoundPoisson
	// BoundNormal is the Normal-approximation miners' floor: the inverted
	// Normal tail at var = esup, capped at msc − 0.5.
	BoundNormal
)

func (b Bound) String() string {
	switch b {
	case BoundESup:
		return "esup"
	case BoundMarkov:
		return "markov"
	case BoundPoisson:
		return "poisson"
	case BoundNormal:
		return "normal"
	default:
		return fmt.Sprintf("Bound(%d)", int(b))
	}
}

// phase1Slack relaxes the candidate floor by a relative margin (plus an
// absolute 2·core.Eps) so that floating-point grouping differences between
// partition-local sums and full-database sums — orders of magnitude below
// the margin — can never push a borderline candidate under a partition's
// threshold. Relaxing only ever adds candidates; phase 2 removes them.
const phase1Slack = 1e-6

// minPhase1Ratio floors the phase-1 min_esup ratio so it stays a valid
// (0, 1] threshold even when the derived floor is zero or negative (e.g.
// msc = 1 under BoundMarkov). Such degenerate thresholds make phase 1
// enumerate every itemset with nonzero expected support — exactly what a
// single-shot run at those thresholds does too.
const minPhase1Ratio = 1e-15

// Phase1Thresholds derives the expected-support thresholds phase 1 mines
// every partition with: the bound's absolute candidate floor over the full
// n-transaction database, relaxed by phase1Slack, converted to a ratio so
// each partition applies its partition-relative share N_i·ratio. th must
// already be valid for the target algorithm's semantics.
func Phase1Thresholds(b Bound, th core.Thresholds, n int) (core.Thresholds, error) {
	if n <= 0 {
		return core.Thresholds{}, core.ErrEmptyDatabase
	}
	var floor float64
	switch b {
	case BoundESup:
		floor = th.MinESupCount(n)
	case BoundMarkov:
		floor = th.PFT * float64(th.MinSupCount(n))
	case BoundPoisson:
		floor = prob.InversePoissonLambda(th.MinSupCount(n), th.PFT)
	case BoundNormal:
		floor = normalESupFloor(th.MinSupCount(n), th.PFT)
	default:
		return core.Thresholds{}, fmt.Errorf("partition: unknown bound %v", b)
	}
	ratio := (float64(floor*(1-phase1Slack)) - 2*core.Eps) / float64(n)
	if ratio > 1 {
		ratio = 1
	}
	if ratio < minPhase1Ratio {
		ratio = minPhase1Ratio
	}
	return core.Thresholds{MinESup: ratio}, nil
}

// normalESupFloor returns a lower bound on the expected support of any
// itemset the Normal-tail test NormalFreqProb(esup, var, msc) > pft can
// accept. Since var = Σp(1−p) ≤ Σp = esup (termwise, so also under any
// floating-point summation), and below the continuity-corrected mean
// msc − 0.5 the tail grows with variance, the acceptance region's esup
// infimum is where the tail at var = esup crosses pft; above msc − 0.5 a
// near-zero variance makes the tail 1, so the bound caps there.
func normalESupFloor(msc int, pft float64) float64 {
	hi := float64(msc) - 0.5
	if hi <= 0 {
		return 0
	}
	if prob.NormalFreqProb(hi, hi, msc) < pft {
		// Even the fattest tail at the cap stays under pft: acceptance
		// requires esup ≥ msc − 0.5 (the zero-variance step).
		return hi
	}
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if prob.NormalFreqProb(mid, mid, msc) >= pft {
			hi = mid
		} else {
			lo = mid
		}
	}
	// lo sits just below the crossing: a conservative lower bound.
	return lo
}

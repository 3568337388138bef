package core

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Semantics selects which of the paper's two frequent-itemset definitions a
// miner answers.
type Semantics int

const (
	// ExpectedSupport is Definition 2: X is frequent iff
	// esup(X) ≥ N × min_esup.
	ExpectedSupport Semantics = iota
	// Probabilistic is Definition 4: X is frequent iff
	// Pr{sup(X) ≥ N × min_sup} > pft.
	Probabilistic
)

func (s Semantics) String() string {
	switch s {
	case ExpectedSupport:
		return "expected-support"
	case Probabilistic:
		return "probabilistic"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// Thresholds carries the frequentness parameters of Section 2. Ratios are
// relative to the number of transactions N, exactly as in the paper's
// experiments (Table 7 gives ratio defaults per dataset). The JSON tags
// are the one encoding every document and wire message uses: result sets,
// /mine and /explain bodies, and shard mine requests.
type Thresholds struct {
	// MinESup is the minimum expected support ratio min_esup used by
	// expected-support semantics.
	MinESup float64 `json:"min_esup,omitempty"`
	// MinSup is the minimum support ratio min_sup used by probabilistic
	// semantics.
	MinSup float64 `json:"min_sup,omitempty"`
	// PFT is the probabilistic frequentness threshold pft in (0, 1).
	PFT float64 `json:"pft,omitempty"`
}

// Validate checks the thresholds for the given semantics.
func (th Thresholds) Validate(sem Semantics) error {
	switch sem {
	case ExpectedSupport:
		if th.MinESup <= 0 || th.MinESup > 1 || math.IsNaN(th.MinESup) {
			return fmt.Errorf("core: min_esup %v outside (0,1]", th.MinESup)
		}
	case Probabilistic:
		if th.MinSup <= 0 || th.MinSup > 1 || math.IsNaN(th.MinSup) {
			return fmt.Errorf("core: min_sup %v outside (0,1]", th.MinSup)
		}
		if th.PFT <= 0 || th.PFT >= 1 || math.IsNaN(th.PFT) {
			return fmt.Errorf("core: pft %v outside (0,1)", th.PFT)
		}
	default:
		return fmt.Errorf("core: unknown semantics %v", sem)
	}
	return nil
}

// MinESupCount converts the min_esup ratio into the absolute expected
// support threshold N × min_esup.
func (th Thresholds) MinESupCount(n int) float64 { return float64(float64(n) * th.MinESup) }

// MinSupCount converts the min_sup ratio into the absolute minimum support
// count ⌈N × min_sup⌉ (the smallest integer support satisfying
// sup ≥ N × min_sup).
func (th Thresholds) MinSupCount(n int) int {
	c := int(math.Ceil(float64(float64(n)*th.MinSup) - 1e-9))
	if c < 1 {
		c = 1
	}
	return c
}

// Eps is the comparison slack used for all frequentness threshold tests, so
// that itemsets sitting exactly on a threshold are classified identically by
// every algorithm regardless of floating-point summation order.
const Eps = 1e-9

// Result is one mined itemset with its frequentness measures. Which fields
// are populated depends on the algorithm family:
//
//   - expected-support miners fill ESup (and Var when cheap);
//   - exact probabilistic miners fill ESup, Var and FreqProb (exact);
//   - approximate probabilistic miners fill ESup, Var and FreqProb
//     (approximate; PDUApriori leaves FreqProb = NaN because the Poisson
//     reduction decides frequentness without producing per-itemset
//     probabilities — a limitation the paper notes in §3.3.1).
type Result struct {
	Itemset  Itemset
	ESup     float64
	Var      float64
	FreqProb float64
}

// ResultSet is the outcome of one mining run, in canonical itemset order.
type ResultSet struct {
	// Algorithm is the registry name of the miner that produced the set.
	Algorithm string
	// Semantics the run answered.
	Semantics Semantics
	// Thresholds used.
	Thresholds Thresholds
	// N is the number of transactions of the mined database.
	N int
	// Results in canonical order (Itemset.Compare ascending).
	Results []Result
	// Stats are the mining-process counters.
	Stats MiningStats
}

// MiningStats counts algorithm work, shared across all miners so that
// pruning effectiveness can be compared fairly. It is the one type for these
// counters: shard responses carry it on the wire and /explain renders it as
// its totals and, per step, as deltas. The JSON tags fix that encoding.
type MiningStats struct {
	// CandidatesGenerated counts itemsets whose frequentness was evaluated
	// (for Apriori-family miners: candidates; for pattern-growth miners:
	// enumerated prefixes).
	CandidatesGenerated int `json:"candidates_generated"`
	// CandidatesPruned counts joined candidates eliminated before counting
	// because one of their subsets is infrequent (Apriori subset pruning).
	CandidatesPruned int `json:"candidates_pruned"`
	// ChernoffPruned counts candidates discarded by the Chernoff bound
	// (Lemma 1) without an exact frequent-probability computation.
	ChernoffPruned int `json:"chernoff_pruned,omitempty"`
	// ExactEvaluations counts full exact frequent-probability computations
	// (DP recurrences or DC convolutions).
	ExactEvaluations int `json:"exact_evaluations,omitempty"`
	// DBScans counts complete passes over the transaction list.
	DBScans int `json:"db_scans"`
	// TransactionsScanned counts individual transactions visited by
	// horizontal counting passes (one transaction read during one pass
	// counts once, so a level counted over the full database adds N).
	TransactionsScanned int `json:"transactions_scanned"`
	// PostingsProbed counted posting-list entries touched by the retired
	// vertical counting plan. It is always 0 now; it stays only because
	// the answer fingerprints and explain goldens print the whole struct,
	// and goes with the benchmark's algo.postings_probed metric.
	PostingsProbed int `json:"postings_probed"`
	// HorizontalPlans counts counting passes, one per Apriori-framework
	// level, so an EXPLAIN can report each level's counting plan.
	// VerticalPlans is always 0 now (the vertical plan was retired); it
	// goes with PostingsProbed and the benchmark's algo.vertical_plans.
	HorizontalPlans int `json:"horizontal_plans"`
	VerticalPlans   int `json:"vertical_plans"`
	// PeakTrackedBytes is a coarse, algorithm-reported measure of the
	// largest auxiliary structure held (UFP-tree nodes, UH-Struct rows,
	// candidate tries, DC buffers), in bytes. It complements the runtime
	// heap measurements done by package eval.
	PeakTrackedBytes int64 `json:"peak_tracked_bytes,omitempty"`
}

// Add accumulates other into s.
func (s *MiningStats) Add(other MiningStats) {
	s.CandidatesGenerated += other.CandidatesGenerated
	s.CandidatesPruned += other.CandidatesPruned
	s.ChernoffPruned += other.ChernoffPruned
	s.ExactEvaluations += other.ExactEvaluations
	s.DBScans += other.DBScans
	if other.PeakTrackedBytes > s.PeakTrackedBytes {
		s.PeakTrackedBytes = other.PeakTrackedBytes
	}
	s.TransactionsScanned += other.TransactionsScanned
	s.PostingsProbed += other.PostingsProbed
	s.HorizontalPlans += other.HorizontalPlans
	s.VerticalPlans += other.VerticalPlans
}

// TrackPeak records a candidate peak value.
func (s *MiningStats) TrackPeak(bytes int64) {
	if bytes > s.PeakTrackedBytes {
		s.PeakTrackedBytes = bytes
	}
}

// Miner is the uniform interface implemented by all eight algorithms.
type Miner interface {
	// Name returns the algorithm's registry name (e.g. "UApriori", "DCB").
	Name() string
	// Semantics reports which frequentness definition the miner answers.
	Semantics() Semantics
	// Mine runs the algorithm and returns results in canonical order.
	//
	// The context bounds the run: every miner checks it at cooperative
	// checkpoints (level boundaries, between counting chunks, between
	// candidate verifications, between prefix subtrees), so a cancellation
	// or deadline aborts a *running* mine within one chunk/candidate of
	// work and Mine returns ctx.Err(). A completed mine is unaffected by
	// the checkpoints: results are bit-identical to an uncancellable run
	// at every worker count.
	Mine(ctx context.Context, db *Database, th Thresholds) (*ResultSet, error)
}

// ErrUnsupportedThresholds is returned by Mine when the thresholds fail
// validation for the miner's semantics.
var ErrUnsupportedThresholds = errors.New("core: thresholds invalid for semantics")

// Itemsets extracts just the itemsets of a result set.
func (rs *ResultSet) Itemsets() []Itemset {
	out := make([]Itemset, len(rs.Results))
	for i, r := range rs.Results {
		out[i] = r.Itemset
	}
	return out
}

// Lookup returns the result for itemset x and whether it is present.
// ResultSet must be in canonical order.
func (rs *ResultSet) Lookup(x Itemset) (Result, bool) {
	lo, hi := 0, len(rs.Results)
	for lo < hi {
		mid := (lo + hi) / 2
		if rs.Results[mid].Itemset.Compare(x) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(rs.Results) && rs.Results[lo].Itemset.Equal(x) {
		return rs.Results[lo], true
	}
	return Result{}, false
}

// Len returns the number of mined itemsets.
func (rs *ResultSet) Len() int { return len(rs.Results) }

// MaxItemsetLen returns the longest itemset length in a result slice (0
// when empty) — the deepest mined level, used for PhaseDone event levels.
func MaxItemsetLen(results []Result) int {
	m := 0
	for i := range results {
		if len(results[i].Itemset) > m {
			m = len(results[i].Itemset)
		}
	}
	return m
}

// MaxLen returns the length of the longest mined itemset (0 when empty).
func (rs *ResultSet) MaxLen() int {
	m := 0
	for _, r := range rs.Results {
		if len(r.Itemset) > m {
			m = len(r.Itemset)
		}
	}
	return m
}

// Package exact implements the exact probabilistic frequent itemset miners
// of the paper's §3.2: the dynamic-programming algorithm DP [Bernecker et
// al. 2009] and the divide-and-conquer algorithm DC [Sun et al. 2010], each
// with and without the Chernoff bound-based pruning of Lemma 1 — the four
// configurations the experiments call DPNB, DPB, DCNB and DCB.
//
// All four share the Apriori breadth-first framework (anti-monotonicity of
// frequent probability justifies subset pruning) and differ only in the
// per-itemset frequentness test:
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
// ledger gives a DP miner a row store (Rows) so that a re-verification over
// an appended database extends each itemset's kept DP row instead of
// re-running it; the kernel's resumable row reads the same bits. On amd64
// CPUs with AVX2 the kernel's row update runs four cells per instruction in
// assembly, each lane rounding as the Go loop does; the choice is made once
// from CPUID, not by an option, and answers carry the same bits on every
// CPU and architecture.
package exact

import (
	"context"
	"fmt"
	"sync/atomic"

	"umine/internal/algo/apriori"
	"umine/internal/core"
	"umine/internal/kernel"
	"umine/internal/prob"
)

// Method selects the exact frequent-probability computation.
type Method int

const (
	// DP is the dynamic-programming method (§3.2.1).
	DP Method = iota
	// DC is the divide-and-conquer method with FFT (§3.2.2).
	DC
)

func (m Method) String() string {
	switch m {
	case DP:
		return "DP"
	case DC:
		return "DC"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Miner is one of the four exact probabilistic miners.
type Miner struct {
	// Method selects DP or DC.
	Method Method
	// Chernoff enables the Lemma 1 pruning (the "B" variants).
	Chernoff bool
	// Workers bounds the goroutines used by the counting pass and the
	// per-candidate frequent-probability verification (0 or 1 = serial, the
	// paper's platform; negative = GOMAXPROCS). Each candidate's DP
	// recurrence or DC convolution is independent, so verification — the
	// dominant cost of the exact family — shards embarrassingly; results
	// are identical for every worker count.
	Workers int
	// Progress observes the run per level (may be nil).
	Progress core.ProgressFunc
	// Restrict confines the run to a candidate superset, turning the
	// per-candidate DP/DC verification into a pass over just the allowed
	// itemsets (phase 2 of the SON partition engine); see
	// apriori.Config.Restrict. May be nil.
	Restrict func(core.Itemset) bool
	// Rows, when set, lets the DP method resume each candidate's DP from a
	// row kept by an earlier mine of a shorter prefix of the database (see
	// Rows); the incremental ledger sets it, every cold mine leaves it nil.
	// DC ignores it. The caller commits the store after a successful mine.
	Rows *Rows
}

// Name implements core.Miner, using the paper's experiment labels:
// DPNB, DPB, DCNB, DCB.
func (m *Miner) Name() string {
	suffix := "NB"
	if m.Chernoff {
		suffix = "B"
	}
	return m.Method.String() + suffix
}

// Semantics implements core.Miner.
func (m *Miner) Semantics() core.Semantics { return core.Probabilistic }

// Mine implements core.Miner. Cancellation lands between candidate
// verifications — the per-candidate DP/DC computation is the dominant cost
// of the whole platform, so that is exactly where aborting matters.
func (m *Miner) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	if err := th.Validate(core.Probabilistic); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrUnsupportedThresholds, err)
	}
	msc := th.MinSupCount(db.N())

	above := m.aboveFunc(msc, th.PFT+core.Eps)
	if m.Rows != nil {
		m.Rows.begin()
	}

	// Decide runs on the worker pool (ParallelDecide), so its two counters
	// are atomics, folded into the run stats afterwards.
	var chernoffPruned, exactEvals atomic.Int64
	cfg := apriori.Config{
		CollectProbs:   true,
		Workers:        m.Workers,
		ParallelDecide: true,
		Name:           m.Name(),
		Restrict:       m.Restrict,
		Decide: func(c *apriori.Candidate) (core.Result, bool) {
			if m.Chernoff && prob.ChernoffInfrequent(c.ESup, msc, th.PFT) {
				chernoffPruned.Add(1)
				return core.Result{}, false
			}
			exactEvals.Add(1)
			if fp, ok := above(c.Items, c.Probs); ok {
				return core.Result{Itemset: c.Items, ESup: c.ESup, Var: c.Var, FreqProb: fp}, true
			}
			return core.Result{}, false
		},
	}
	if m.Progress != nil {
		// Fold the atomics into the framework's snapshot so level events
		// carry the family-specific counters too.
		fn := m.Progress
		cfg.Progress = func(ev core.ProgressEvent) {
			ev.Stats.ChernoffPruned += int(chernoffPruned.Load())
			ev.Stats.ExactEvaluations += int(exactEvals.Load())
			fn(ev)
		}
	}
	results, runStats, err := apriori.Run(ctx, db, cfg)
	if err != nil {
		return nil, err
	}
	runStats.ChernoffPruned += int(chernoffPruned.Load())
	runStats.ExactEvaluations += int(exactEvals.Load())
	return &core.ResultSet{
		Algorithm:  m.Name(),
		Semantics:  core.Probabilistic,
		Thresholds: th,
		N:          db.N(),
		Results:    results,
		Stats:      runStats,
	}, nil
}

// aboveFunc returns the per-itemset exact frequentness test for the
// configured method: the frequent probability and whether it exceeds thr.
// The DP method dispatches to the internal/kernel verification kernel,
// which stops on a candidate once a union bound rules it out and otherwise
// returns bits identical to the prob package's reference recurrence; with
// Rows it resumes from the kept rows instead.
func (m *Miner) aboveFunc(msc int, thr float64) func(items core.Itemset, ps []float64) (float64, bool) {
	switch m.Method {
	case DP:
		if m.Rows != nil {
			return func(items core.Itemset, ps []float64) (float64, bool) { return m.Rows.above(items, ps, msc, thr) }
		}
		return func(_ core.Itemset, ps []float64) (float64, bool) { return kernel.FreqTailAbove(ps, msc, thr) }
	case DC:
		return func(_ core.Itemset, ps []float64) (float64, bool) {
			fp := freqProbDC(ps, msc)
			return fp, fp > thr
		}
	default:
		panic(fmt.Sprintf("exact: unknown method %d", m.Method))
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

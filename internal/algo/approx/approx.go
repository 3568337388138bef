// Package approx implements the three approximate probabilistic frequent
// itemset miners of the paper's §3.3:
//
//   - PDUApriori [Wang et al. 2010]: approximates the Poisson-Binomial
//     support by a Poisson distribution matched on the mean. Because the
//     Poisson tail is monotone in λ, the probabilistic threshold (min_sup,
//     pft) is inverted once into an expected-support threshold λ*, and the
//     whole mining run reduces to UApriori at min_esup = λ*/N. Per-itemset
//     frequent probabilities are NOT reported (§3.3.1 notes this
//     limitation).
//   - NDUApriori [Calders, Garboni, Goethals 2010]: approximates the
//     support by a Normal distribution matched on mean AND variance
//     (Lyapunov CLT), inside the same Apriori framework; reports a
//     frequent probability for every result.
//   - NDUH-Mine — the paper's own contribution: the same Normal
//     approximation mounted on the UH-Mine hyper-structure, inheriting
//     UH-Mine's sparse-data efficiency. The variance is accumulated in the
//     same pass as the expected support, which is the whole point of the
//     paper's "bridge" between the two frequentness definitions.
//
// All three decide frequentness in O(N) per itemset — the same cost as the
// expected-support algorithms — while answering probabilistic queries.
package approx

import (
	"context"
	"fmt"
	"math"

	"umine/internal/algo/apriori"
	"umine/internal/algo/uhmine"
	"umine/internal/core"
	"umine/internal/prob"
)

// PDUApriori is the Poisson distribution-based approximate miner (§3.3.1).
type PDUApriori struct {
	// Workers bounds the goroutines of the shared counting pass and the
	// per-candidate tests (0 or 1 = serial; negative = GOMAXPROCS).
	// Results are identical for every worker count.
	Workers int
	// Progress observes the run per level (may be nil).
	Progress core.ProgressFunc
	// Restrict confines the run to a candidate superset (phase 2 of the
	// SON partition engine); see apriori.Config.Restrict. May be nil.
	Restrict func(core.Itemset) bool
}

// Name implements core.Miner.
func (m *PDUApriori) Name() string { return "PDUApriori" }

// Semantics implements core.Miner.
func (m *PDUApriori) Semantics() core.Semantics { return core.Probabilistic }

// Mine implements core.Miner. The frequent probability of results is NaN:
// the Poisson reduction decides frequentness without producing per-itemset
// probabilities.
func (m *PDUApriori) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	if err := th.Validate(core.Probabilistic); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrUnsupportedThresholds, err)
	}
	msc := th.MinSupCount(db.N())
	lambda := prob.InversePoissonLambda(msc, th.PFT)
	cfg := apriori.Config{
		ESupPrune: lambda,
		Workers:   m.Workers,
		Name:      m.Name(),
		Progress:  m.Progress,
		Restrict:  m.Restrict,
		// The λ-threshold test is pure, so it may run on the pool.
		ParallelDecide: true,
		Decide: func(c *apriori.Candidate) (core.Result, bool) {
			if c.ESup >= lambda-core.Eps {
				return core.Result{Itemset: c.Items, ESup: c.ESup, Var: c.Var, FreqProb: math.NaN()}, true
			}
			return core.Result{}, false
		},
	}
	results, stats, err := apriori.Run(ctx, db, cfg)
	if err != nil {
		return nil, err
	}
	return &core.ResultSet{
		Algorithm:  m.Name(),
		Semantics:  core.Probabilistic,
		Thresholds: th,
		N:          db.N(),
		Results:    results,
		Stats:      stats,
	}, nil
}

// NDUApriori is the Normal distribution-based approximate miner in the
// Apriori framework (§3.3.2).
type NDUApriori struct {
	// Workers bounds the goroutines of the shared counting pass and the
	// per-candidate Normal-tail tests (0 or 1 = serial; negative =
	// GOMAXPROCS). Results are identical for every worker count.
	Workers int
	// Progress observes the run per level (may be nil).
	Progress core.ProgressFunc
	// Restrict confines the run to a candidate superset (phase 2 of the
	// SON partition engine); see apriori.Config.Restrict. May be nil.
	Restrict func(core.Itemset) bool
}

// Name implements core.Miner.
func (m *NDUApriori) Name() string { return "NDUApriori" }

// Semantics implements core.Miner.
func (m *NDUApriori) Semantics() core.Semantics { return core.Probabilistic }

// Mine implements core.Miner.
func (m *NDUApriori) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	if err := th.Validate(core.Probabilistic); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrUnsupportedThresholds, err)
	}
	msc := th.MinSupCount(db.N())
	cfg := apriori.Config{
		Workers:  m.Workers,
		Name:     m.Name(),
		Progress: m.Progress,
		Restrict: m.Restrict,
		// The Normal-tail test is pure, so it may run on the pool.
		ParallelDecide: true,
		Decide: func(c *apriori.Candidate) (core.Result, bool) {
			fp := prob.NormalFreqProb(c.ESup, c.Var, msc)
			if fp > th.PFT+core.Eps {
				return core.Result{Itemset: c.Items, ESup: c.ESup, Var: c.Var, FreqProb: fp}, true
			}
			return core.Result{}, false
		},
	}
	results, stats, err := apriori.Run(ctx, db, cfg)
	if err != nil {
		return nil, err
	}
	return &core.ResultSet{
		Algorithm:  m.Name(),
		Semantics:  core.Probabilistic,
		Thresholds: th,
		N:          db.N(),
		Results:    results,
		Stats:      stats,
	}, nil
}

// NDUHMine is the paper's new algorithm (§3.3.3): the Normal approximation
// mounted on the UH-Mine depth-first hyper-structure.
type NDUHMine struct {
	// Workers bounds the goroutines of the engine's first-level prefix
	// fan-out (0 or 1 = serial; negative = GOMAXPROCS). Results are
	// identical for every worker count.
	Workers int
	// Progress observes the run per prefix subtree (may be nil).
	Progress core.ProgressFunc
	// Restrict confines the run to a candidate superset (phase 2 of the
	// SON partition engine); see uhmine.Engine.Restrict. May be nil.
	Restrict func(core.Itemset) bool
}

// Name implements core.Miner.
func (m *NDUHMine) Name() string { return "NDUH-Mine" }

// Semantics implements core.Miner.
func (m *NDUHMine) Semantics() core.Semantics { return core.Probabilistic }

// Mine implements core.Miner.
func (m *NDUHMine) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	if err := th.Validate(core.Probabilistic); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrUnsupportedThresholds, err)
	}
	msc := th.MinSupCount(db.N())
	engine := &uhmine.Engine{
		Workers:  m.Workers,
		Name:     m.Name(),
		Progress: m.Progress,
		Restrict: m.Restrict,
		// No esup floor: the Normal tail decides directly. (A frequent
		// itemset can have esup slightly below msc when its variance is
		// high, so an msc floor would lose results.)
		Decide: func(items core.Itemset, esup, varsup float64) (core.Result, bool) {
			fp := prob.NormalFreqProb(esup, varsup, msc)
			if fp > th.PFT+core.Eps {
				return core.Result{Itemset: items, ESup: esup, Var: varsup, FreqProb: fp}, true
			}
			return core.Result{}, false
		},
	}
	results, stats, err := engine.Mine(ctx, db)
	if err != nil {
		return nil, err
	}
	return &core.ResultSet{
		Algorithm:  m.Name(),
		Semantics:  core.Probabilistic,
		Thresholds: th,
		N:          db.N(),
		Results:    results,
		Stats:      stats,
	}, nil
}

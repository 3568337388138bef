// The rules and the two search frameworks they drive. The paper's Section 3
// splits every algorithm but UFP-growth into a search framework (Apriori or
// UH-Mine) and a frequentness test. A registry entry names its framework
// and its rule, which gives the test for a mine's thresholds, and one miner
// type per framework runs it.

package algo

import (
	"context"
	"fmt"
	"math"

	"umine/internal/algo/apriori"
	"umine/internal/algo/exact"
	"umine/internal/algo/uhmine"
	"umine/internal/core"
	"umine/internal/prob"
)

// A rule is an algorithm's frequentness test at thresholds th over a
// database of n transactions.
type rule func(th core.Thresholds, n int) test

// test is what a rule hands its framework. Exactly one of decide and
// verify is set.
type test struct {
	// floor is an expected support no accepted itemset falls below; UH-Mine
	// drops items under it from its head table (ItemFloor). 0 = none.
	floor float64
	// decide tests an itemset from its expected support and variance.
	decide uhmine.Decide
	// verify tests an Apriori candidate from its probability vector
	// (CollectProbs); only the Apriori framework mounts it.
	verify func(*apriori.Candidate) (core.Result, apriori.Verdict)
}

// esupRule is the expected-support test of UApriori and UH-Mine (§3.1):
// esup ≥ N·min_esup, which is also the floor.
func esupRule(th core.Thresholds, n int) test {
	minCount := th.MinESupCount(n)
	return test{floor: minCount, decide: func(items core.Itemset, esup, varsup float64) (core.Result, bool) {
		if esup >= minCount-core.Eps {
			return core.Result{Itemset: items, ESup: esup, Var: varsup}, true
		}
		return core.Result{}, false
	}}
}

// poissonRule is PDUApriori's test (§3.3.1): the Poisson approximation
// matches the support's mean only, and its tail is monotone in λ, so
// (min_sup, pft) inverts once into an expected-support threshold λ*, which
// is also the floor. Results carry no frequent probability (NaN), the
// limitation §3.3.1 notes.
func poissonRule(th core.Thresholds, n int) test {
	lambda := prob.InversePoissonLambda(th.MinSupCount(n), th.PFT)
	return test{floor: lambda, decide: func(items core.Itemset, esup, varsup float64) (core.Result, bool) {
		if esup >= lambda-core.Eps {
			return core.Result{Itemset: items, ESup: esup, Var: varsup, FreqProb: math.NaN()}, true
		}
		return core.Result{}, false
	}}
}

// normalRule is the test of NDUApriori and NDUH-Mine (§3.3.2–3.3.3): the
// Normal approximation matched on mean and variance (Lyapunov CLT), whose
// continuity-corrected tail must exceed pft. It has no floor: a frequent
// itemset can have esup slightly below msc when its variance is high.
func normalRule(th core.Thresholds, n int) test {
	msc := th.MinSupCount(n)
	return test{decide: func(items core.Itemset, esup, varsup float64) (core.Result, bool) {
		fp := prob.NormalFreqProb(esup, varsup, msc)
		if fp > th.PFT+core.Eps {
			return core.Result{Itemset: items, ESup: esup, Var: varsup, FreqProb: fp}, true
		}
		return core.Result{}, false
	}}
}

// exactRule is the test of DPNB, DPB, DCNB and DCB (§3.2): exact.Decide, DC
// or DP, with or without the Chernoff bound, DP resuming from rows when
// non-nil.
func exactRule(dc, chernoff bool, rows *exact.Rows) rule {
	return func(th core.Thresholds, n int) test {
		return test{verify: exact.Decide(dc, chernoff, rows, th, n)}
	}
}

// dpRule is the DP rule over a row store, for NewResumable.
func dpRule(chernoff bool) func(*exact.Rows) rule {
	return func(rows *exact.Rows) rule { return exactRule(false, chernoff, rows) }
}

// frame is what the two framework miners share: the entry's identity, the
// rule they run and the options they were built with.
type frame struct {
	name     string
	sem      core.Semantics
	rule     rule
	workers  int
	progress core.ProgressFunc
	allow    func(core.Itemset) bool
}

// Name implements core.Miner.
func (f *frame) Name() string { return f.name }

// Semantics implements core.Miner.
func (f *frame) Semantics() core.Semantics { return f.sem }

// mine validates th, runs search on the rule's test for db and assembles
// the ResultSet.
func (f *frame) mine(db *core.Database, th core.Thresholds, search func(test) ([]core.Result, core.MiningStats, error)) (*core.ResultSet, error) {
	if err := th.Validate(f.sem); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrUnsupportedThresholds, err)
	}
	results, stats, err := search(f.rule(th, db.N()))
	if err != nil {
		return nil, err
	}
	return &core.ResultSet{
		Algorithm:  f.name,
		Semantics:  f.sem,
		Thresholds: th,
		N:          db.N(),
		Results:    results,
		Stats:      stats,
	}, nil
}

// aprioriMiner runs its rule on the Apriori framework.
type aprioriMiner struct{ frame }

// config returns the framework configuration for test t.
func (m *aprioriMiner) config(t test) apriori.Config {
	cfg := apriori.Config{
		Decide:       t.verify,
		CollectProbs: t.verify != nil,
		Restrict:     m.allow,
		Workers:      m.workers,
		// Every rule's test is safe for concurrent calls.
		ParallelDecide: true,
		Name:           m.name,
		Progress:       m.progress,
	}
	if t.verify == nil {
		cfg.Decide = func(c *apriori.Candidate) (core.Result, apriori.Verdict) {
			if res, ok := t.decide(c.Items, c.ESup, c.Var); ok {
				return res, apriori.Frequent
			}
			return core.Result{}, 0
		}
	}
	return cfg
}

// Mine implements core.Miner.
func (m *aprioriMiner) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	return m.mine(db, th, func(t test) ([]core.Result, core.MiningStats, error) {
		return apriori.Run(ctx, db, m.config(t))
	})
}

// uhMiner runs its rule on the UH-Mine framework.
type uhMiner struct{ frame }

// Mine implements core.Miner.
func (m *uhMiner) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	return m.mine(db, th, func(t test) ([]core.Result, core.MiningStats, error) {
		e := uhmine.Engine{
			ItemFloor: t.floor,
			Decide:    t.decide,
			Workers:   m.workers,
			Restrict:  m.allow,
			Name:      m.name,
			Progress:  m.progress,
		}
		return e.Run(ctx, db)
	})
}

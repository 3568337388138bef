package uhmine

import (
	"context"
	"fmt"

	"umine/internal/core"
)

// Miner is the expected-support UH-Mine algorithm (paper §3.1.3). The zero
// value is ready to use.
type Miner struct {
	// Workers bounds the goroutines of the engine's first-level prefix
	// fan-out (0 or 1 = serial, the paper's platform; negative =
	// GOMAXPROCS). Results are identical for every worker count.
	Workers int
	// Progress observes the run per prefix subtree (may be nil).
	Progress core.ProgressFunc
	// Restrict confines the run to a candidate superset (phase 2 of the
	// SON partition engine); see Engine.Restrict. May be nil.
	Restrict func(core.Itemset) bool
}

// Name implements core.Miner.
func (m *Miner) Name() string { return "UH-Mine" }

// Semantics implements core.Miner.
func (m *Miner) Semantics() core.Semantics { return core.ExpectedSupport }

// Mine implements core.Miner.
func (m *Miner) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	if err := th.Validate(core.ExpectedSupport); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrUnsupportedThresholds, err)
	}
	minCount := th.MinESupCount(db.N())
	engine := &Engine{
		ItemFloor: minCount,
		Workers:   m.Workers,
		Name:      m.Name(),
		Progress:  m.Progress,
		Restrict:  m.Restrict,
		Decide: func(items core.Itemset, esup, varsup float64) (core.Result, bool) {
			if esup >= minCount-core.Eps {
				return core.Result{Itemset: items, ESup: esup, Var: varsup}, true
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
		Semantics:  core.ExpectedSupport,
		Thresholds: th,
		N:          db.N(),
		Results:    results,
		Stats:      stats,
	}, nil
}

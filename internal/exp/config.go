package exp

import (
	"context"
	"time"

	"umine/internal/core"
)

// Config controls how experiments run: dataset scale, random seed, and the
// per-point time budget that stands in for the paper's "running time over 1
// hour is not reported" cutoff.
type Config struct {
	// Scale multiplies every experiment's base dataset scale. 1 is the
	// reduced default documented per experiment; raising it approaches the
	// published dataset sizes (Full sets it so that scale×base = 1).
	Scale float64
	// Seed feeds all generators, so runs are reproducible.
	Seed int64
	// PointBudget is the soft per-measurement cutoff: when one algorithm
	// exceeds it at a sweep point, that algorithm is skipped (NaN cells) for
	// the remaining, strictly harder points — mirroring the paper's 1-hour
	// cutoff rule.
	PointBudget time.Duration
	// Verbose enables progress notes on the report.
	Verbose bool
	// Workers bounds the goroutines each measured miner may use (0 or 1 =
	// serial, the paper's single-threaded platform; negative = GOMAXPROCS).
	// Results are identical for every value — the knob only changes wall
	// clock — so paper-figure reproductions stay faithful while running as
	// fast as the host allows. The ablation-parallel experiment ignores it
	// and sweeps worker counts itself.
	Workers int
	// Partitions runs every measured mine as a SON-style partitioned
	// two-phase mine over this many database partitions (0/1 = single
	// shot). Results are bit-identical at every value — like Workers, the
	// knob changes only wall clock and memory shape, so reproductions stay
	// faithful. MCSampling ignores it (no partitioned mode), and — like
	// Workers — the ablation experiments ignore it: they construct their
	// miners directly to isolate the effect they sweep.
	Partitions int
	// Context, when non-nil, bounds every measured mining run: canceling it
	// (e.g. from a CLI signal handler) aborts the in-flight mine at its
	// next cooperative checkpoint and the sweep reports the cancellation as
	// that measurement's error. Nil means context.Background().
	Context context.Context
	// Progress, when non-nil, observes every measured miner's checkpoint
	// stream (the uexp -trace flag adapts it into a span tree). Like
	// Workers/Partitions it does not affect results, and like them the
	// ablation experiments ignore it (they construct miners directly).
	Progress core.ProgressFunc
}

// minerOptions bundles the execution knobs runners pass to algo.NewWith
// when they build the measured miners.
func (cfg Config) minerOptions() core.Options {
	return core.Options{Workers: cfg.Workers, Partitions: cfg.Partitions, Progress: cfg.Progress}
}

// ctx resolves the configured context.
func (cfg Config) ctx() context.Context {
	if cfg.Context != nil {
		return cfg.Context
	}
	return context.Background()
}

// DefaultConfig is the laptop-friendly configuration used by tests, benches
// and the CLI unless overridden.
func DefaultConfig() Config {
	return Config{Scale: 1, Seed: 42, PointBudget: 20 * time.Second}
}

// effectiveScale bounds base×cfg.Scale to (0, 1].
func (cfg Config) effectiveScale(base float64) float64 {
	s := base * cfg.Scale
	if s > 1 {
		s = 1
	}
	if s <= 0 {
		s = base
	}
	return s
}

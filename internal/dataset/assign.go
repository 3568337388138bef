package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// probFloor is the smallest probability an assigner may emit. Zero
// probabilities would silently drop item occurrences and change the dataset
// shape; the floor keeps every occurrence alive while contributing almost
// nothing to expected supports.
const probFloor = 1e-3

// GaussianAssigner draws probabilities from a Normal distribution with the
// given mean and variance (the paper parameterizes by variance in Table 7:
// e.g. Connect uses mean 0.95, variance 0.05), clamped into
// [probFloor, 1]. Matches the paper's "assign a probability generated from
// Gaussian distribution to each item" (§4.1).
type GaussianAssigner struct {
	Mean     float64
	Variance float64
}

// Name implements Assigner.
func (g GaussianAssigner) Name() string {
	return fmt.Sprintf("gauss(%.2f,%.2f)", g.Mean, g.Variance)
}

// Assign implements Assigner.
func (g GaussianAssigner) Assign(rng *rand.Rand) float64 {
	p := g.Mean + float64(rng.NormFloat64()*math.Sqrt(g.Variance))
	if p < probFloor {
		return probFloor
	}
	if p > 1 {
		return 1
	}
	return p
}

// ZipfAssigner draws probabilities from a Zipf-shaped value distribution:
// p = r^(−Skew) with rank r uniform on {1, …, Ranks}. Raising Skew pushes
// most probabilities toward zero — the paper's §4.2 observation that "more
// items are assigned the zero probability with the increase of the skew
// parameter, which results in fewer frequent itemsets". Probabilities below
// the floor are clamped to it, preserving dataset shape.
type ZipfAssigner struct {
	// Skew is the Zipf exponent s; the paper sweeps 0.8 → 2.0.
	Skew float64
	// Ranks is the number of distinct ranks (default 1000 when 0).
	Ranks int
}

// Name implements Assigner.
func (z ZipfAssigner) Name() string { return fmt.Sprintf("zipf(%.2f)", z.Skew) }

// Assign implements Assigner.
func (z ZipfAssigner) Assign(rng *rand.Rand) float64 {
	ranks := z.Ranks
	if ranks <= 0 {
		ranks = 1000
	}
	r := 1 + rng.Intn(ranks)
	p := math.Pow(float64(r), -z.Skew)
	if p < probFloor {
		return probFloor
	}
	if p > 1 {
		return 1
	}
	return p
}

// UniformAssigner draws probabilities uniformly from [Lo, Hi] ⊆ (0,1];
// useful for tests and ablations.
type UniformAssigner struct {
	Lo, Hi float64
}

// Name implements Assigner.
func (u UniformAssigner) Name() string { return fmt.Sprintf("unif(%.2f,%.2f)", u.Lo, u.Hi) }

// Assign implements Assigner.
func (u UniformAssigner) Assign(rng *rand.Rand) float64 {
	lo, hi := u.Lo, u.Hi
	if lo < probFloor {
		lo = probFloor
	}
	if hi > 1 {
		hi = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + float64(rng.Float64()*(hi-lo))
}

// ConstAssigner assigns the same probability to every occurrence. With
// P = 1 the uncertain database degenerates to the deterministic one, which
// lets tests validate uncertain miners against classical frequent-itemset
// semantics.
type ConstAssigner struct{ P float64 }

// Name implements Assigner.
func (c ConstAssigner) Name() string { return fmt.Sprintf("const(%.2f)", c.P) }

// Assign implements Assigner.
func (c ConstAssigner) Assign(*rand.Rand) float64 {
	if c.P < probFloor {
		return probFloor
	}
	if c.P > 1 {
		return 1
	}
	return c.P
}

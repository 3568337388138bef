package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"umine/internal/core"
)

// QuestConfig parameterizes the IBM-Quest-style synthetic generator in the
// classical TxxIyyDzzz notation: T = average transaction length, I = average
// size of the potentially-large itemsets, D = number of transactions. The
// paper's scalability experiments use T25I15D320k over 994 items (Table 6).
type QuestConfig struct {
	// AvgTransLen is T (e.g. 25).
	AvgTransLen float64
	// AvgPatternLen is I (e.g. 15).
	AvgPatternLen float64
	// NumTrans is D (e.g. 320000).
	NumTrans int
	// NumItems is the item-universe size N (994 for T25I15D320k).
	NumItems int
	// NumPatterns is the size of the potentially-large itemset pool
	// (Quest's |L|, classically 2000; scaled pools keep patterns per item
	// constant). Defaults to max(32, NumItems) when 0.
	NumPatterns int
	// Corruption is the mean corruption level: the fraction of a pattern's
	// items dropped when it is planted into a transaction (classically
	// 0.5). Defaults to 0.5 when 0.
	Corruption float64
}

// T25I15 returns the paper's scalability workload with the given number of
// transactions (the paper sweeps 20k → 320k).
func T25I15(numTrans int) QuestConfig {
	return QuestConfig{
		AvgTransLen:   25,
		AvgPatternLen: 15,
		NumTrans:      numTrans,
		NumItems:      994,
	}
}

// Generate runs the Quest-style generation process:
//
//  1. Build a pool of potentially-large itemsets. Each pattern's length is
//     Poisson-distributed around AvgPatternLen; its items are drawn from an
//     exponentially-skewed popularity distribution, and successive patterns
//     share a random prefix fraction with their predecessor (Quest's
//     correlation), so planted patterns overlap realistically.
//  2. Each pattern carries an exponentially-distributed weight; transactions
//     pick patterns by weight and plant them after corruption (each item of
//     the pattern is kept with probability 1 − Corruption).
//  3. Patterns are planted until the Poisson-drawn transaction length is
//     reached; overshoot is kept with probability proportional to the
//     remaining capacity, as in the original generator.
func (c QuestConfig) Generate(seed int64) *Deterministic {
	cfg := c
	if cfg.NumPatterns <= 0 {
		cfg.NumPatterns = cfg.NumItems
		if cfg.NumPatterns < 32 {
			cfg.NumPatterns = 32
		}
	}
	if cfg.Corruption <= 0 {
		cfg.Corruption = 0.5
	}
	if cfg.NumItems <= 0 || cfg.NumTrans < 0 {
		panic(fmt.Sprintf("dataset: invalid quest config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(seed))

	// Item popularity for pattern construction: mild exponential skew.
	popularity := make([]float64, cfg.NumItems)
	sum := 0.0
	for i := range popularity {
		popularity[i] = math.Exp(-float64(i) / (float64(cfg.NumItems) / 3))
		sum += popularity[i]
	}
	cum := make([]float64, cfg.NumItems)
	run := 0.0
	for i, p := range popularity {
		run += p / sum
		cum[i] = run
	}
	cum[cfg.NumItems-1] = 1
	drawItem := func() core.Item {
		u := rng.Float64()
		lo, hi := 0, cfg.NumItems-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return core.Item(lo)
	}

	// Pattern pool.
	patterns := make([]core.Itemset, cfg.NumPatterns)
	weights := make([]float64, cfg.NumPatterns)
	wsum := 0.0
	var prev core.Itemset
	for i := range patterns {
		length := poissonDraw(rng, cfg.AvgPatternLen-1) + 1
		if length > cfg.NumItems {
			length = cfg.NumItems
		}
		picked := map[core.Item]bool{}
		var items []core.Item
		// Correlation: reuse a random fraction of the previous pattern.
		if len(prev) > 0 {
			frac := rng.Float64() * 0.5
			for _, it := range prev {
				if len(items) >= length {
					break
				}
				if rng.Float64() < frac && !picked[it] {
					picked[it] = true
					items = append(items, it)
				}
			}
		}
		for tries := 0; len(items) < length && tries < 50*length; tries++ {
			it := drawItem()
			if !picked[it] {
				picked[it] = true
				items = append(items, it)
			}
		}
		patterns[i] = core.NewItemset(items...)
		prev = patterns[i]
		weights[i] = rng.ExpFloat64()
		wsum += weights[i]
	}
	wcum := make([]float64, cfg.NumPatterns)
	run = 0.0
	for i, w := range weights {
		run += w / wsum
		wcum[i] = run
	}
	wcum[cfg.NumPatterns-1] = 1
	drawPattern := func() core.Itemset {
		u := rng.Float64()
		lo, hi := 0, cfg.NumPatterns-1
		for lo < hi {
			mid := (lo + hi) / 2
			if wcum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return patterns[lo]
	}

	// Transactions.
	d := &Deterministic{
		Name:         questName(cfg),
		NumItems:     cfg.NumItems,
		Transactions: make([][]core.Item, cfg.NumTrans),
	}
	for t := range d.Transactions {
		target := poissonDraw(rng, cfg.AvgTransLen-1) + 1
		picked := map[core.Item]bool{}
		var tx []core.Item
		for guard := 0; len(tx) < target && guard < 40; guard++ {
			pat := drawPattern()
			// Corruption: drop each item with probability Corruption.
			var planted []core.Item
			for _, it := range pat {
				if rng.Float64() >= cfg.Corruption && !picked[it] {
					planted = append(planted, it)
				}
			}
			// Oversized plants are kept only half the time (Quest rule).
			if len(tx)+len(planted) > target && rng.Float64() < 0.5 {
				continue
			}
			for _, it := range planted {
				picked[it] = true
				tx = append(tx, it)
			}
		}
		d.Transactions[t] = core.NewItemset(tx...)
	}
	return d
}

// poissonDraw samples a Poisson(mean) variate by Knuth's method for small
// means and a Normal approximation for large ones.
func poissonDraw(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		v := int(math.Round(mean + float64(rng.NormFloat64()*math.Sqrt(mean))))
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > int(mean)*20+40 {
			return k // numeric guard; practically unreachable
		}
	}
}

// GenerateUncertain generates the Quest dataset and applies the paper's
// Table 7 probability parameters for T25I15D320k: Gaussian(0.9, 0.1).
func (c QuestConfig) GenerateUncertain(seed int64) *core.Database {
	d := c.Generate(seed)
	return Apply(d, GaussianAssigner{Mean: 0.9, Variance: 0.1}, rand.New(rand.NewSource(seed+1)))
}

// questName formats the TxxIyyDzzz label, using the k suffix only when the
// transaction count is a whole number of thousands.
func questName(cfg QuestConfig) string {
	if cfg.NumTrans >= 1000 && cfg.NumTrans%1000 == 0 {
		return fmt.Sprintf("T%.0fI%.0fD%dk", cfg.AvgTransLen, cfg.AvgPatternLen, cfg.NumTrans/1000)
	}
	return fmt.Sprintf("T%.0fI%.0fD%d", cfg.AvgTransLen, cfg.AvgPatternLen, cfg.NumTrans)
}

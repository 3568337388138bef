// Package coretest provides shared fixtures for tests across the repository:
// the paper's Table 1 worked-example database, random database generators,
// and brute-force (possible-world) reference computations used as ground
// truth for the mining algorithms.
package coretest

import (
	"math/rand"

	"umine/internal/core"
)

// Item codes for the paper's Table 1 database.
const (
	A = core.Item(0)
	B = core.Item(1)
	C = core.Item(2)
	D = core.Item(3)
	E = core.Item(4)
	F = core.Item(5)
)

// PaperDB returns the uncertain database of the paper's Table 1 with the
// item coding A=0, B=1, C=2, D=3, E=4, F=5.
func PaperDB() *core.Database {
	return core.MustNewDatabase("table1", [][]core.Unit{
		{{Item: A, Prob: 0.8}, {Item: B, Prob: 0.2}, {Item: C, Prob: 0.9}, {Item: D, Prob: 0.7}, {Item: F, Prob: 0.8}},
		{{Item: A, Prob: 0.8}, {Item: B, Prob: 0.7}, {Item: C, Prob: 0.9}, {Item: E, Prob: 0.5}},
		{{Item: A, Prob: 0.5}, {Item: C, Prob: 0.8}, {Item: E, Prob: 0.8}, {Item: F, Prob: 0.3}},
		{{Item: B, Prob: 0.5}, {Item: D, Prob: 0.5}, {Item: F, Prob: 0.7}},
	})
}

// FromTransactions builds a Database from already-canonical transactions
// (oldest first), copying them into a fresh arena.
func FromTransactions(name string, txs []core.Transaction) *core.Database {
	b := core.NewBuilder(name)
	for _, t := range txs {
		b.AddCanonical(t)
	}
	return b.Build()
}

// RandomDB generates a random database: n transactions over m items, each
// item present independently with the given density and a uniform random
// existential probability in (0,1].
func RandomDB(rng *rand.Rand, n, m int, density float64) *core.Database {
	raw := make([][]core.Unit, n)
	for i := range raw {
		for it := 0; it < m; it++ {
			if rng.Float64() < density {
				p := rng.Float64()
				if p == 0 {
					p = 0.5
				}
				raw[i] = append(raw[i], core.Unit{Item: core.Item(it), Prob: p})
			}
		}
	}
	return core.MustNewDatabase("random", raw)
}

// RandomDBRounded is RandomDB with probabilities rounded to multiples of
// 1/denominator. Rounded probabilities make node-sharing in UFP-trees
// exercisable (distinct random floats never collide).
func RandomDBRounded(rng *rand.Rand, n, m int, density float64, denominator int) *core.Database {
	raw := make([][]core.Unit, n)
	for i := range raw {
		for it := 0; it < m; it++ {
			if rng.Float64() < density {
				p := float64(1+rng.Intn(denominator)) / float64(denominator)
				raw[i] = append(raw[i], core.Unit{Item: core.Item(it), Prob: p})
			}
		}
	}
	return core.MustNewDatabase("random-rounded", raw)
}

// AllItemsets enumerates every non-empty canonical itemset over items
// [0, m), in canonical order. Exponential; only for tiny m.
func AllItemsets(m int) []core.Itemset {
	var out []core.Itemset
	for mask := 1; mask < 1<<m; mask++ {
		var s core.Itemset
		for it := 0; it < m; it++ {
			if mask&(1<<it) != 0 {
				s = append(s, core.Item(it))
			}
		}
		out = append(out, s)
	}
	sortItemsets(out)
	return out
}

func sortItemsets(sets []core.Itemset) {
	for i := 1; i < len(sets); i++ {
		for j := i; j > 0 && sets[j].Compare(sets[j-1]) < 0; j-- {
			sets[j], sets[j-1] = sets[j-1], sets[j]
		}
	}
}

// SupportDistribution computes the exact probability distribution of
// sup(X) over the database by direct per-transaction convolution:
// dist[k] = Pr{sup(X) = k}, k = 0..N. This is an O(N²) reference
// implementation, independent of the DP and DC miners it validates.
func SupportDistribution(db *core.Database, x core.Itemset) []float64 {
	dist := []float64{1}
	for _, t := range db.Transactions() {
		p := t.ItemsetProb(x)
		next := make([]float64, len(dist)+1)
		for k, q := range dist {
			next[k] += float64(q * (1 - p))
			next[k+1] += float64(q * p)
		}
		dist = next
	}
	return dist
}

// FreqProb computes Pr{sup(X) ≥ minCount} from the reference support
// distribution.
func FreqProb(db *core.Database, x core.Itemset, minCount int) float64 {
	dist := SupportDistribution(db, x)
	s := 0.0
	for k := minCount; k < len(dist); k++ {
		s += dist[k]
	}
	if s > 1 {
		s = 1
	}
	return s
}

// BruteForceExpected returns every expected-support-based frequent itemset
// of db at the given min_esup ratio, by exhaustive enumeration over the item
// universe. Only for tiny universes.
func BruteForceExpected(db *core.Database, minESup float64) []core.Result {
	minCount := float64(float64(db.N()) * minESup)
	var out []core.Result
	for _, x := range AllItemsets(db.NumItems) {
		esup, v := db.ESupVar(x)
		if esup >= minCount-core.Eps {
			out = append(out, core.Result{Itemset: x, ESup: esup, Var: v})
		}
	}
	return out
}

// BruteForceProbabilistic returns every probabilistic frequent itemset of db
// at the given min_sup ratio and pft, with exact frequent probabilities, by
// exhaustive enumeration. Only for tiny universes.
func BruteForceProbabilistic(db *core.Database, minSup, pft float64) []core.Result {
	th := core.Thresholds{MinSup: minSup, PFT: pft}
	msc := th.MinSupCount(db.N())
	var out []core.Result
	for _, x := range AllItemsets(db.NumItems) {
		fp := FreqProb(db, x, msc)
		if fp > pft+core.Eps {
			esup, v := db.ESupVar(x)
			out = append(out, core.Result{Itemset: x, ESup: esup, Var: v, FreqProb: fp})
		}
	}
	return out
}

// PossibleWorldSupportDist computes the distribution of sup(X) by exhaustive
// enumeration of possible worlds (every subset of uncertain units across all
// transactions). Exponential in the total unit count; callers must keep
// Σ|T_i| small (≤ ~20). It exists to validate SupportDistribution itself.
func PossibleWorldSupportDist(db *core.Database, x core.Itemset) []float64 {
	// Collect all units.
	type unitRef struct {
		tid  int
		item core.Item
		prob float64
	}
	var units []unitRef
	for tid, t := range db.Transactions() {
		for i, it := range t.Items {
			units = append(units, unitRef{tid, it, t.Probs[i]})
		}
	}
	n := len(units)
	if n > 24 {
		panic("coretest: too many units for possible-world enumeration")
	}
	dist := make([]float64, db.N()+1)
	for mask := 0; mask < 1<<n; mask++ {
		worldProb := 1.0
		present := make(map[int]map[core.Item]bool)
		for i, u := range units {
			if mask&(1<<i) != 0 {
				worldProb *= u.prob
				if present[u.tid] == nil {
					present[u.tid] = map[core.Item]bool{}
				}
				present[u.tid][u.item] = true
			} else {
				worldProb *= 1 - u.prob
			}
		}
		sup := 0
		for tid := 0; tid < db.N(); tid++ {
			all := true
			for _, want := range x {
				if !present[tid][want] {
					all = false
					break
				}
			}
			if all && len(x) > 0 {
				sup++
			}
		}
		dist[sup] += worldProb
	}
	return dist
}

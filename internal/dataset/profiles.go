package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"umine/internal/core"
)

// ProfileKind selects the generation model for a benchmark profile.
type ProfileKind int

const (
	// Dense profiles (Connect, Accident): a small item universe with a
	// graded core of near-universal items. Each item i is included in a
	// transaction independently with probability w_i = exp(−i/τ) scaled so
	// that Σ w_i equals the target average length. This yields long
	// high-support itemsets — the regime where breadth-first UApriori wins
	// (paper §4.2).
	Dense ProfileKind = iota
	// Sparse profiles (Kosarak, Gazelle): a large item universe with Zipf
	// popularity. Transaction lengths are geometric around the target
	// average; items are drawn from the Zipf sampler without replacement.
	// This is the long-tail regime where UH-Mine wins.
	Sparse
)

// Profile describes one benchmark dataset in the shape of the paper's
// Table 6, together with the generation model that reproduces that shape.
type Profile struct {
	Name     string
	NumTrans int     // paper's "# of Trans."
	NumItems int     // paper's "# of Items"
	AvgLen   float64 // paper's "Ave. Len."
	Kind     ProfileKind
	// PopSkew is the Zipf exponent of item popularity (Sparse only).
	PopSkew float64
	// CoreTau is the exponential-decay constant τ of the graded item core
	// (Dense only); small τ concentrates mass on few near-universal items.
	CoreTau float64
	// DefaultGaussian are the Table 7 probability parameters (mean,
	// variance) used by the paper for this dataset.
	DefaultGaussian GaussianAssigner
	// DefaultMinSup / DefaultPFT are the Table 7 threshold defaults.
	DefaultMinSup float64
	DefaultPFT    float64
}

// The five benchmark profiles of Table 6, with Table 7 defaults.
// PopSkew / CoreTau were tuned so the generated data matches the published
// density column and reproduces the qualitative behaviour the paper reports
// (UApriori fastest on Connect/Accident, UH-Mine on Kosarak/Gazelle).
var (
	// Connect: 67557 transactions, 129 items, average length 43,
	// density 0.33. Gaussian(0.95, 0.05), min_sup 0.5.
	Connect = Profile{
		Name: "connect", NumTrans: 67557, NumItems: 129, AvgLen: 43,
		Kind: Dense, CoreTau: 28,
		DefaultGaussian: GaussianAssigner{Mean: 0.95, Variance: 0.05},
		DefaultMinSup:   0.5, DefaultPFT: 0.9,
	}
	// Accident: 340183 transactions, 468 items, average length 33.8,
	// density 0.072. Gaussian(0.5, 0.5), min_sup 0.5.
	Accident = Profile{
		Name: "accident", NumTrans: 340183, NumItems: 468, AvgLen: 33.8,
		Kind: Dense, CoreTau: 18,
		DefaultGaussian: GaussianAssigner{Mean: 0.5, Variance: 0.5},
		DefaultMinSup:   0.5, DefaultPFT: 0.9,
	}
	// Kosarak: 990002 transactions, 41270 items, average length 8.1,
	// density 0.00019. Gaussian(0.5, 0.5), min_sup 0.0005.
	Kosarak = Profile{
		Name: "kosarak", NumTrans: 990002, NumItems: 41270, AvgLen: 8.1,
		Kind: Sparse, PopSkew: 1.05,
		DefaultGaussian: GaussianAssigner{Mean: 0.5, Variance: 0.5},
		DefaultMinSup:   0.0005, DefaultPFT: 0.9,
	}
	// Gazelle: 59601 transactions, 498 items, average length 2.5,
	// density 0.005. Gaussian(0.95, 0.05), min_sup 0.025.
	Gazelle = Profile{
		Name: "gazelle", NumTrans: 59601, NumItems: 498, AvgLen: 2.5,
		Kind: Sparse, PopSkew: 0.9,
		DefaultGaussian: GaussianAssigner{Mean: 0.95, Variance: 0.05},
		DefaultMinSup:   0.025, DefaultPFT: 0.9,
	}
)

// Profiles lists the four FIMI-replacement profiles by name.
var Profiles = map[string]Profile{
	"connect":  Connect,
	"accident": Accident,
	"kosarak":  Kosarak,
	"gazelle":  Gazelle,
}

// Generate produces a deterministic database matching the profile's shape,
// scaled: the transaction count is max(1, scale × NumTrans) and, for sparse
// profiles, the item universe shrinks with sqrt(scale) so that per-item
// supports remain in a realistic range. scale = 1 reproduces the published
// Table 6 shape.
func (p Profile) Generate(scale float64, seed int64) *Deterministic {
	if scale <= 0 {
		panic(fmt.Sprintf("dataset: non-positive scale %v", scale))
	}
	rng := rand.New(rand.NewSource(seed))
	numTrans := int(math.Max(1, math.Round(float64(p.NumTrans)*scale)))
	numItems := p.NumItems
	if p.Kind == Sparse && scale < 1 {
		numItems = int(math.Max(16, math.Round(float64(p.NumItems)*math.Sqrt(scale))))
	}
	d := &Deterministic{
		Name:         fmt.Sprintf("%s-like(x%.3g)", p.Name, scale),
		NumItems:     numItems,
		Transactions: make([][]core.Item, numTrans),
	}
	switch p.Kind {
	case Dense:
		weights := gradedCoreWeights(numItems, p.AvgLen, p.CoreTau)
		for t := range d.Transactions {
			var tx []core.Item
			for it, w := range weights {
				if rng.Float64() < w {
					tx = append(tx, core.Item(it))
				}
			}
			d.Transactions[t] = tx
		}
	case Sparse:
		sampler := newZipfSampler(numItems, p.PopSkew)
		// Geometric length with the target mean, at least 1.
		q := 1 / p.AvgLen
		for t := range d.Transactions {
			length := 1
			for rng.Float64() > q && length < numItems && length < 4*int(p.AvgLen)+8 {
				length++
			}
			seen := make(map[core.Item]bool, length)
			tx := make([]core.Item, 0, length)
			for tries := 0; len(tx) < length && tries < 8*length; tries++ {
				it := core.Item(sampler.Sample(rng))
				if !seen[it] {
					seen[it] = true
					tx = append(tx, it)
				}
			}
			d.Transactions[t] = tx
		}
	default:
		panic(fmt.Sprintf("dataset: unknown profile kind %d", p.Kind))
	}
	return d
}

// gradedCoreWeights returns per-item inclusion probabilities w_i ∝
// exp(−i/τ), capped at 0.98 and rescaled so Σ w_i = avgLen. The cap keeps a
// realistic ceiling (no item in Connect appears in literally every row)
// while preserving the long high-support core.
func gradedCoreWeights(numItems int, avgLen, tau float64) []float64 {
	w := make([]float64, numItems)
	sum := 0.0
	for i := range w {
		w[i] = math.Exp(-float64(i) / tau)
		sum += w[i]
	}
	scale := avgLen / sum
	for iter := 0; iter < 64; iter++ {
		total, capped := 0.0, 0.0
		for i := range w {
			v := float64(w[i] * scale)
			if v > 0.98 {
				v = 0.98
				capped += v
			} else {
				total += v
			}
		}
		if total == 0 {
			break
		}
		need := avgLen - capped
		if need <= 0 {
			break
		}
		newScale := scale * need / total
		if math.Abs(newScale-scale) < 1e-12 {
			break
		}
		scale = newScale
	}
	out := make([]float64, numItems)
	for i := range w {
		v := w[i] * scale
		if v > 0.98 {
			v = 0.98
		}
		if v < 1e-6 {
			v = 1e-6
		}
		out[i] = v
	}
	return out
}

// GenerateUncertain is the one-call convenience: Generate followed by the
// profile's Table 7 default Gaussian assignment.
func (p Profile) GenerateUncertain(scale float64, seed int64) *core.Database {
	d := p.Generate(scale, seed)
	return Apply(d, p.DefaultGaussian, rand.New(rand.NewSource(seed+1)))
}

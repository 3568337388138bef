package dataset

import (
	"math"
	"math/rand"
	"testing"
)

func sampleMany(a Assigner, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = a.Assign(rng)
	}
	return out
}

func checkRange(t *testing.T, ps []float64) {
	t.Helper()
	for _, p := range ps {
		if p < probFloor || p > 1 || p != p {
			t.Fatalf("probability %v outside [%v, 1]", p, probFloor)
		}
	}
}

func TestGaussianAssignerMoments(t *testing.T) {
	// Narrow Gaussian far from the clamp: moments must match closely.
	a := GaussianAssigner{Mean: 0.5, Variance: 0.01}
	ps := sampleMany(a, 50000, 1)
	checkRange(t, ps)
	var sum, sum2 float64
	for _, p := range ps {
		sum += p
		sum2 += p * p
	}
	n := float64(len(ps))
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(variance-0.01) > 0.002 {
		t.Errorf("variance = %v", variance)
	}
}

func TestGaussianAssignerClamping(t *testing.T) {
	// High-variance Accident-style parameters: heavy clamping at both ends,
	// everything must stay in range.
	ps := sampleMany(GaussianAssigner{Mean: 0.5, Variance: 0.5}, 20000, 2)
	checkRange(t, ps)
	atFloor, atOne := 0, 0
	for _, p := range ps {
		if p == probFloor {
			atFloor++
		}
		if p == 1 {
			atOne++
		}
	}
	if atFloor == 0 || atOne == 0 {
		t.Fatalf("variance 0.5 should clamp on both sides (floor %d, one %d)", atFloor, atOne)
	}
}

func TestZipfAssignerSkewEffect(t *testing.T) {
	// Higher skew → smaller mean probability → fewer frequent itemsets,
	// reproducing §4.2's Zipf observation.
	meanAt := func(skew float64) float64 {
		ps := sampleMany(ZipfAssigner{Skew: skew}, 20000, 3)
		checkRange(t, ps)
		sum := 0.0
		for _, p := range ps {
			sum += p
		}
		return sum / float64(len(ps))
	}
	m08, m12, m20 := meanAt(0.8), meanAt(1.2), meanAt(2.0)
	if !(m08 > m12 && m12 > m20) {
		t.Fatalf("mean probability not decreasing with skew: %v, %v, %v", m08, m12, m20)
	}
}

func TestZipfAssignerDefaultRanks(t *testing.T) {
	ps := sampleMany(ZipfAssigner{Skew: 1.0}, 1000, 4)
	checkRange(t, ps)
	// With skew 1 over 1000 ranks, the minimum assigned probability is
	// max(1/1000, floor) = 1e-3.
	for _, p := range ps {
		if p < 1e-3-1e-15 {
			t.Fatalf("probability %v below rank floor", p)
		}
	}
}

func TestUniformAssignerRange(t *testing.T) {
	ps := sampleMany(UniformAssigner{Lo: 0.3, Hi: 0.6}, 5000, 5)
	for _, p := range ps {
		if p < 0.3 || p > 0.6 {
			t.Fatalf("uniform draw %v outside [0.3, 0.6]", p)
		}
	}
	// Degenerate and clamped configurations stay legal.
	checkRange(t, sampleMany(UniformAssigner{Lo: -1, Hi: 2}, 100, 6))
	checkRange(t, sampleMany(UniformAssigner{Lo: 0.9, Hi: 0.1}, 100, 7))
}

func TestConstAssigner(t *testing.T) {
	if got := (ConstAssigner{P: 0.7}).Assign(nil); got != 0.7 {
		t.Fatalf("const = %v", got)
	}
	if got := (ConstAssigner{P: 0}).Assign(nil); got != probFloor {
		t.Fatalf("zero const = %v, want floor", got)
	}
	if got := (ConstAssigner{P: 2}).Assign(nil); got != 1 {
		t.Fatalf("overshoot const = %v", got)
	}
}

func TestAssignerNames(t *testing.T) {
	for _, tc := range []struct {
		a    Assigner
		want string
	}{
		{GaussianAssigner{Mean: 0.95, Variance: 0.05}, "gauss(0.95,0.05)"},
		{ZipfAssigner{Skew: 1.2}, "zipf(1.20)"},
		{UniformAssigner{Lo: 0.1, Hi: 0.9}, "unif(0.10,0.90)"},
		{ConstAssigner{P: 1}, "const(1.00)"},
	} {
		if got := tc.a.Name(); got != tc.want {
			t.Errorf("Name = %q, want %q", got, tc.want)
		}
	}
}

func TestZipfSamplerDistribution(t *testing.T) {
	z := newZipfSampler(100, 1.0)
	rng := rand.New(rand.NewSource(8))
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(rng)]++
	}
	// Empirical frequencies must match the analytic mass within 3σ-ish.
	for _, rank := range []int{0, 1, 9, 50} {
		want := z.Prob(rank)
		got := float64(counts[rank]) / n
		sigma := math.Sqrt(want*(1-want)/n) + 1e-9
		if math.Abs(got-want) > 5*sigma {
			t.Errorf("rank %d: frequency %v, want %v (±%v)", rank, got, want, 5*sigma)
		}
	}
	// Monotonicity of the analytic mass.
	for i := 1; i < 100; i++ {
		if z.Prob(i) > z.Prob(i-1)+1e-15 {
			t.Fatalf("mass not decreasing at rank %d", i)
		}
	}
}

func TestZipfSamplerSubUnitSkew(t *testing.T) {
	// s ≤ 1 must work (math/rand.Zipf cannot do this).
	z := newZipfSampler(50, 0.8)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		if r := z.Sample(rng); r < 0 || r >= 50 {
			t.Fatalf("rank %d out of range", r)
		}
	}
}

package prob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Φ(z) = Tail(−z): the known values of the standard Normal CDF check
// StdNormalTail over its whole range.
func TestStdNormalCDFKnownValues(t *testing.T) {
	tests := []struct {
		z, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.96, 0.9750021048517795},
		{-1.96, 0.024997895148220435},
		{3, 0.9986501019683699},
		{-6, 9.865876450376946e-10},
	}
	for _, tc := range tests {
		if got := StdNormalTail(-tc.z); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Φ(%v) = %v, want %v", tc.z, got, tc.want)
		}
	}
}

func TestStdNormalTailComplement(t *testing.T) {
	for _, z := range []float64{-8, -3, -1, 0, 0.5, 2, 8} {
		if got := StdNormalTail(-z) + StdNormalTail(z); math.Abs(got-1) > 1e-12 {
			t.Errorf("Tail(-z)+Tail(z) at %v = %v", z, got)
		}
	}
	// Tail precision far out where 1−Φ underflows naive computation.
	if got := StdNormalTail(10); got == 0 || got > 1e-20 {
		t.Errorf("Tail(10) = %v, want ~7.6e-24", got)
	}
}

// TestNormalCDFLocationScale: NormalFreqProb is the Normal tail with
// location esup and scale sqrt(variance), so moving esup one standard
// deviation above the corrected threshold gives Φ(1), below it 1 − Φ(1).
func TestNormalCDFLocationScale(t *testing.T) {
	const phi1 = 0.8413447460685429
	if got := NormalFreqProb(9.5+2, 4, 10); math.Abs(got-phi1) > 1e-12 {
		t.Errorf("NormalFreqProb(+1σ) = %v, want Φ(1)", got)
	}
	if got := NormalFreqProb(9.5-2, 4, 10); math.Abs(got-(1-phi1)) > 1e-12 {
		t.Errorf("NormalFreqProb(−1σ) = %v, want 1 − Φ(1)", got)
	}
}

func TestNormalFreqProbBehaviour(t *testing.T) {
	// Degenerate variance collapses to a step function at minCount − 0.5.
	if NormalFreqProb(10, 0, 10) != 1 {
		t.Error("esup ≥ m with zero variance must give 1")
	}
	if NormalFreqProb(9, 0, 10) != 0 {
		t.Error("esup < m with zero variance must give 0")
	}
	// Increasing esup increases the tail.
	prev := -1.0
	for _, esup := range []float64{5, 8, 10, 12, 15} {
		fp := NormalFreqProb(esup, 4, 10)
		if fp < prev {
			t.Fatalf("tail not monotone in esup at %v", esup)
		}
		prev = fp
	}
	// Centered case: esup = minCount − 0.5 gives exactly 1/2.
	if got := NormalFreqProb(9.5, 4, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("centered tail = %v", got)
	}
}

// The power series computes P(a, x) and the continued fraction Q(a, x);
// RegUpperGamma switches between them at x = a+1, so around the switch both
// must converge and sum to one, and Q must stay in [0, 1] everywhere.
func TestRegGammaComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := rng.Float64()*50 + 0.01
		x := (a + 1) * (0.8 + 0.4*rng.Float64())
		p, q := gammaSeries(a, x), gammaContinuedFraction(a, x)
		if math.Abs(p+q-1) > 1e-10 {
			t.Fatalf("P+Q = %v at a=%v x=%v", p+q, a, x)
		}
		x = rng.Float64() * 100
		if q := RegUpperGamma(a, x); q < 0 || q > 1 {
			t.Fatalf("out of range: Q=%v at a=%v x=%v", q, a, x)
		}
	}
}

func TestRegGammaKnownValues(t *testing.T) {
	// Q(1, x) = e^{−x}, on both sides of the series / continued-fraction
	// switch at x = 2.
	for _, x := range []float64{0.1, 1, 3, 10} {
		want := math.Exp(-x)
		if got := RegUpperGamma(1, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("Q(1,%v) = %v, want %v", x, got, want)
		}
	}
	// Edge cases.
	if RegUpperGamma(2, 0) != 1 {
		t.Error("x=0 edge wrong")
	}
	if !math.IsNaN(RegUpperGamma(-1, 2)) || !math.IsNaN(RegUpperGamma(0, 2)) {
		t.Error("invalid a must give NaN")
	}
}

// Property: Φ is monotone non-decreasing.
func TestStdNormalCDFMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return StdNormalTail(-lo) <= StdNormalTail(-hi)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

package exact

import (
	"math"
	"math/rand"
	"testing"

	"umine/internal/prob"
)

// TestDCTruncationExact is the DESIGN.md invariant: the truncated
// divide-and-conquer distribution matches the untruncated Poisson-Binomial
// on every point mass below msc and on the lumped tail.
func TestDCTruncationExact(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(300)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = rng.Float64()
		}
		cap := 1 + rng.Intn(n)
		got := supportDistDC(ps, cap)
		full := prob.PBDist(ps)
		for k := 0; k < cap && k < len(got)-1; k++ {
			if math.Abs(got[k]-full[k]) > 1e-8 {
				t.Fatalf("n=%d cap=%d: point mass %d: %v vs %v", n, cap, k, got[k], full[k])
			}
		}
		tail := 0.0
		for k := cap; k <= n; k++ {
			tail += full[k]
		}
		if math.Abs(got[len(got)-1]-tail) > 1e-8 {
			t.Fatalf("n=%d cap=%d: tail %v vs %v", n, cap, got[len(got)-1], tail)
		}
	}
}

func TestFreqProbDCEdges(t *testing.T) {
	if got := freqProbDC([]float64{0.5}, 0); got != 1 {
		t.Errorf("msc 0 → %v", got)
	}
	if got := freqProbDC([]float64{0.5}, 2); got != 0 {
		t.Errorf("msc beyond n → %v", got)
	}
	if got := freqProbDC(nil, 1); got != 0 {
		t.Errorf("empty ps → %v", got)
	}
}

func TestLargeNStability(t *testing.T) {
	// 2000 transactions stress the FFT path and DP rolling row; DP and DC
	// must agree to 1e-6 on a frequent and a borderline itemset.
	rng := rand.New(rand.NewSource(506))
	n := 2000
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 0.3 + 0.4*rng.Float64()
	}
	for _, msc := range []int{int(0.45 * float64(n)), int(0.5 * float64(n)), int(0.55 * float64(n))} {
		dp := prob.PBFreqProbDP(ps, msc)
		dc := freqProbDC(ps, msc)
		if math.Abs(dp-dc) > 1e-6 {
			t.Fatalf("msc=%d: DP %v vs DC %v", msc, dp, dc)
		}
	}
}

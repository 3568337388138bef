package kernel

import (
	"math"
	"math/rand"
	"testing"

	"umine/internal/prob"
)

// genProbs builds a probability vector with the shapes the DP kernel's
// optimizations care about: quantized values (multiples of 1/64), a zeroFrac
// share of exact zeros (the reference skips them) and a oneFrac share of
// exact ones (mass shifts, no spreading).
func genProbs(rng *rand.Rand, n int, zeroFrac, oneFrac float64) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		switch r := rng.Float64(); {
		case r < zeroFrac:
			ps[i] = 0
		case r < zeroFrac+oneFrac:
			ps[i] = 1
		default:
			ps[i] = float64(1+rng.Intn(64)) / 64
		}
	}
	return ps
}

func tailEqual(t *testing.T, label string, ps []float64, minCount int) {
	t.Helper()
	got := FreqTailDP(ps, minCount)
	want := prob.PBFreqProbDP(ps, minCount)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s (n=%d, minCount=%d): FreqTailDP %v (%#x) != prob.PBFreqProbDP %v (%#x)",
			label, len(ps), minCount, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestFreqTailDPMatchesScalar pins the optimized DP bitwise to the scalar
// reference, prob.PBFreqProbDP, across the shapes that exercise each skipped region: minCount
// close to n (the dead window dominates), minCount tiny (the zero triangle
// dominates), vectors with exact zeros (the conservative remaining-steps
// bound) and exact ones, plus the degenerate thresholds.
func TestFreqTailDPMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		zeroFrac, oneFrac := 0.0, 0.0
		switch trial % 4 {
		case 1:
			zeroFrac = 0.3
		case 2:
			oneFrac = 0.2
		case 3:
			zeroFrac, oneFrac = 0.4, 0.1
		}
		ps := genProbs(rng, n, zeroFrac, oneFrac)
		for _, minCount := range []int{0, 1, n / 4, n / 2, n - 1, n, n + 1} {
			tailEqual(t, "random", ps, minCount)
		}
	}
	// All-zero vector: the early return must agree with the untouched row.
	zeros := make([]float64, 50)
	for _, minCount := range []int{0, 1, 25, 50, 51} {
		tailEqual(t, "all-zero", zeros, minCount)
	}
	tailEqual(t, "empty", nil, 0)
	tailEqual(t, "empty", nil, 1)
}

// TestFreqTailDPMatchesTruncatedDist cross-checks the DP against the prob
// package's independent truncated-convolution tail: two different exact
// algorithms for Pr{K ≥ minCount} must agree to float tolerance (their
// summation orders differ, so bitwise equality is not expected here).
func TestFreqTailDPMatchesTruncatedDist(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		ps := genProbs(rng, n, 0.1, 0.05)
		minCount := rng.Intn(n + 1)
		got := FreqTailDP(ps, minCount)
		want := prob.PBTailGE(ps, minCount)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("n=%d minCount=%d: FreqTailDP %v, PBTailGE %v", n, minCount, got, want)
		}
	}
}

// decodeProbs turns fuzz bytes into a probability vector within the kernel's
// [0, 1] domain: 0 maps to an exact zero, 64 to an exact one, the rest to
// quantized interior values.
func decodeProbs(data []byte) []float64 {
	ps := make([]float64, len(data))
	for i, b := range data {
		ps[i] = float64(int(b)%65) / 64
	}
	return ps
}

// FuzzFreqTailBitIdentity fuzzes the satellite property for the DP kernel:
// bit-identity to prob.PBFreqProbDP across arbitrary probability vectors
// and thresholds.
func FuzzFreqTailBitIdentity(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{32, 0, 64, 17}, 2)
	f.Add([]byte{0, 0, 0, 1}, 3)
	f.Fuzz(func(t *testing.T, data []byte, minCount int) {
		if minCount < -1 || minCount > len(data)+1 {
			minCount = len(data) / 2
		}
		ps := decodeProbs(data)
		tailEqual(t, "fuzz", ps, minCount)
	})
}

// aboveEqual checks FreqTailAbove against the full reference DP
// (prob.PBFreqProbDP) at thr: the verdict must be reference > thr, an
// accepted value must carry the reference's bits, and a rejected one is
// either those bits or the early-stop 0. It reports whether the union bound
// stopped the DP early.
func aboveEqual(t *testing.T, label string, ps []float64, minCount int, thr float64) bool {
	t.Helper()
	want := prob.PBFreqProbDP(ps, minCount)
	got, ok := FreqTailAbove(ps, minCount, thr)
	if ok != (want > thr) {
		t.Fatalf("%s (n=%d, minCount=%d, thr=%v): ok=%v but prob.PBFreqProbDP=%v (%#x)",
			label, len(ps), minCount, thr, ok, want, math.Float64bits(want))
	}
	if math.Float64bits(got) == math.Float64bits(want) {
		return false
	}
	if ok || got != 0 {
		t.Fatalf("%s (n=%d, minCount=%d, thr=%v): FreqTailAbove %v (%#x) != prob.PBFreqProbDP %v (%#x)",
			label, len(ps), minCount, thr, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return true
}

// edgeThresholds are the thresholds at the rounding edge of v: v itself,
// one ulp either side, and v ± 1e-12 and ± 1e-9 (core.Eps).
func edgeThresholds(v float64) []float64 {
	out := []float64{v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1))}
	for _, d := range []float64{1e-12, 1e-9} {
		out = append(out, v-d, v+d)
	}
	return out
}

// TestFreqTailAboveMatchesDP pins the early-rejecting DP to the full one:
// the same verdict at every threshold, including the ones within rounding
// of the value itself, where the union bound's slack is all that keeps a
// rejection honest, and the same bits for every accepted candidate. Shapes
// cover exact zeros and ones, small probabilities (where the Chernoff term
// is tightest), and the borderline (n barely above minCount) and wide
// verification shapes; fixed thresholds make the early stop fire often.
func TestFreqTailAboveMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	early := 0
	check := func(label string, ps []float64, minCounts []int) {
		for _, minCount := range minCounts {
			thrs := append(edgeThresholds(prob.PBFreqProbDP(ps, minCount)), 0, 0.05, 0.5, 0.9+1e-9, 1)
			for _, thr := range thrs {
				if aboveEqual(t, label, ps, minCount, thr) {
					early++
				}
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		var ps []float64
		label := "random"
		switch trial % 5 {
		case 0:
			ps = genProbs(rng, n, 0, 0)
		case 1:
			label = "zeros"
			ps = genProbs(rng, n, 0.3, 0)
		case 2:
			label = "ones"
			ps = genProbs(rng, n, 0, 0.2)
		case 3:
			label = "zeros+ones"
			ps = genProbs(rng, n, 0.4, 0.1)
		case 4:
			label = "small"
			ps = genProbs(rng, n, 0.1, 0)
			for i := range ps {
				ps[i] /= 16
			}
		}
		check(label, ps, []int{0, 1, n / 4, n / 2, n - 1, n, n + 1})
	}
	for trial := 0; trial < 4; trial++ {
		for _, shape := range []struct {
			label string
			n     int
		}{{"borderline", 800}, {"wide", 3400}} {
			ps := genProbs(rng, shape.n, 0.05, 0.02)
			// Scale the mean across minCount 681 so the tails span 0 to 1.
			scale := float64(1+trial) / 4 * 681 / (0.5 * float64(shape.n))
			for i := range ps {
				ps[i] = math.Min(1, ps[i]*scale)
			}
			n := shape.n
			check(shape.label, ps, []int{0, 1, n / 4, n / 2, 681, n - 1, n, n + 1})
		}
	}
	zeros := make([]float64, 200)
	check("all-zero", zeros, []int{0, 1, 100, 200, 201})
	if early == 0 {
		t.Fatal("the union bound never stopped a DP early")
	}
}

// FuzzFreqTailAbove fuzzes FreqTailAbove against prob.PBFreqProbDP with the
// TestFreqTailAboveMatchesDP oracle, at the fuzzed threshold and at the
// rounding edge of the value. Short inputs are tiled so the vector spans
// several union-bound checks.
func FuzzFreqTailAbove(f *testing.F) {
	f.Add([]byte{}, 0, 0.5)
	f.Add([]byte{32, 0, 64, 17}, 2, 0.7)
	f.Add([]byte{1, 2, 3, 0, 5}, 300, 0.05)
	f.Fuzz(func(t *testing.T, data []byte, minCount int, thr float64) {
		ps := decodeProbs(data)
		for len(ps) > 0 && len(ps) < 4*checkEvery {
			ps = append(ps, ps...)
		}
		if minCount < -1 || minCount > len(ps)+1 {
			minCount = len(ps) / 2
		}
		aboveEqual(t, "fuzz", ps, minCount, thr)
		for _, edge := range edgeThresholds(prob.PBFreqProbDP(ps, minCount)) {
			aboveEqual(t, "fuzz-edge", ps, minCount, edge)
		}
	})
}

func benchProbs(n int) []float64 {
	rng := rand.New(rand.NewSource(5))
	return genProbs(rng, n, 0, 0)
}

// The DP micro-benchmarks mirror the verification workload: n containment
// probabilities against minCount = 681 (accident @ 0.01's min_sup count).
// The borderline shape (n barely above minCount) is the common case count
// pruning lets through; the wide shape is the worst case for the skipped
// triangles.
func BenchmarkFreqTailDPBorderline(b *testing.B) {
	ps := benchProbs(800)
	for i := 0; i < b.N; i++ {
		FreqTailDP(ps, 681)
	}
}

func BenchmarkFreqTailReferenceBorderline(b *testing.B) {
	ps := benchProbs(800)
	for i := 0; i < b.N; i++ {
		prob.PBFreqProbDP(ps, 681)
	}
}

func BenchmarkFreqTailDPWide(b *testing.B) {
	ps := benchProbs(3400)
	for i := 0; i < b.N; i++ {
		FreqTailDP(ps, 681)
	}
}

func BenchmarkFreqTailReferenceWide(b *testing.B) {
	ps := benchProbs(3400)
	for i := 0; i < b.N; i++ {
		prob.PBFreqProbDP(ps, 681)
	}
}

// The early-rejection benchmarks pair with BenchmarkFreqTailDPWide: the
// accept case is the same vector at a threshold it clears (the full DP plus
// the union-bound checks), the reject case a vector whose mean sits well
// below minCount, stopped by the first checks.
func BenchmarkFreqTailAboveAccept(b *testing.B) {
	ps := benchProbs(3400)
	for i := 0; i < b.N; i++ {
		FreqTailAbove(ps, 681, 0.7)
	}
}

func BenchmarkFreqTailAboveReject(b *testing.B) {
	ps := benchProbs(3400)
	for i := range ps {
		ps[i] *= 0.3
	}
	for i := 0; i < b.N; i++ {
		FreqTailAbove(ps, 681, 0.7)
	}
}

// tailRowEqual checks r against FreqTailDP and prob.PBFreqProbDP over ps,
// the whole vector r has folded, at every minCount ≤ r.H().
func tailRowEqual(t *testing.T, label string, r *TailRow, ps []float64) {
	t.Helper()
	if r.Used() != len(ps) {
		t.Fatalf("%s: row folded %d probabilities, vector has %d", label, r.Used(), len(ps))
	}
	for m := 0; m <= r.H(); m++ {
		got, dp, ref := r.Tail(m), FreqTailDP(ps, m), prob.PBFreqProbDP(ps, m)
		if math.Float64bits(got) != math.Float64bits(dp) || math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("%s (n=%d, minCount=%d, H=%d): Tail %v (%#x), FreqTailDP %v (%#x), prob.PBFreqProbDP %v (%#x)",
				label, len(ps), m, r.H(), got, math.Float64bits(got), dp, math.Float64bits(dp), ref, math.Float64bits(ref))
		}
	}
}

// extendAcross builds a row over ps[:cuts[0]] with TailRowAbove at
// (minCount, thr) and extends it across the remaining pieces, checking the
// build against FreqTailAbove and every prefix with tailRowEqual. A build
// the union bound stopped starts over from NewTailRow.
func extendAcross(t *testing.T, label string, ps []float64, cuts []int, h, minCount int, thr float64) {
	t.Helper()
	first := ps[:cuts[0]]
	r, fp, ok := TailRowAbove(first, h, minCount, thr)
	wantFP, wantOK := FreqTailAbove(first, minCount, thr)
	if ok != wantOK || (ok && math.Float64bits(fp) != math.Float64bits(wantFP)) {
		t.Fatalf("%s: TailRowAbove = (%v, %v), FreqTailAbove = (%v, %v)", label, fp, ok, wantFP, wantOK)
	}
	if ok && r == nil {
		t.Fatalf("%s: accepted candidate returned no row", label)
	}
	if r == nil {
		r = NewTailRow(h)
		r.Extend(first)
	}
	tailRowEqual(t, label, r, first)
	for i := 1; i <= len(cuts); i++ {
		end := len(ps)
		if i < len(cuts) {
			end = cuts[i]
		}
		r.Extend(ps[cuts[i-1]:end])
		tailRowEqual(t, label, r, ps[:end])
	}
}

// TestTailRowMatchesDP pins the resumable row: built over a prefix (with
// the union bound on) and extended piece by piece, it reads FreqTailDP's
// and the reference's bits at every minCount ≤ H over every prefix, and a
// clone extends independently of the row it came from.
func TestTailRowMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(160)
		ps := genProbs(rng, n, 0.2*float64(trial%3), 0.1*float64(trial%2))
		cuts := []int{rng.Intn(n + 1)}
		for len(cuts) < 4 {
			cuts = append(cuts, cuts[len(cuts)-1]+rng.Intn(n-cuts[len(cuts)-1]+1))
		}
		h := rng.Intn(n + 3)
		minCount := rng.Intn(h + 1)
		thr := []float64{-1, 0, 0.3, 0.9}[trial%4]
		extendAcross(t, "random", ps, cuts, h, minCount, thr)
	}

	ps := genProbs(rng, 500, 0.1, 0.05)
	r := NewTailRow(120)
	r.Extend(ps[:200])
	c := r.Clone()
	c.Extend(ps[200:])
	tailRowEqual(t, "clone", c, ps)
	tailRowEqual(t, "original after clone", r, ps[:200])
}

// FuzzTailRowExtend fuzzes the resumable row: a vector in [0, 1] with exact
// zeros and ones and subnormals, split at fuzzed points, built then extended
// across the pieces, must read FreqTailDP's and prob.PBFreqProbDP's bits at
// every minCount ≤ H over every prefix.
func FuzzTailRowExtend(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0), 0, 0, 0.5)
	f.Add([]byte{32, 0, 64, 17, 65, 66}, uint16(2), uint16(1), 4, 2, 0.7)
	f.Add([]byte{1, 2, 3, 0, 5, 64, 64, 9}, uint16(300), uint16(7), 9, 3, 0.05)
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16, h, minCount int, thr float64) {
		ps := make([]float64, len(data))
		for i, b := range data {
			switch v := int(b) % 68; {
			case v == 65:
				ps[i] = math.SmallestNonzeroFloat64
			case v == 66:
				ps[i] = 0x1p-1070
			case v == 67:
				ps[i] = 0x1p-1022 // smallest normal
			default:
				ps[i] = float64(v) / 64
			}
		}
		n := len(ps)
		a, b := int(cut1)%(n+1), int(cut2)%(n+1)
		if a > b {
			a, b = b, a
		}
		if h < 0 || h > n+2 {
			h = n / 2
		}
		if minCount < 0 || minCount > h {
			minCount = h / 2
		}
		extendAcross(t, "fuzz", ps, []int{a, b}, h, minCount, thr)
	})
}

package kernel

import "math"

// The exact probabilistic miners' verification kernel: the §3.2.1 dynamic
// program for Pr{K ≥ minCount} over a candidate's per-transaction
// containment probabilities. Profiles of the DP miner family are >95% this
// one rolling-row loop, so it gets the same treatment as the intersection
// kernels: an optimized entry point (FreqTailDP) pinned bitwise by the
// package tests and fuzz targets against the plain recurrence,
// prob.PBFreqProbDP. The reference is a test oracle only; the miners always
// run the kernel.
//
// The contract: ps are probabilities in [0, 1]. The optimizations lean on
// that domain — the skipped regions below are exactly zero only because no
// input is NaN or infinite.
//
// Three observations let FreqTailDP skip work without moving a bit, a
// fourth lets FreqTailAbove stop on a candidate that cannot pass, a fifth
// lets TailRow resume the DP when more probabilities arrive, and a sixth
// lets the row update run four cells per instruction:
//
//   - Zero triangle (top): after s probability-bearing transactions, mass
//     can sit at index ≤ s only. The reference's updates above that index
//     compute 0·p + 0·(1−p) = 0 — skipping them changes nothing.
//
//   - Dead window (bottom): a value written at step j climbs at most one
//     index per later step, so with r steps remaining, entries below
//     minCount − r can no longer reach row[minCount]. They are left stale;
//     every entry the loop still reads (index ≥ minCount − r − 1) was live
//     at every earlier step, so it carries the reference's exact bits.
//
//   - Register carry: iterating downward, this step's row[i−1] load is the
//     next iteration's row[i] operand — carrying it in a register (and
//     unrolling 2×) halves the loads without touching the arithmetic:
//     each element still computes row[i−1]·p + row[i]·(1−p), same
//     multiplications, same additions, same order.
//
//   - Early rejection (union bound): split K = S + R, S the count over the
//     transactions processed so far and R over the r remaining ones. For
//     any k, K ≥ minCount needs S ≥ k or R ≥ minCount − k + 1, so
//
//     Pr{K ≥ minCount} ≤ row[k] + Pr{R ≥ minCount − k + 1}.
//
//     The second term is 0 when minCount − k + 1 > r, and otherwise at most
//     the Chernoff bound Pr{R ≥ a} ≤ e^{−µ}(eµ/a)^a for a > µ, which holds
//     for any µ at least R's mean. Every checkEvery steps FreqTailAbove
//     takes the minimum over the live k (the updated window plus the exact
//     zero just above it); once that bound is at or below thr − slack the
//     candidate is rejected without finishing the DP. A candidate that is
//     never rejected runs the same loop to the end, so its value keeps
//     FreqTailDP's bits.
//
//   - Resumable row: each entry's update reads only row[i−1] and row[i],
//     never the row's length, so entries 0..minCount of a row cut at any
//     H ≥ minCount carry the same bits as a row cut at minCount. Only the
//     dead window depends on how many steps remain. A TailRow turns it off
//     and keeps all H+1 entries live, so the row is prefix-resumable: fold
//     ps[:m], later fold ps[m:] into the same row, and row[minCount] equals
//     FreqTailDP(ps, minCount) bit for bit at every minCount ≤ H. Early
//     rejection stays on while a row is first built (a rejected row is
//     never kept) and is off when it is extended.
//
//   - Vector lanes (rowStep): within one step, cell i reads only the old
//     row[i−1] and row[i], so cells are independent once each block loads
//     its operands before storing. On amd64 CPUs with AVX2 (and an OS that
//     saves the YMM registers) the update runs in assembly, four cells per
//     instruction; each lane is the scalar update — two separate products
//     (VMULPD), then their sum (VADDPD), never a fused multiply-add — so it
//     rounds exactly as the Go loop. The choice is made once, at package
//     init, from CPUID; every other CPU and architecture runs the Go loop.
//     Nowhere may the Go code fuse either: a product written float64(x*y)
//     rounds on its own (the spec's rule for explicit conversions), and
//     `make check-fma` fails the build if an arm64 binary shows an FMA on a
//     module line. rowStep is the inner loop alone: the zero triangle, dead
//     window, union-bound cadence and top/used all stay in fold.
//
// The rounding slack makes the rejection certain for the computed value,
// not just the exact one. With u = 2⁻⁵³:
//
//   - Each DP update is a convex combination evaluated with at most three
//     roundings (1−p, two products, their sum). If the row
//     so far is off by at most E, the update is off by at most
//     E + 4u·(1+E), so after j steps every live entry is within
//     (1+4u)^j − 1 ≤ 5ju of the exact Pr{S ≥ k} (for n ≤ 2⁴⁰), and the
//     returned value within 5nu of the exact tail; clamping to [0, 1] only
//     moves it toward the tail.
//   - R's mean is a running total, off by at most 2nu·Σp after n
//     subtractions; adding (n+1)·8u·Σp gives µ ≥ the true mean, and the
//     bound only grows with µ. The exponent a − µ + a·ln(µ/a) is computed
//     with error under 3u·(a + µ + a·|ln(µ/a)|) and padded by 8u times
//     that sum, so the computed bound is at least the exact one less the
//     few ulps of exp's own error: under 4u absolute, as it only matters
//     when it is at most 1.
//   - The sum row[k] + bound and the cut thr − slack round by at most 2u
//     and 3u (for |thr| ≤ 2; outside that range every verdict is fixed).
//
// So the computed tail is at most bound + 10nu + 9u ≤ bound + slack with
// slack = 16(n+1)u: whenever bound ≤ thr − slack, FreqTailDP ≤ thr, and the
// early verdict equals the full DP's. The slack is ~6·10⁻¹² at n = 3400,
// far inside core.Eps, so it costs no measurable rejections.
//
// Together the triangles cut the O(N·minCount) reference to
// O(minCount·(N−minCount)) — for candidates whose support barely clears the
// threshold (the ones count pruning lets through), that approaches O(N).
// Early rejection then cuts most candidates that fail well before the end,
// a kept TailRow re-verifies after an append of m probabilities in O(m·H)
// instead of a fresh DP over all of them, and the vector lanes divide what
// is left by up to four.

// checkEvery is how many transactions FreqTailAbove processes between
// union-bound checks.
const checkEvery = 64

// FreqTailDP computes Pr{K ≥ minCount} for the Poisson-Binomial with trial
// probabilities ps. Bit-identical to prob.PBFreqProbDP on every input in
// the [0, 1] domain.
func FreqTailDP(ps []float64, minCount int) float64 {
	fp, _ := freqTail(ps, minCount, 0, false)
	return fp
}

// FreqTailAbove reports whether FreqTailDP(ps, minCount) > thr. When ok,
// fp is FreqTailDP's result, bit for bit; when not, fp is 0 if the union
// bound stopped the DP early and FreqTailDP's result otherwise.
func FreqTailAbove(ps []float64, minCount int, thr float64) (fp float64, ok bool) {
	return freqTail(ps, minCount, thr, true)
}

// freqTail is FreqTailDP and FreqTailAbove: a row cut at minCount with the
// dead window on; reject enables the union-bound checks against thr.
func freqTail(ps []float64, minCount int, thr float64, reject bool) (float64, bool) {
	if minCount <= 0 {
		return 1, 1 > thr
	}
	if minCount > len(ps) {
		return 0, 0 > thr
	}
	r := NewTailRow(minCount)
	if !r.fold(ps, minCount, thr, reject, true) {
		return 0, 0 > thr
	}
	v := r.Tail(minCount)
	return v, v > thr
}

// TailRow is the DP row kept whole, so the fold can resume when more
// probabilities arrive: entries 0..H stay live, and Tail reads any
// minCount ≤ H bit-identically to FreqTailDP over every probability folded
// so far (the fifth observation in the header).
type TailRow struct {
	row  []float64 // row[i] = Pr{≥ i among the folded probabilities}; row[0] ≡ 1
	top  int       // highest index that can hold mass
	used int       // probabilities folded so far
}

// NewTailRow returns the row of an empty vector, readable at every
// minCount ≤ h.
func NewTailRow(h int) *TailRow {
	r := &TailRow{row: make([]float64, h+1)}
	r.row[0] = 1
	return r
}

// TailRowAbove is FreqTailAbove(ps, minCount, thr) keeping the row whole up
// to h ≥ minCount. The row is returned when the DP ran to the end, and is
// nil (with fp 0) when the union bound stopped it early.
func TailRowAbove(ps []float64, h, minCount int, thr float64) (*TailRow, float64, bool) {
	r := NewTailRow(h)
	if !r.fold(ps, minCount, thr, true, false) {
		return nil, 0, 0 > thr
	}
	fp := r.Tail(minCount)
	return r, fp, fp > thr
}

// Extend folds ps into the row, in place.
func (r *TailRow) Extend(ps []float64) { r.fold(ps, 0, 0, false, false) }

// Tail returns Pr{K ≥ minCount} over the folded probabilities, for
// minCount ≤ H.
func (r *TailRow) Tail(minCount int) float64 {
	if minCount <= 0 {
		return 1
	}
	v := r.row[minCount]
	if v > 1 {
		v = 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

// H is the largest minCount Tail can read.
func (r *TailRow) H() int { return len(r.row) - 1 }

// Used is how many probabilities the row has folded.
func (r *TailRow) Used() int { return r.used }

// Clone returns an independent copy of the row.
func (r *TailRow) Clone() *TailRow {
	c := *r
	c.row = append([]float64(nil), r.row...)
	return &c
}

// fold is the one DP loop: it advances the row by ps, raising top no
// higher than H. With dead set it leaves entries below minCount − rem stale,
// so the row answers minCount only, and stops once row[minCount] cannot
// receive mass; with reject it runs the union-bound checks against thr,
// which also catch a row[minCount] out of reach. A stopped fold reports
// false and leaves the row unusable.
func (r *TailRow) fold(ps []float64, minCount int, thr float64, reject, dead bool) bool {
	n := len(ps)
	deadAt := 0 // lo = deadAt − rem; top+rem < deadAt ends the fold
	if dead {
		deadAt = minCount
	}
	next := n // index of the next union-bound check; n = never
	var rest, muPad, cut float64
	if reject {
		for _, p := range ps {
			rest += p
		}
		muPad = rest * float64(n+1) * 0x1p-50
		cut = thr - float64(float64(n+1)*0x1p-49)
		next = checkEvery - 1
	}
	row, top := r.row, r.top
	for j, p := range ps {
		if p == 0 {
			continue
		}
		if top < len(row)-1 {
			top++
		}
		rem := n - j - 1 // steps after this one (p == 0 steps counted: conservative)
		if top+rem < deadAt {
			// Even promoting mass every remaining step cannot reach
			// row[minCount]: the reference would return an untouched 0.
			return false
		}
		lo := deadAt - rem
		if lo < 1 {
			lo = 1
		}
		rowStep(row[lo-1:top+1], p, 1-p)
		rest -= p
		if j >= next {
			next = j + checkEvery
			if unionBoundBelow(row, lo, top, minCount, rem, rest+muPad, cut) {
				return false
			}
		}
	}
	r.top = top
	r.used += n
	return true
}

// rowStep is one DP step over w = row[lo−1 : top+1]: w[i] = w[i−1]·p + w[i]·q
// for i from len(w)−1 down to 1, with q = 1 − p; w[0] is read, not written.
// It runs rowStepAsm when this CPU has one, else rowStepGo; both compute
// every cell bit for bit alike (the sixth observation in the header).
func rowStep(w []float64, p, q float64) {
	if rowStepAsm != nil {
		rowStepAsm(w, p, q)
		return
	}
	rowStepGo(w, p, q)
}

// rowStepAsm is the vector row update, set once at package init when the
// CPU and OS support it; nil everywhere else.
var rowStepAsm func(w []float64, p, q float64)

// rowStepGo is rowStep in plain Go, with the register carry: walking down,
// this cell's w[i−1] load is the next cell's w[i] operand.
func rowStepGo(w []float64, p, q float64) {
	i := len(w) - 1
	hi := w[i]
	for i-1 >= 1 {
		a := w[i-1]
		b := w[i-2]
		w[i] = float64(a*p) + float64(hi*q)
		w[i-1] = float64(b*p) + float64(a*q)
		hi = b
		i -= 2
	}
	if i == 1 {
		w[1] = float64(w[0]*p) + float64(hi*q)
	}
}

// unionBoundBelow reports whether row[k] + Pr{R ≥ minCount−k+1} ≤ cut for
// some live k in [lo, min(top+1, minCount)], where R counts the rem
// remaining transactions and has mean at most mu.
func unionBoundBelow(row []float64, lo, top, minCount, rem int, mu, cut float64) bool {
	// The tail bound is vacuous (1) unless a = minCount−k+1 exceeds mu.
	hi := min(top+1, minCount, minCount-int(mu))
	// row[k] falls as k rises while the tail term rises, so only k at or
	// above the lowest k with row[k] ≤ cut can pass. Find it with plain
	// compares, then walk up until the tail term alone exceeds cut.
	k := hi
	for k >= lo && row[k] <= cut {
		k--
	}
	for k++; k <= hi; k++ {
		c := chernoffTail(minCount-k+1, rem, mu)
		if c > cut {
			return false
		}
		if row[k]+c <= cut {
			return true
		}
	}
	return false
}

// chernoffTail bounds Pr{R ≥ a} from above, rounding included, for R a sum
// of rem independent Bernoulli trials whose mean is at most mu.
func chernoffTail(a, rem int, mu float64) float64 {
	if a > rem {
		return 0
	}
	x := float64(a)
	if x <= mu {
		return 1
	}
	r := mu / x
	if r <= 0 {
		// mu ≤ 0, or so small that the bound is below any slack.
		return 0
	}
	l := math.Log(r) // < 0
	e := x - mu + float64(x*l)
	return math.Exp(e + float64((x+mu-float64(x*l))*0x1p-50))
}

package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// genList builds a postings list with n entries: strictly ascending TIDs
// drawn from [0, span) and quantized probabilities (multiples of 1/64, the
// kind of values real profiles carry after parsing).
func genList(rng *rand.Rand, n, span int) List {
	if n > span {
		n = span
	}
	tids := make([]uint32, 0, n)
	// Reservoir-free ascending sample: walk the domain, keep each TID with
	// the proportional probability.
	need := n
	for t := 0; t < span && need > 0; t++ {
		if rng.Intn(span-t) < need {
			tids = append(tids, uint32(t))
			need--
		}
	}
	probs := make([]float64, len(tids))
	for i := range probs {
		probs[i] = float64(1+rng.Intn(64)) / 64
	}
	return List{TIDs: tids, Probs: probs}
}

func aggEqual(t *testing.T, label string, got, want Agg, compareProbes bool) {
	t.Helper()
	if math.Float64bits(got.ESup) != math.Float64bits(want.ESup) {
		t.Fatalf("%s: ESup %v (%#x) != %v (%#x)", label, got.ESup, math.Float64bits(got.ESup), want.ESup, math.Float64bits(want.ESup))
	}
	if math.Float64bits(got.Var) != math.Float64bits(want.Var) {
		t.Fatalf("%s: Var %v != %v", label, got.Var, want.Var)
	}
	if compareProbes && got.Probes != want.Probes {
		t.Fatalf("%s: Probes %d != %d", label, got.Probes, want.Probes)
	}
	if len(got.Probs) != len(want.Probs) {
		t.Fatalf("%s: %d collected probs, want %d", label, len(got.Probs), len(want.Probs))
	}
	for i := range got.Probs {
		if math.Float64bits(got.Probs[i]) != math.Float64bits(want.Probs[i]) {
			t.Fatalf("%s: probs[%d] %v != %v", label, i, got.Probs[i], want.Probs[i])
		}
	}
}

// TestKWayMatchesScalar pins the optimized k-way kernel bitwise to the
// scalar reference for k ∈ {2..5}, with empty and single-TID lists mixed in.
func TestKWayMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.Intn(4)
		span := 1 + rng.Intn(1500)
		lists := make([]List, k)
		for i := range lists {
			n := rng.Intn(250)
			switch trial % 7 {
			case 1:
				if i == 0 {
					n = 0
				}
			case 2:
				if i == k-1 {
					n = 1
				}
			}
			lists[i] = genList(rng, n, span)
		}
		for _, chunk := range []int{512, 13} {
			for _, collect := range []bool{false, true} {
				got := KWay(lists, chunk, collect)
				want := KWayScalar(lists, chunk, collect)
				aggEqual(t, "kway", got, want, true)
			}
		}
	}
}

// TestChunkGroupingMatters documents that the chunk grouping is load-bearing:
// for at least one random input the chunk-grouped sum differs bitwise from
// the plain running sum, so "the kernels preserve the grouping" is a real
// constraint, not a vacuous one.
func TestChunkGroupingMatters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Unquantized probabilities: genList's multiples of 1/64 make every
	// product a multiple of 2^-12, and a few hundred of those sum exactly in
	// float64 under any grouping, so they can never witness anything.
	unquantized := func(l List) List {
		for i := range l.Probs {
			l.Probs[i] = rng.Float64()
		}
		return l
	}
	for trial := 0; trial < 200; trial++ {
		l := unquantized(genList(rng, 400, 3000))
		m := unquantized(genList(rng, 400, 3000))
		grouped := KWayScalar([]List{l, m}, 512, false)
		flat := 0.0
		i, j := 0, 0
		for i < len(l.TIDs) && j < len(m.TIDs) {
			switch {
			case l.TIDs[i] < m.TIDs[j]:
				i++
			case m.TIDs[j] < l.TIDs[i]:
				j++
			default:
				flat += l.Probs[i] * m.Probs[j]
				i++
				j++
			}
		}
		if math.Float64bits(grouped.ESup) != math.Float64bits(flat) {
			return // found a witness: grouping changes bits
		}
	}
	t.Fatal("no grouping witness in 200 trials (all sums associated identically)")
}

// decodeLists turns fuzz bytes into two postings lists: each byte pair is a
// TID delta and a probability index, split by a separator byte.
func decodeLists(data []byte) (List, List) {
	var a, b List
	cur := &a
	tid := uint32(0)
	for i := 0; i+1 < len(data); i += 2 {
		if data[i] == 0xFF {
			// First separator switches to the second list; later ones are
			// skipped — resetting tid twice would break the ascending-TID
			// layout contract the kernels require.
			if cur == &a {
				cur = &b
				tid = 0
			}
			i--
			continue
		}
		tid += uint32(data[i]%97) + 1 // strictly ascending
		cur.TIDs = append(cur.TIDs, tid)
		cur.Probs = append(cur.Probs, float64(1+int(data[i+1]%64))/64)
	}
	return a, b
}

// FuzzKWayBitIdentity fuzzes the optimized k-way kernel against the scalar
// reference on three lists (the first fuzzed pair plus a fixed third).
func FuzzKWayBitIdentity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0xFF, 0xFF, 5, 6}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, chunkSel uint8) {
		a, b := decodeLists(data)
		c := List{TIDs: []uint32{1, 3, 50, 120, 4000}, Probs: []float64{0.5, 0.25, 1, 0.75, 0.125}}
		chunkSize := 1 << (chunkSel % 12)
		lists := []List{a, c, b}
		opt := KWay(lists, chunkSize, true)
		ref := KWayScalar(lists, chunkSize, true)
		aggEqual(t, "fuzz kway", opt, ref, true)
	})
}

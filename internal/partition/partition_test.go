package partition

import (
	"math"
	"testing"

	"umine/internal/core"
	"umine/internal/prob"
)

func TestBoundariesCoverDisjointFixed(t *testing.T) {
	cases := []struct{ n, k int }{
		{0, 1}, {0, 4}, {1, 1}, {1, 7}, {5, 2}, {10, 3}, {10, 7}, {10, 20},
		{1000, 4}, {1001, 4}, {1024, 7}, {3372, 2}, {3402, 2}, {100003, 7},
	}
	for n := 0; n <= 700; n += 7 {
		for k := 1; k <= 9; k++ {
			cases = append(cases, struct{ n, k int }{n, k})
		}
	}
	for _, tc := range cases {
		rs := Boundaries(tc.n, tc.k)
		if len(rs) != max(tc.k, 1) {
			t.Fatalf("Boundaries(%d,%d): got %d ranges, want %d", tc.n, tc.k, len(rs), tc.k)
		}
		covered := 0
		prev := 0
		for i, r := range rs {
			if r.Lo != prev {
				t.Fatalf("Boundaries(%d,%d): range %d starts at %d, want %d (contiguous)", tc.n, tc.k, i, r.Lo, prev)
			}
			if r.Hi < r.Lo {
				t.Fatalf("Boundaries(%d,%d): range %d inverted: %+v", tc.n, tc.k, i, r)
			}
			covered += r.Len()
			prev = r.Hi
		}
		if covered != tc.n || prev != tc.n {
			t.Fatalf("Boundaries(%d,%d): covers %d ending at %d, want %d", tc.n, tc.k, covered, prev, tc.n)
		}
		// Balanced on the grid: every range is within g of n/k and no
		// shorter than ⌊n/k⌋ rounded down to a multiple of g.
		g := boundaryGrid(tc.n, tc.k)
		if c := (tc.n + tc.k - 1) / tc.k; g > 1 && g > c/16 {
			t.Fatalf("Boundaries(%d,%d): grid %d above ⌈n/k⌉/16 = %d", tc.n, tc.k, g, c/16)
		}
		floor := tc.n / tc.k / g * g
		for i, r := range rs {
			if d := float64(r.Len()) - float64(tc.n)/float64(tc.k); math.Abs(d) >= float64(g) {
				t.Fatalf("Boundaries(%d,%d): range %d has size %d, more than g=%d from n/k", tc.n, tc.k, i, r.Len(), g)
			}
			if r.Len() < floor {
				t.Fatalf("Boundaries(%d,%d): range %d has size %d, below %d", tc.n, tc.k, i, r.Len(), floor)
			}
			if i < len(rs)-1 && r.Hi%g != 0 {
				t.Fatalf("Boundaries(%d,%d): interior boundary %d off the grid g=%d", tc.n, tc.k, r.Hi, g)
			}
		}
	}
}

// TestBoundariesHoldStillUnderAppend: across the ingest-notify workload's
// growth (3372 → 3402 transactions at k = 2) the interior boundary stays
// at 1664, so each shard's held range is a prefix of its next one.
func TestBoundariesHoldStillUnderAppend(t *testing.T) {
	for n := 3372; n <= 3402; n++ {
		rs := Boundaries(n, 2)
		if rs[1].Lo != 1664 || rs[1].Hi != n {
			t.Fatalf("Boundaries(%d,2) = %+v, want [0,1664) [1664,%d)", n, rs, n)
		}
	}
}

// TestBoundariesAppendSweep: appending d transactions moves boundary i only
// where the grid index ⌊i·n/k / g⌋ or the grid g itself changes, and under
// a fixed grid one boundary moves at most once per g single appends (⌊i·n/k⌋
// grows by at most 1 per append and must cross a whole grid cell).
func TestBoundariesAppendSweep(t *testing.T) {
	for _, k := range []int{2, 3, 4, 7} {
		lastMove := make([]int, k) // n at which boundary i last moved, 0 if not under this grid
		for n := 0; n <= 5000; n++ {
			before := Boundaries(n, k)
			for _, d := range []int{1, 2, 5, 30} {
				after := Boundaries(n+d, k)
				g0, g1 := boundaryGrid(n, k), boundaryGrid(n+d, k)
				for i := 1; i < k; i++ {
					if before[i].Lo == after[i].Lo {
						continue
					}
					if cell0, cell1 := i*n/k/g0, i*(n+d)/k/g1; g0 == g1 && cell0 == cell1 {
						t.Fatalf("k=%d: n %d→%d moved Lo_%d %d→%d with grid %d and cell %d unchanged",
							k, n, n+d, i, before[i].Lo, after[i].Lo, g0, cell0)
					}
					if d == 1 && g0 == g1 && lastMove[i] > 0 && n+1-lastMove[i] < g0 {
						t.Fatalf("k=%d: Lo_%d moved at n=%d and again at n=%d, closer than g=%d",
							k, i, lastMove[i], n+1, g0)
					}
					if d == 1 {
						lastMove[i] = n + 1
					}
				}
				if d == 1 && g0 != g1 {
					clear(lastMove) // spacing holds within one grid
				}
			}
		}
	}
}

func TestCandidateSet(t *testing.T) {
	s := NewCandidateSet()
	a := core.NewItemset(1, 3)
	b := core.NewItemset(2)
	s.Add(a, b, a.Clone())
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (duplicates collapse)", s.Len())
	}
	if !s.Contains(core.NewItemset(3, 1)) || !s.Contains(b) || s.Contains(core.NewItemset(1)) {
		t.Fatalf("Contains wrong: %v", s.Itemsets())
	}
	sets := s.Itemsets()
	if len(sets) != 2 || sets[0].Compare(sets[1]) >= 0 {
		t.Fatalf("Itemsets not canonical: %v", sets)
	}
}

// TestPhase1ThresholdsFloors checks, per bound, that the derived phase-1
// threshold is a valid expected-support threshold strictly below the
// candidate floor it relaxes (so no acceptable itemset can be missed) yet
// within the slack of it (so phase 1 does not over-generate wildly).
func TestPhase1ThresholdsFloors(t *testing.T) {
	const n = 1000
	cases := []struct {
		bound Bound
		th    core.Thresholds
		floor float64 // the exact acceptance-region esup infimum
	}{
		{BoundESup, core.Thresholds{MinESup: 0.2}, 0.2 * n},
		{BoundMarkov, core.Thresholds{MinSup: 0.3, PFT: 0.9}, 0.9 * 300},
		{BoundPoisson, core.Thresholds{MinSup: 0.3, PFT: 0.9}, prob.InversePoissonLambda(300, 0.9)},
	}
	for _, tc := range cases {
		th1, err := Phase1Thresholds(tc.bound, tc.th, n)
		if err != nil {
			t.Fatalf("%v: %v", tc.bound, err)
		}
		if err := th1.Validate(core.ExpectedSupport); err != nil {
			t.Fatalf("%v: derived thresholds invalid: %v", tc.bound, err)
		}
		got := th1.MinESupCount(n)
		if got >= tc.floor {
			t.Errorf("%v: relaxed floor %v not below exact floor %v", tc.bound, got, tc.floor)
		}
		if got < tc.floor*(1-10*phase1Slack)-1 {
			t.Errorf("%v: relaxed floor %v far below exact floor %v (over-relaxed)", tc.bound, got, tc.floor)
		}
	}
}

// TestNormalFloorIsLowerBound verifies the BoundNormal inversion: no
// (esup, var ≤ esup) pair with esup below the floor passes the Normal-tail
// acceptance test.
func TestNormalFloorIsLowerBound(t *testing.T) {
	for _, msc := range []int{1, 2, 5, 40, 300} {
		for _, pft := range []float64{0.01, 0.3, 0.5, 0.9, 0.99} {
			floor := normalESupFloor(msc, pft)
			if floor < 0 || floor > float64(msc)-0.5+1e-9 {
				t.Fatalf("msc=%d pft=%v: floor %v outside [0, msc-0.5]", msc, pft, floor)
			}
			// Sample esup below the floor and var in [0, esup]: the tail
			// must stay ≤ pft everywhere (acceptance requires > pft).
			for i := 0; i < 50; i++ {
				e := floor * float64(i) / 50 * (1 - 1e-9)
				for j := 0; j <= 4; j++ {
					v := e * float64(j) / 4
					if fp := prob.NormalFreqProb(e, v, msc); fp > pft {
						t.Fatalf("msc=%d pft=%v: esup=%v var=%v below floor %v but tail %v > pft",
							msc, pft, e, v, floor, fp)
					}
				}
			}
		}
	}
}

func TestPhase1ThresholdsDegenerate(t *testing.T) {
	// msc = 1 under BoundMarkov with tiny pft: the floor collapses toward
	// zero; the ratio must still be a valid (0,1] threshold.
	th1, err := Phase1Thresholds(BoundMarkov, core.Thresholds{MinSup: 1e-9, PFT: 1e-9}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := th1.Validate(core.ExpectedSupport); err != nil {
		t.Fatalf("degenerate thresholds invalid: %v", err)
	}
	if _, err := Phase1Thresholds(BoundESup, core.Thresholds{MinESup: 0.5}, 0); err == nil {
		t.Fatal("empty database: want error")
	}
	if math.IsNaN(th1.MinESup) {
		t.Fatal("NaN ratio")
	}
}

package incmine

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"umine/internal/algo"
	"umine/internal/core"
)

// randomTxs generates n deterministic random uncertain transactions over the
// given item universe.
func randomTxs(rng *rand.Rand, n, items int) [][]core.Unit {
	out := make([][]core.Unit, n)
	for j := range out {
		var units []core.Unit
		for it := 0; it < items; it++ {
			if rng.Float64() < 0.45 {
				units = append(units, core.Unit{Item: core.Item(it), Prob: 0.1 + 0.9*rng.Float64()})
			}
		}
		if len(units) == 0 {
			units = append(units, core.Unit{Item: core.Item(rng.Intn(items)), Prob: 1})
		}
		out[j] = units
	}
	return out
}

// buildDB materializes the first n of txs as an arena database.
func buildDB(t *testing.T, txs [][]core.Unit, n int) *core.Database {
	t.Helper()
	b := core.NewBuilder("inc")
	for _, units := range txs[:n] {
		if err := b.Add(units); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return b.Build()
}

// thresholdsFor picks family-appropriate thresholds for a registry entry.
func thresholdsFor(name string) core.Thresholds {
	sem, ok := algo.SemanticsOf(name)
	if !ok {
		panic("unknown algorithm " + name)
	}
	if sem == core.ExpectedSupport {
		return core.Thresholds{MinESup: 0.25}
	}
	return core.Thresholds{MinSup: 0.3, PFT: 0.6}
}

// coldJSON mines db from scratch and returns the result set's canonical JSON
// bytes — the bit-identity oracle.
func coldJSON(t *testing.T, name string, db *core.Database, th core.Thresholds, workers int) []byte {
	t.Helper()
	m, err := algo.NewWith(name, core.Options{Workers: workers})
	if err != nil {
		t.Fatalf("NewWith(%s): %v", name, err)
	}
	rs, err := m.Mine(context.Background(), db, th)
	if err != nil {
		t.Fatalf("cold mine %s: %v", name, err)
	}
	return resultJSONBytes(t, rs)
}

func resultJSONBytes(t *testing.T, rs *core.ResultSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// diffState is a subscriber-side mirror: applying each diff in order must
// reproduce the ledger's result set exactly.
type diffState map[string]ResultDelta

func (st diffState) apply(t *testing.T, d Diff) {
	t.Helper()
	for _, x := range d.Left {
		k := intsKey(x)
		if _, ok := st[k]; !ok {
			t.Errorf("diff removed itemset %v the mirror never held", x)
		}
		delete(st, k)
	}
	for _, rd := range d.Entered {
		k := intsKey(rd.Itemset)
		if _, ok := st[k]; ok {
			t.Errorf("diff re-entered itemset %v already in the mirror", rd.Itemset)
		}
		st[k] = rd
	}
	for _, rd := range d.Changed {
		k := intsKey(rd.Itemset)
		if _, ok := st[k]; !ok {
			t.Errorf("diff changed itemset %v the mirror never held", rd.Itemset)
		}
		st[k] = rd
	}
	if len(st) != d.Total {
		t.Errorf("mirror has %d itemsets after diff, diff.Total = %d", len(st), d.Total)
	}
}

func (st diffState) verify(t *testing.T, rs *core.ResultSet) {
	t.Helper()
	if len(st) != rs.Len() {
		t.Fatalf("mirror has %d itemsets, result set %d", len(st), rs.Len())
	}
	for _, r := range rs.Results {
		rd, ok := st[intsKey(itemsetInts(r.Itemset))]
		if !ok {
			t.Errorf("mirror is missing result %v", r.Itemset)
			continue
		}
		if math.Float64bits(rd.ESup) != math.Float64bits(r.ESup) ||
			math.Float64bits(rd.Var) != math.Float64bits(r.Var) {
			t.Errorf("mirror of %v holds esup=%v var=%v, result %v %v", r.Itemset, rd.ESup, rd.Var, r.ESup, r.Var)
		}
		switch {
		case rd.FreqProb == nil:
			if !math.IsNaN(r.FreqProb) {
				t.Errorf("mirror of %v holds null freq_prob, result %v", r.Itemset, r.FreqProb)
			}
		case math.Float64bits(*rd.FreqProb) != math.Float64bits(r.FreqProb):
			t.Errorf("mirror of %v holds freq_prob=%v, result %v", r.Itemset, *rd.FreqProb, r.FreqProb)
		}
	}
}

func intsKey(x []int) string {
	var b []byte
	for _, it := range x {
		b = append(b, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(b)
}

// TestIncrementalBitIdentity is the subsystem's core guarantee: for every
// registered miner, the ledger's result set after an arbitrary append
// sequence is byte-identical to a cold mine of the same snapshot — and the
// streamed diffs, applied in order, reconstruct it exactly.
func TestIncrementalBitIdentity(t *testing.T) {
	const (
		n0      = 120
		items   = 12
		workers = 3
	)
	batches := []int{1, 2, 3, 25, 2}
	for _, e := range algo.Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			th := thresholdsFor(e.Name)
			rng := rand.New(rand.NewSource(42))
			total := n0
			for _, b := range batches {
				total += b
			}
			txs := randomTxs(rng, total, items)

			led, err := New(Config{Dataset: "inc", Algorithm: e.Name, Thresholds: th, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			led.borderFrac = 0.4
			ctx := context.Background()
			mirror := diffState{}
			incremental := 0
			n := n0
			version := uint64(1)
			steps := append([]int{0}, batches...)
			for step, b := range steps {
				n += b
				db := buildDB(t, txs, n)
				up, err := led.Update(ctx, Snapshot{DB: db, Version: version})
				if err != nil {
					t.Fatalf("step %d: Update: %v", step, err)
				}
				if up == nil {
					t.Fatalf("step %d: Update returned no refresh for a new version", step)
				}
				if step == 0 {
					if up.Reason != ReasonInitial || up.Fallback {
						t.Fatalf("first update: reason %q fallback %v, want initial build", up.Reason, up.Fallback)
					}
				}
				if up.Reason == "" {
					incremental++
					if up.DeltaScanned != b {
						t.Errorf("step %d: delta scanned %d transactions, appended %d", step, up.DeltaScanned, b)
					}
				}
				if got, want := resultJSONBytes(t, up.Results), coldJSON(t, e.Name, db, th, workers); !bytes.Equal(got, want) {
					t.Fatalf("step %d (reason %q): incremental result diverged from cold mine\nincremental: %s\ncold: %s",
						step, up.Reason, got, want)
				}
				if up.Diff.Seq != uint64(step+1) || up.Diff.Version != version {
					t.Errorf("step %d: diff seq=%d version=%d, want %d/%d", step, up.Diff.Seq, up.Diff.Version, step+1, version)
				}
				mirror.apply(t, up.Diff)
				mirror.verify(t, up.Results)

				// Same version again: no work, no diff.
				if again, err := led.Update(ctx, Snapshot{DB: db, Version: version}); err != nil || again != nil {
					t.Fatalf("step %d: re-update of the same version = (%v, %v), want (nil, nil)", step, again, err)
				}
				version++
			}
			if e.Partition && incremental == 0 {
				t.Errorf("%s: no update took the delta-only path (every refresh fell back)", e.Name)
			}
			if !e.Partition {
				if st := led.Stats(); st.Fallbacks != uint64(len(batches)) {
					t.Errorf("%s: %d fallbacks, want one per post-build refresh (%d)", e.Name, st.Fallbacks, len(batches))
				}
			}

			// SnapshotDiff carries the full current state at the current seq.
			snap, ok := led.SnapshotDiff()
			if !ok {
				t.Fatal("SnapshotDiff reports unbuilt after updates")
			}
			if snap.Reason != ReasonSnapshot || snap.Seq != uint64(len(steps)) || snap.Total != led.Results().Len() ||
				len(snap.Entered) != snap.Total || len(snap.Left) != 0 || len(snap.Changed) != 0 {
				t.Errorf("SnapshotDiff = seq %d reason %q total %d entered %d, inconsistent with ledger state",
					snap.Seq, snap.Reason, snap.Total, len(snap.Entered))
			}
			fresh := diffState{}
			fresh.apply(t, snap)
			fresh.verify(t, led.Results())
		})
	}
}

// TestFallbackPaths pins each rebuild trigger: window eviction, a shrunken
// snapshot, and border exhaustion all force a full rebuild with the right
// reason — and the rebuilt results are still bit-identical to a cold mine.
func TestFallbackPaths(t *testing.T) {
	const alg = "UApriori"
	th := core.Thresholds{MinESup: 0.25}
	rng := rand.New(rand.NewSource(7))
	txs := randomTxs(rng, 200, 10)
	ctx := context.Background()

	newLedger := func(t *testing.T, borderFrac float64) *Ledger {
		t.Helper()
		led, err := New(Config{Dataset: "fb", Algorithm: alg, Thresholds: th, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		led.borderFrac = borderFrac
		return led
	}
	check := func(t *testing.T, led *Ledger, db *core.Database, version uint64, wantReason string, wantFallback bool) *Refresh {
		t.Helper()
		up, err := led.Update(ctx, Snapshot{DB: db, Version: version, Evictions: evictionsFor(version)})
		if err != nil {
			t.Fatal(err)
		}
		if up == nil {
			t.Fatal("no refresh for a new version")
		}
		if up.Reason != wantReason || up.Fallback != wantFallback {
			t.Fatalf("reason %q fallback %v, want %q/%v", up.Reason, up.Fallback, wantReason, wantFallback)
		}
		if got, want := resultJSONBytes(t, up.Results), coldJSON(t, alg, db, th, 2); !bytes.Equal(got, want) {
			t.Fatalf("fallback path %q diverged from cold mine", wantReason)
		}
		return up
	}

	t.Run("eviction", func(t *testing.T) {
		led := newLedger(t, 0.4)
		evicting = map[uint64]int64{3: 5}
		defer func() { evicting = nil }()
		check(t, led, buildDB(t, txs, 100), 1, ReasonInitial, false)
		check(t, led, buildDB(t, txs, 101), 2, "", false)
		// Version 3 reports a bumped eviction counter: the window slid.
		check(t, led, buildDB(t, txs, 102), 3, ReasonEviction, true)
		if st := led.Stats(); st.Fallbacks != 1 {
			t.Errorf("fallbacks = %d, want 1", st.Fallbacks)
		}
	})

	t.Run("non-append", func(t *testing.T) {
		led := newLedger(t, 0.4)
		check(t, led, buildDB(t, txs, 100), 1, ReasonInitial, false)
		check(t, led, buildDB(t, txs, 90), 2, ReasonNonAppend, true)
		check(t, led, buildDB(t, txs, 91), 3, "", false)
	})

	t.Run("border-exhausted", func(t *testing.T) {
		// A minimal band: budget ≈ 1% of the cutoff (~0.25 transactions at
		// n=100), so even a single append overruns it.
		led := newLedger(t, 0.01)
		check(t, led, buildDB(t, txs, 100), 1, ReasonInitial, false)
		up := check(t, led, buildDB(t, txs, 110), 2, ReasonBorderExhausted, true)
		if up.DeltaScanned != 0 {
			t.Errorf("border-exhausted rebuild reported a delta scan of %d", up.DeltaScanned)
		}
	})
}

// evicting lets TestFallbackPaths inject eviction counts per version.
var evicting map[uint64]int64

func evictionsFor(version uint64) int64 {
	if evicting == nil {
		return 0
	}
	return evicting[version]
}

// TestConfigValidation pins constructor errors and defaults.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Algorithm: "NoSuchMiner", Thresholds: core.Thresholds{MinESup: 0.1}}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := New(Config{Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: -1}}); err == nil {
		t.Error("invalid thresholds accepted")
	}
	led, err := New(Config{Algorithm: "DPNB", Thresholds: core.Thresholds{MinSup: 0.3, PFT: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if led.borderFrac != 0.1 {
		t.Errorf("default borderFrac = %v, want 0.1", led.borderFrac)
	}
	if _, ok := led.SnapshotDiff(); ok {
		t.Error("SnapshotDiff reports built before any update")
	}
	if led.Results() != nil {
		t.Error("Results non-nil before any update")
	}
	if _, err := led.Update(context.Background(), Snapshot{}); err == nil {
		t.Error("nil snapshot database accepted")
	}
}

package core

import (
	"math"
	"math/rand"
	"testing"
)

// The arena contract: a Database built by streaming raw units through the
// Builder (NewDatabase's path) must be observationally identical — to the
// bit — to one assembled legacy-style, transaction by transaction through
// NormalizeTransaction and Builder.AddCanonical. The fuzz test drives both
// constructions from the same random raw unit lists; the deterministic
// tests below pin the derived structures (vertical index, TID counts,
// resident bytes) and the zero-allocation horizontal scan.

// legacyBuild constructs the database the way the pre-arena representation
// did: each transaction normalized into its own columns, then assembled.
func legacyBuild(t *testing.T, name string, raw [][]Unit) *Database {
	t.Helper()
	b := NewBuilder(name)
	for i, units := range raw {
		tx, err := NormalizeTransaction(units)
		if err != nil {
			t.Fatalf("transaction %d: %v", i, err)
		}
		b.AddCanonical(tx)
	}
	return b.Build()
}

// rawFromBytes decodes fuzz data into a bounded list of raw transactions:
// three bytes per unit (item, probability numerator, transaction break).
func rawFromBytes(data []byte) [][]Unit {
	var raw [][]Unit
	var cur []Unit
	for i := 0; i+2 < len(data) && len(raw) < 64; i += 3 {
		it := Item(data[i] % 32)
		p := float64(data[i+1]%255+1) / 255
		cur = append(cur, Unit{Item: it, Prob: p})
		if data[i+2]%4 == 0 {
			raw = append(raw, cur)
			cur = nil
		}
	}
	if cur != nil {
		raw = append(raw, cur)
	}
	return raw
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func requireIdenticalDatabases(t *testing.T, arena, legacy *Database) {
	t.Helper()
	if arena.N() != legacy.N() || arena.NumItems != legacy.NumItems || arena.NumUnits() != legacy.NumUnits() {
		t.Fatalf("shape differs: (%d,%d,%d) vs (%d,%d,%d)",
			arena.N(), arena.NumItems, arena.NumUnits(), legacy.N(), legacy.NumItems, legacy.NumUnits())
	}
	if as, ls := arena.Stats(), legacy.Stats(); as != ls {
		t.Fatalf("Stats differ:\n%+v\nvs\n%+v", as, ls)
	}
	ae, av := arena.ItemESupVar()
	le, lv := legacy.ItemESupVar()
	for it := range ae {
		if !sameBits(ae[it], le[it]) || !sameBits(av[it], lv[it]) {
			t.Fatalf("ItemESupVar[%d]: (%v, %v) vs (%v, %v)", it, ae[it], av[it], le[it], lv[it])
		}
	}
	for j := 0; j < arena.N(); j++ {
		if !arena.Tx(j).Equal(legacy.Tx(j)) {
			t.Fatalf("transaction %d: %v vs %v", j, arena.Tx(j), legacy.Tx(j))
		}
	}
	// Derived per-itemset measures over a few sampled itemsets.
	rng := rand.New(rand.NewSource(int64(arena.N())<<16 ^ int64(arena.NumItems)))
	for trial := 0; trial < 8; trial++ {
		var x Itemset
		for len(x) == 0 && arena.NumItems > 0 {
			k := 1 + rng.Intn(3)
			items := make([]Item, k)
			for i := range items {
				items[i] = Item(rng.Intn(arena.NumItems))
			}
			x = NewItemset(items...)
		}
		if len(x) == 0 {
			break
		}
		if a, l := arena.ESup(x), legacy.ESup(x); !sameBits(a, l) {
			t.Fatalf("ESup(%v): %v vs %v", x, a, l)
		}
		ap, lp := arena.TxProbs(x), legacy.TxProbs(x)
		for j := range ap {
			if !sameBits(ap[j], lp[j]) {
				t.Fatalf("TxProbs(%v)[%d]: %v vs %v", x, j, ap[j], lp[j])
			}
		}
	}
	if err := arena.Validate(); err != nil {
		t.Fatalf("arena database invalid: %v", err)
	}
}

// FuzzArenaMatchesLegacyConstruction round-trips random raw unit lists
// through both construction paths and requires identical ItemESupVar, ESup,
// TxProbs and Stats output (the arena is a layout change, not a semantics
// change).
func FuzzArenaMatchesLegacyConstruction(f *testing.F) {
	f.Add([]byte{1, 100, 0})
	f.Add([]byte{3, 200, 1, 3, 100, 0, 2, 50, 0})
	f.Add([]byte{31, 255, 3, 31, 1, 3, 0, 128, 0, 5, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := rawFromBytes(data)
		arena, err := NewDatabase("fuzz-arena", raw)
		if err != nil {
			t.Fatalf("decoded raw rejected: %v", err)
		}
		requireIdenticalDatabases(t, arena, legacyBuild(t, "fuzz-arena", raw))
	})
}

func fuzzStyleDB(t *testing.T, seed int64, n, m int) (*Database, *Database) {
	rng := rand.New(rand.NewSource(seed))
	raw := make([][]Unit, n)
	for i := range raw {
		for it := 0; it < m; it++ {
			if rng.Float64() < 0.4 {
				raw[i] = append(raw[i], Unit{Item(it), rng.Float64()})
			}
		}
	}
	arena, err := NewDatabase("pair", raw)
	if err != nil {
		t.Fatal(err)
	}
	return arena, legacyBuild(t, "pair", raw)
}

func TestArenaMatchesLegacyConstructionSeeded(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		arena, legacy := fuzzStyleDB(t, seed, 200, 16)
		requireIdenticalDatabases(t, arena, legacy)
	}
}

// TestHorizontalScanAllocs pins the arena's core promise: a full horizontal
// scan — every transaction viewed, every unit visited — performs zero
// per-transaction allocations.
func TestHorizontalScanAllocs(t *testing.T) {
	arena, _ := fuzzStyleDB(t, 42, 500, 12)
	x := NewItemset(1, 3)
	var sink float64
	allocs := testing.AllocsPerRun(50, func() {
		for j, n := 0, arena.N(); j < n; j++ {
			tx := arena.Tx(j)
			sink += tx.ItemsetProb(x)
		}
	})
	if allocs != 0 {
		t.Fatalf("horizontal view scan allocated %v times per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		sink += arena.ESup(x)
	})
	if allocs != 0 {
		t.Fatalf("ESup allocated %v times per run, want 0", allocs)
	}
	_ = sink
}

// TestVerticalIndexPostings: the lazily built vertical index must mirror
// the horizontal columns exactly — per-item posting lengths equal the TID
// counts, postings are ascending, probabilities match the views, and
// summing a posting list reproduces ItemESupVar's esup to the bit (same TID
// order, same association).
func TestVerticalIndexPostings(t *testing.T) {
	arena, _ := fuzzStyleDB(t, 7, 300, 10)
	v := arena.Vertical()
	if v != arena.Vertical() {
		t.Fatal("Vertical() must return the one shared index")
	}
	counts := arena.ItemTIDCounts()
	esup, _ := arena.ItemESupVar()
	for it := 0; it < arena.NumItems; it++ {
		tids, probs := v.Postings(Item(it))
		if len(tids) != int(counts[it]) {
			t.Fatalf("item %d: postings length %d, counts %d", it, len(tids), counts[it])
		}
		sum := 0.0
		for i, tid := range tids {
			if i > 0 && tids[i-1] >= tid {
				t.Fatalf("item %d: postings not ascending at %d", it, i)
			}
			if got := arena.Tx(int(tid)).Prob(Item(it)); !sameBits(got, probs[i]) {
				t.Fatalf("item %d tid %d: posting prob %v vs view %v", it, tid, probs[i], got)
			}
			sum += probs[i]
		}
		if !sameBits(sum, esup[it]) {
			t.Fatalf("item %d: posting sum %v vs ItemESupVar %v", it, sum, esup[it])
		}
	}
}

// TestSliceSharesArena: slicing is O(1) over offsets, TIDs and measures are
// range-relative, and a slice's vertical index covers only its range.
func TestSliceSharesArena(t *testing.T) {
	arena, _ := fuzzStyleDB(t, 11, 100, 8)
	sl := arena.Slice(25, 75)
	if sl.N() != 50 {
		t.Fatalf("slice N = %d", sl.N())
	}
	// O(1): the header + its formatted name, independent of the width.
	narrow := testing.AllocsPerRun(50, func() { _ = arena.Slice(40, 42) })
	wide := testing.AllocsPerRun(50, func() { _ = arena.Slice(0, 100) })
	if narrow != wide {
		t.Fatalf("Slice allocations depend on width: %v vs %v", narrow, wide)
	}
	if wide > 4 {
		t.Fatalf("Slice allocated %v times per run, want a small constant", wide)
	}
	for j := 0; j < sl.N(); j++ {
		if !sl.Tx(j).Equal(arena.Tx(25 + j)) {
			t.Fatalf("slice transaction %d does not alias parent %d", j, 25+j)
		}
	}
	v := sl.Vertical()
	for it := 0; it < sl.NumItems; it++ {
		tids, _ := v.Postings(Item(it))
		for _, tid := range tids {
			if int(tid) >= sl.N() {
				t.Fatalf("slice posting tid %d outside [0,%d)", tid, sl.N())
			}
		}
	}
	// The slice's arena span is a subset of the parent's resident bytes.
	if sb, ab := sl.Slice(0, sl.N()).BytesResident(), arena.BytesResident(); sb > ab {
		t.Fatalf("slice resident %d exceeds parent %d", sb, ab)
	}
}

func TestBytesResident(t *testing.T) {
	arena, _ := fuzzStyleDB(t, 13, 64, 8)
	base := arena.BytesResident()
	wantBase := int64(arena.NumUnits())*12 + int64(arena.N()+1)*4
	if base != wantBase {
		t.Fatalf("BytesResident = %d, want %d (columns + offsets)", base, wantBase)
	}
	v := arena.Vertical()
	grown := arena.BytesResident()
	if grown < base+v.Bytes() {
		t.Fatalf("BytesResident after Vertical = %d, want ≥ %d", grown, base+v.Bytes())
	}
}

func TestBuilderAddDatabase(t *testing.T) {
	a, _ := fuzzStyleDB(t, 17, 30, 6)
	extra, err := NormalizeTransaction([]Unit{{2, 0.5}, {9, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("grown")
	b.AddDatabase(a)
	b.AddCanonical(extra)
	grown := b.Build()
	if grown.N() != a.N()+1 {
		t.Fatalf("grown N = %d", grown.N())
	}
	if grown.NumItems != 10 {
		t.Fatalf("grown NumItems = %d, want widened to 10", grown.NumItems)
	}
	for j := 0; j < a.N(); j++ {
		if !grown.Tx(j).Equal(a.Tx(j)) {
			t.Fatalf("transaction %d changed by AddDatabase", j)
		}
	}
	if !grown.Tx(a.N()).Equal(extra) {
		t.Fatalf("appended transaction mismatch: %v", grown.Tx(a.N()))
	}
	if err := grown.Validate(); err != nil {
		t.Fatal(err)
	}
	// Appending a slice view re-bases its offsets onto the new arena.
	b2 := NewBuilder("from-slice")
	b2.AddDatabase(a.Slice(10, 20))
	sl := b2.Build()
	for j := 0; j < 10; j++ {
		if !sl.Tx(j).Equal(a.Tx(10 + j)) {
			t.Fatalf("slice-appended transaction %d mismatch", j)
		}
	}
}

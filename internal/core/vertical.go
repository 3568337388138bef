package core

import "unsafe"

// VerticalIndex is the immutable U-Eclat-style vertical mirror of a
// Database view: per item, the ascending list of TIDs mentioning the item
// together with the matching existential probabilities. Like the horizontal
// arena it is fully columnar — one flat TID column, one flat probability
// column, and a per-item offset table — so probing an item's postings is
// two contiguous sub-slices.
//
// TIDs are view-relative: for a Slice they index the slice's transactions
// [0, N), not the parent's. The index is built lazily by Database.Vertical
// and shared read-only by every miner on that view.
type VerticalIndex struct {
	numItems int
	tids     []uint32
	probs    []float64
	offs     []uint32 // len numItems+1; item i spans [offs[i], offs[i+1])
}

// Vertical returns the view's vertical index, building it on first use
// (O(Σ|T_j|), one counting pass plus one fill pass). Safe for concurrent
// callers; all of them share the one index.
func (db *Database) Vertical() *VerticalIndex {
	db.vertOnce.Do(func() {
		db.vert.Store(buildVertical(db))
	})
	return db.vert.Load()
}

func buildVertical(db *Database) *VerticalIndex {
	counts := db.ItemTIDCounts()
	offs := make([]uint32, db.NumItems+1)
	total := uint32(0)
	for i, c := range counts {
		offs[i] = total
		total += c
	}
	offs[db.NumItems] = total
	v := &VerticalIndex{
		numItems: db.NumItems,
		tids:     make([]uint32, total),
		probs:    make([]float64, total),
		offs:     offs,
	}
	cursor := make([]uint32, db.NumItems)
	copy(cursor, offs[:db.NumItems])
	for j, n := 0, db.N(); j < n; j++ {
		lo, hi := db.offsets[j], db.offsets[j+1]
		for k := lo; k < hi; k++ {
			it := db.items[k]
			at := cursor[it]
			v.tids[at] = uint32(j)
			v.probs[at] = db.probs[k]
			cursor[it] = at + 1
		}
	}
	return v
}

// NumItems returns the item universe size the index covers.
func (v *VerticalIndex) NumItems() int { return v.numItems }

// Postings returns item it's TID list (ascending) and the parallel
// existential probabilities. Both slices alias the index and are read-only.
func (v *VerticalIndex) Postings(it Item) (tids []uint32, probs []float64) {
	lo, hi := v.offs[it], v.offs[it+1]
	return v.tids[lo:hi], v.probs[lo:hi]
}

// Bytes returns the index's resident size.
func (v *VerticalIndex) Bytes() int64 {
	return int64(len(v.tids))*int64(unsafe.Sizeof(uint32(0))+unsafe.Sizeof(float64(0))) +
		int64(len(v.offs))*int64(unsafe.Sizeof(uint32(0)))
}

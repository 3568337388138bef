package core

import (
	"fmt"
	"math"
)

// The arena: a Database stores all transactions in one contiguous columnar
// backing store — a flat item column, a parallel probability column, and a
// per-transaction offset table — instead of N separately allocated
// row-oriented slices. Builder is the single way such an arena grows; once
// Build returns, the Database (and every Transaction view into it) is
// immutable.

// Builder accumulates transactions into a fresh arena. The zero value is
// not usable; construct with NewBuilder. A Builder is not safe for
// concurrent use, and must not be used again after Build.
type Builder struct {
	name    string
	items   []Item
	probs   []float64
	offsets []uint32
	scratch []Unit
	maxItem int
}

// NewBuilder returns an empty arena builder for a database with the given
// name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, offsets: make([]uint32, 1, 16), maxItem: -1}
}

// Grow pre-allocates capacity for the given transaction and unit counts
// (either may be 0 to leave that dimension growing by append).
func (b *Builder) Grow(trans, units int) {
	if trans > 0 && cap(b.offsets)-len(b.offsets) < trans {
		off := make([]uint32, len(b.offsets), len(b.offsets)+trans)
		copy(off, b.offsets)
		b.offsets = off
	}
	if units > 0 && cap(b.items)-len(b.items) < units {
		items := make([]Item, len(b.items), len(b.items)+units)
		copy(items, b.items)
		b.items = items
		probs := make([]float64, len(b.probs), len(b.probs)+units)
		copy(probs, b.probs)
		b.probs = probs
	}
}

// Len returns the number of transactions appended so far.
func (b *Builder) Len() int { return len(b.offsets) - 1 }

// Add normalizes one raw transaction (sort, clamp, max-merge duplicates,
// drop zero-probability units — exactly NormalizeTransaction's pass) and
// appends it to the arena. The units slice is not retained. Empty
// transactions are kept so transaction counts match the source data.
func (b *Builder) Add(units []Unit) error {
	norm, err := normalizeUnits(b.scratch, units)
	b.scratch = norm[:0]
	if err != nil {
		return err
	}
	if uint64(len(b.items))+uint64(len(norm)) > math.MaxUint32 {
		return fmt.Errorf("core: arena exceeds %d units", uint64(math.MaxUint32))
	}
	for _, u := range norm {
		b.items = append(b.items, u.Item)
		b.probs = append(b.probs, u.Prob)
	}
	if n := len(norm); n > 0 {
		if it := int(norm[n-1].Item); it > b.maxItem {
			b.maxItem = it
		}
	}
	b.offsets = append(b.offsets, uint32(len(b.items)))
	return nil
}

// checkCapacity panics when appending n more units would overflow the
// uint32 offset table — the arena's hard capacity (≈4.29e9 units, ~51 GiB
// of columns). A silent modular wrap would alias transactions onto wrong
// ranges; Add surfaces the same limit as an error.
func (b *Builder) checkCapacity(n int) {
	if uint64(len(b.items))+uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("core: arena exceeds %d units", uint64(math.MaxUint32)))
	}
}

// AddCanonical appends an already-canonical transaction (one produced by
// NormalizeTransaction or taken from a Database view), copying its columns
// into the arena without re-normalizing. It panics if the arena's uint32
// unit capacity would overflow.
func (b *Builder) AddCanonical(t Transaction) {
	b.checkCapacity(len(t.Items))
	b.items = append(b.items, t.Items...)
	b.probs = append(b.probs, t.Probs...)
	if n := len(t.Items); n > 0 {
		if it := int(t.Items[n-1]); it > b.maxItem {
			b.maxItem = it
		}
	}
	b.offsets = append(b.offsets, uint32(len(b.items)))
}

// AddDatabase bulk-appends every transaction of db (one columnar copy, no
// per-transaction work) and widens the pending item universe to at least
// db.NumItems. It panics if the arena's uint32 unit capacity would
// overflow.
func (b *Builder) AddDatabase(db *Database) {
	if len(db.offsets) == 0 {
		return
	}
	b.checkCapacity(db.NumUnits())
	lo, hi := db.span()
	base := uint32(len(b.items)) - db.offsets[0]
	b.items = append(b.items, db.items[lo:hi]...)
	b.probs = append(b.probs, db.probs[lo:hi]...)
	for _, off := range db.offsets[1:] {
		b.offsets = append(b.offsets, off+base)
	}
	if db.NumItems-1 > b.maxItem {
		b.maxItem = db.NumItems - 1
	}
}

// Build finalizes the arena into an immutable Database. The item universe
// is the inferred max item + 1 (widen afterwards with SetNumItems). The
// Builder must not be used after Build.
func (b *Builder) Build() *Database {
	return &Database{
		Name:     b.name,
		NumItems: b.maxItem + 1,
		items:    b.items,
		probs:    b.probs,
		offsets:  b.offsets,
	}
}

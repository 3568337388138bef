package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Database is an uncertain transaction database UDB: an ordered collection
// of uncertain transactions over a dense item universe [0, NumItems).
//
// The storage is arena-backed and columnar: all transactions live in one
// contiguous item column and one parallel probability column, with a
// per-transaction offset table mapping TID j to the half-open column range
// [offsets[j], offsets[j+1]). Transaction values handed out by Tx are cheap
// views into the arena — scanning the database touches two flat arrays
// instead of chasing N separately allocated row slices, which is what makes
// the counting passes (the platform's cost center) cache-friendly and
// allocation-free.
//
// A Database is immutable once built; miners never modify it and may share
// one instance across goroutines. Construct one with NewDatabase or a
// Builder.
type Database struct {
	// Name labels the database in reports (e.g. "connect-like").
	Name string
	// NumItems is the size of the item universe; every unit's item is in
	// [0, NumItems).
	NumItems int

	// The arena columns. For a Slice view, items and probs are the parent's
	// full columns and offsets is a sub-slice of the parent's offset table
	// (offset values are absolute arena positions), so slicing is O(1) and
	// allocates nothing beyond the Database header.
	items   []Item
	probs   []float64
	offsets []uint32 // len N+1; transaction j spans [offsets[j], offsets[j+1])

	// Lazily built derived structures (safe for concurrent first use).
	vertOnce   sync.Once
	vert       atomic.Pointer[VerticalIndex]
	countsOnce sync.Once
	counts     atomic.Pointer[[]uint32]
}

// ErrEmptyDatabase is returned when a Database with no transactions is used
// where at least one transaction is required.
var ErrEmptyDatabase = errors.New("core: empty database")

// NewDatabase normalizes the raw transactions and builds an arena-backed
// Database. Empty transactions are kept (they contribute zero probability
// to every itemset) so that transaction counts match the source data. The
// item universe size is inferred as max item + 1 and can be widened
// afterwards with SetNumItems.
func NewDatabase(name string, raw [][]Unit) (*Database, error) {
	b := NewBuilder(name)
	units := 0
	for _, u := range raw {
		units += len(u)
	}
	b.Grow(len(raw), units)
	for tid, units := range raw {
		if err := b.Add(units); err != nil {
			return nil, fmt.Errorf("transaction %d: %w", tid, err)
		}
	}
	return b.Build(), nil
}

// MustNewDatabase is NewDatabase panicking on error; intended for tests and
// examples with literal data.
func MustNewDatabase(name string, raw [][]Unit) *Database {
	db, err := NewDatabase(name, raw)
	if err != nil {
		panic(err)
	}
	return db
}

// SetNumItems widens the declared item universe. It panics if n is smaller
// than an item already present, or if a derived per-item index (TID
// counts, vertical postings) was already built against the old universe —
// widen right after construction, before the database is mined.
func (db *Database) SetNumItems(n int) {
	if n < db.NumItems {
		panic(fmt.Sprintf("core: SetNumItems(%d) below existing universe %d", n, db.NumItems))
	}
	if n != db.NumItems && (db.counts.Load() != nil || db.vert.Load() != nil) {
		panic(fmt.Sprintf("core: SetNumItems(%d) after per-item indexes were built for universe %d", n, db.NumItems))
	}
	db.NumItems = n
}

// N returns the number of transactions, the paper's N.
func (db *Database) N() int {
	if len(db.offsets) == 0 {
		return 0
	}
	return len(db.offsets) - 1
}

// span returns the arena column range [lo, hi) covered by this database
// view (the whole arena for a full database, a sub-range for a Slice).
func (db *Database) span() (lo, hi int) {
	if len(db.offsets) == 0 {
		return 0, 0
	}
	return int(db.offsets[0]), int(db.offsets[len(db.offsets)-1])
}

// NumUnits returns the total number of units Σ|T_j| held by this view.
func (db *Database) NumUnits() int {
	lo, hi := db.span()
	return hi - lo
}

// Tx returns transaction j as a cheap view into the arena: O(1), no
// allocation, columns shared read-only.
func (db *Database) Tx(j int) Transaction {
	lo, hi := db.offsets[j], db.offsets[j+1]
	return Transaction{Items: db.items[lo:hi], Probs: db.probs[lo:hi]}
}

// TxLen returns the number of units in transaction j without materializing
// a view.
func (db *Database) TxLen(j int) int {
	return int(db.offsets[j+1] - db.offsets[j])
}

// Columns exposes the arena's backing columns and the view's offset table
// for zero-overhead scan loops: transaction j's units occupy
// items[offsets[j]:offsets[j+1]] and probs[offsets[j]:offsets[j+1]]
// (offsets are absolute arena positions, also for slices). All three
// slices are shared and must be treated as strictly read-only. Hot counting
// paths iterate these directly; everything else should prefer Tx views.
func (db *Database) Columns() (items []Item, probs []float64, offsets []uint32) {
	return db.items, db.probs, db.offsets
}

// Transactions materializes every transaction view in TID order. It
// allocates one slice of view headers; hot paths should index Tx directly
// instead.
func (db *Database) Transactions() []Transaction {
	out := make([]Transaction, db.N())
	for j := range out {
		out[j] = db.Tx(j)
	}
	return out
}

// BytesResident returns the resident size of this view's storage: the
// arena span it covers (items + probs), its offset table, and the per-item
// indexes (TID counts, vertical postings) when they have been built. Slices
// report only their span, so a registry sharing one arena across sharded
// views does not multiply-count the backing store.
func (db *Database) BytesResident() int64 {
	span := int64(db.NumUnits())
	b := span*int64(unsafe.Sizeof(Item(0))+unsafe.Sizeof(float64(0))) +
		int64(len(db.offsets))*int64(unsafe.Sizeof(uint32(0)))
	if v := db.vert.Load(); v != nil {
		b += v.Bytes()
	}
	if c := db.counts.Load(); c != nil {
		b += int64(len(*c)) * int64(unsafe.Sizeof(uint32(0)))
	}
	return b
}

// ItemESupVar returns per-item expected support and variance of support in
// one scan. Since sup({i}) is Poisson-Binomial, Var = Σ p(1−p). This is the
// paper's observation that expectation and variance have identical
// computational cost (Section 1).
func (db *Database) ItemESupVar() (esup, varsup []float64) {
	esup = make([]float64, db.NumItems)
	varsup = make([]float64, db.NumItems)
	lo, hi := db.span()
	for k := lo; k < hi; k++ {
		p := db.probs[k]
		esup[db.items[k]] += p
		varsup[db.items[k]] += float64(p * (1 - p))
	}
	return esup, varsup
}

// ItemTIDCounts returns, per item, the number of transactions of this view
// that mention it — the vertical index's postings lengths, computed (and
// cached) without building the index itself. The result is shared and must
// be treated as read-only.
func (db *Database) ItemTIDCounts() []uint32 {
	db.countsOnce.Do(func() {
		c := make([]uint32, db.NumItems)
		lo, hi := db.span()
		for k := lo; k < hi; k++ {
			c[db.items[k]]++
		}
		db.counts.Store(&c)
	})
	return *db.counts.Load()
}

// ESup returns the expected support of itemset X: Σ_t Pr(X ⊆ t)
// (Definition 1). Complexity O(N · |X|).
func (db *Database) ESup(x Itemset) float64 {
	s := 0.0
	for j, n := 0, db.N(); j < n; j++ {
		s += db.Tx(j).ItemsetProb(x)
	}
	return s
}

// ESupVar returns the expected support and the variance of the support of
// itemset X in a single scan.
func (db *Database) ESupVar(x Itemset) (esup, varsup float64) {
	for j, n := 0, db.N(); j < n; j++ {
		p := db.Tx(j).ItemsetProb(x)
		esup += p
		varsup += float64(p * (1 - p))
	}
	return esup, varsup
}

// TxProbs returns the per-transaction containment probabilities
// p_j = Pr(X ⊆ T_j) for j = 1..N, the input to exact probabilistic
// frequentness computations. Zero entries are included so indexes align
// with TIDs.
func (db *Database) TxProbs(x Itemset) []float64 {
	ps := make([]float64, db.N())
	for j := range ps {
		ps[j] = db.Tx(j).ItemsetProb(x)
	}
	return ps
}

// Stats describes a database in the shape of the paper's Table 6.
type Stats struct {
	Name        string
	NumTrans    int
	NumItems    int
	AvgLen      float64 // average number of units per transaction
	Density     float64 // AvgLen / NumItems
	TotalUnits  int     // Σ transaction lengths
	MeanProb    float64 // mean unit probability
	MinProb     float64
	MaxProb     float64
	EmptyTrans  int
	MaxTransLen int
}

// Stats computes summary statistics for the database.
func (db *Database) Stats() Stats {
	st := Stats{
		Name:     db.Name,
		NumTrans: db.N(),
		NumItems: db.NumItems,
		MinProb:  math.Inf(1),
		MaxProb:  math.Inf(-1),
	}
	for j := 0; j < st.NumTrans; j++ {
		l := db.TxLen(j)
		if l == 0 {
			st.EmptyTrans++
		}
		if l > st.MaxTransLen {
			st.MaxTransLen = l
		}
	}
	lo, hi := db.span()
	st.TotalUnits = hi - lo
	sumProb := 0.0
	for k := lo; k < hi; k++ {
		p := db.probs[k]
		sumProb += p
		if p < st.MinProb {
			st.MinProb = p
		}
		if p > st.MaxProb {
			st.MaxProb = p
		}
	}
	if st.NumTrans > 0 {
		st.AvgLen = float64(st.TotalUnits) / float64(st.NumTrans)
	}
	if st.NumItems > 0 {
		st.Density = st.AvgLen / float64(st.NumItems)
	}
	if st.TotalUnits > 0 {
		st.MeanProb = sumProb / float64(st.TotalUnits)
	} else {
		st.MinProb, st.MaxProb = 0, 0
	}
	return st
}

// Validate checks structural invariants: a well-formed offset table,
// canonical transactions, probabilities in (0,1], items within the
// universe. Databases produced by NewDatabase always validate; this is for
// data assembled from external files.
func (db *Database) Validate() error {
	if db.NumItems < 0 {
		return fmt.Errorf("core: negative NumItems %d", db.NumItems)
	}
	if len(db.items) != len(db.probs) {
		return fmt.Errorf("core: column length mismatch: %d items vs %d probs", len(db.items), len(db.probs))
	}
	for j := 1; j < len(db.offsets); j++ {
		if db.offsets[j] < db.offsets[j-1] {
			return fmt.Errorf("core: offset table not monotone at transaction %d", j-1)
		}
	}
	if n := db.N(); n > 0 && int(db.offsets[n]) > len(db.items) {
		return fmt.Errorf("core: offset table exceeds arena (%d > %d)", db.offsets[n], len(db.items))
	}
	for tid, n := 0, db.N(); tid < n; tid++ {
		t := db.Tx(tid)
		for i, it := range t.Items {
			if i > 0 && t.Items[i-1] >= it {
				return fmt.Errorf("core: transaction %d not canonical at unit %d", tid, i)
			}
			p := t.Probs[i]
			if p <= 0 || p > 1 || p != p {
				return fmt.Errorf("core: transaction %d item %d has invalid probability %v", tid, it, p)
			}
			if int(it) >= db.NumItems {
				return fmt.Errorf("core: transaction %d item %d outside universe [0,%d)", tid, it, db.NumItems)
			}
		}
	}
	return nil
}

// Slice returns a database over transactions [lo, hi): O(1), sharing the
// arena columns with only the offset table re-sliced — the fixed-boundary
// invariant of the partition engine (boundaries a function of (N, K) alone)
// costs nothing per partition. Derived indexes (vertical, TID counts) are
// per-view and rebuilt lazily for the slice's range.
func (db *Database) Slice(lo, hi int) *Database {
	if lo < 0 || hi > db.N() || lo > hi {
		panic(fmt.Sprintf("core: Slice(%d,%d) out of range [0,%d]", lo, hi, db.N()))
	}
	// The name "<parent>[lo:hi]" is built in a stack buffer so it costs one
	// string allocation. fmt's printers come from a sync.Pool, which the
	// race detector drops at random, so Sprintf's allocation count varies.
	var buf [64]byte
	name := append(buf[:0], db.Name...)
	name = append(name, '[')
	name = strconv.AppendInt(name, int64(lo), 10)
	name = append(name, ':')
	name = strconv.AppendInt(name, int64(hi), 10)
	name = append(name, ']')
	return &Database{
		Name:     string(name),
		NumItems: db.NumItems,
		items:    db.items,
		probs:    db.probs,
		offsets:  db.offsets[lo : hi+1],
	}
}

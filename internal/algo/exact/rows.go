package exact

import (
	"sync"
	"sync/atomic"

	"umine/internal/core"
	"umine/internal/kernel"
)

// Rows stores resumable DP rows (kernel.TailRow), one per itemset, so that
// a DP miner re-verifying an itemset over an appended database extends the
// row it kept last time by the new transactions' probabilities instead of
// re-running the whole DP. A row's tail reads the bits a fresh DP would
// return (see internal/kernel), so results never depend on whether a row
// was used.
//
// A mine with Rows verifies each candidate from its kept row when the row
// is valid: it has folded no more probabilities than the candidate now has
// and its H covers the run's msc. Otherwise it runs a fresh DP and keeps
// the row if the DP ran to completion (none is kept while msc is above the
// store's own H). Decide extends copies and stages
// them, so the kept rows do not change during a mine. Commit then makes the
// staged rows the kept ones: rows the mine did not stage (itemsets no
// longer allowed, pruned or rejected early) are dropped. A mine that is not
// committed leaves the store as it was. One mine at a time may use a store.
type Rows struct {
	h      int
	kept   map[string]*kernel.TailRow
	mu     sync.Mutex
	staged map[string]*kernel.TailRow
	// resumed counts the rows the current mine extended instead of
	// rebuilding.
	resumed atomic.Int64
}

// NewRows returns an empty store whose fresh rows answer every msc ≤ h.
func NewRows(h int) *Rows { return &Rows{h: h} }

// H returns the height of the rows the store builds: the largest msc they
// answer.
func (s *Rows) H() int { return s.h }

// Len returns the number of kept rows.
func (s *Rows) Len() int { return len(s.kept) }

// Row returns the kept row of items, or nil.
func (s *Rows) Row(items core.Itemset) *kernel.TailRow { return s.kept[items.Key()] }

// Resumed returns how many rows the last mine extended instead of
// rebuilding.
func (s *Rows) Resumed() int { return int(s.resumed.Load()) }

// Commit keeps the rows the last mine staged, dropping every other row.
func (s *Rows) Commit() {
	s.kept, s.staged = s.staged, nil
}

// begin starts a mine's staging.
func (s *Rows) begin() {
	s.staged = make(map[string]*kernel.TailRow, len(s.kept))
	s.resumed.Store(0)
}

// above is FreqTailAbove(ps, msc, thr) for items, from its kept row when
// that row is valid. Safe for concurrent calls within one mine.
func (s *Rows) above(items core.Itemset, ps []float64, msc int, thr float64) (float64, bool) {
	key := items.Key()
	if r := s.kept[key]; r != nil && r.Used() <= len(ps) && msc <= r.H() {
		r = r.Clone()
		r.Extend(ps[r.Used():])
		s.resumed.Add(1)
		s.stage(key, r)
		fp := r.Tail(msc)
		return fp, fp > thr
	}
	if msc > s.h {
		return kernel.FreqTailAbove(ps, msc, thr)
	}
	r, fp, ok := kernel.TailRowAbove(ps, s.h, msc, thr)
	if r != nil {
		s.stage(key, r)
	}
	return fp, ok
}

func (s *Rows) stage(key string, r *kernel.TailRow) {
	s.mu.Lock()
	s.staged[key] = r
	s.mu.Unlock()
}

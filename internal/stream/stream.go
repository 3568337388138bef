// Package stream maintains frequent itemsets over a sliding window of an
// uncertain transaction stream — the online counterpart of the batch miners,
// for the paper's motivating deployments (wireless sensor networks, §1)
// where readings arrive continuously and only the recent window matters.
//
// The design follows the windowed variant of expected-support maintenance
// (cf. SUF-growth, Leung & Hao, ICDE 2009): expected support and support
// variance are plain sums over the window's transactions, so both are
// maintained incrementally — O(|watch list| ∩ |transaction|) per arrival
// and per eviction, with no rescans. Frequent-probability queries reuse the
// paper's bridge: the Normal approximation needs exactly the two running
// sums the window already keeps.
//
// Two usage modes compose:
//
//   - a watch list of itemsets whose frequentness is tracked continuously
//     (monitoring known patterns);
//   - periodic re-discovery: every RefreshEvery arrivals the window is
//     re-mined with a batch algorithm and the watch list is replaced by the
//     result (discovering new patterns).
package stream

import (
	"context"
	"fmt"

	"umine/internal/core"
	"umine/internal/prob"
)

// Config parameterizes a Window.
type Config struct {
	// Size is the sliding-window capacity W in transactions. Required.
	Size int
	// Thresholds used by Frequent and the refresh miner.
	Thresholds core.Thresholds
	// Semantics selects the frequentness definition answered by Frequent.
	Semantics core.Semantics
	// RefreshEvery re-mines the window and replaces the watch list after
	// this many arrivals (0 disables re-discovery).
	RefreshEvery int
	// Miner performs the re-discovery (required when RefreshEvery > 0).
	// Any core.Miner works, including a SON partition engine built with
	// Options.Partitions (algo.NewWith): partitioned refresh re-mines are
	// bit-identical to single-shot ones, so the watch list is unaffected
	// by how the refresh is executed.
	Miner core.Miner
}

// tracked carries one watched itemset's running sums over the window.
type tracked struct {
	itemset core.Itemset
	esup    float64 // Σ p_t over the window
	varsum  float64 // Σ p_t(1−p_t)
}

// Window is a sliding window over an uncertain transaction stream with
// incrementally maintained expected supports. Not safe for concurrent use.
type Window struct {
	cfg     Config
	ring    []core.Transaction
	head    int // next slot to overwrite
	filled  int
	arrived int64
	evicted int64
	watch   []tracked
	index   map[string]int // itemset key → watch position
}

// NewWindow validates the configuration and allocates the window.
func NewWindow(cfg Config) (*Window, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("stream: window size %d must be positive", cfg.Size)
	}
	if err := cfg.Thresholds.Validate(cfg.Semantics); err != nil {
		return nil, err
	}
	if cfg.RefreshEvery > 0 && cfg.Miner == nil {
		return nil, fmt.Errorf("stream: RefreshEvery set without a Miner")
	}
	return &Window{
		cfg:   cfg,
		ring:  make([]core.Transaction, cfg.Size),
		index: map[string]int{},
	}, nil
}

// Watch adds an itemset to the watch list, initializing its sums from the
// window's current contents (one pass over ≤ Size transactions). Watching
// an already-watched itemset is a no-op.
func (w *Window) Watch(x core.Itemset) {
	if !x.IsCanonical() || len(x) == 0 {
		panic(fmt.Sprintf("stream: Watch(%v): itemset must be canonical and non-empty", x))
	}
	if _, ok := w.index[x.Key()]; ok {
		return
	}
	t := tracked{itemset: x.Clone()}
	for i := 0; i < w.filled; i++ {
		p := w.ring[w.slot(i)].ItemsetProb(x)
		t.esup += p
		t.varsum += float64(p * (1 - p))
	}
	w.index[x.Key()] = len(w.watch)
	w.watch = append(w.watch, t)
}

// Unwatch removes an itemset from the watch list; absent is a no-op.
func (w *Window) Unwatch(x core.Itemset) {
	pos, ok := w.index[x.Key()]
	if !ok {
		return
	}
	last := len(w.watch) - 1
	w.watch[pos] = w.watch[last]
	w.index[w.watch[pos].itemset.Key()] = pos
	w.watch = w.watch[:last]
	delete(w.index, x.Key())
}

// Watched lists the watched itemsets in watch order.
func (w *Window) Watched() []core.Itemset {
	out := make([]core.Itemset, len(w.watch))
	for i := range w.watch {
		out[i] = w.watch[i].itemset
	}
	return out
}

// Push appends one transaction, evicting the oldest when the window is
// full, and returns whether a refresh re-mining ran. The context bounds a
// triggered refresh re-mine (the only potentially long operation on the
// ingest path); a canceled refresh leaves the transaction applied and the
// watch list stale, reported via err = ctx.Err().
func (w *Window) Push(ctx context.Context, units []core.Unit) (refreshed bool, err error) {
	tx, err := core.NormalizeTransaction(units)
	if err != nil {
		return false, fmt.Errorf("stream: %w", err)
	}
	// tx owns freshly allocated columns — no defensive clone needed.
	return w.arrive(ctx, tx)
}

// PushCanonical is Push for an already-canonical transaction (one produced
// by NormalizeTransaction, or taken from a Database), skipping the
// redundant normalization pass. The transaction's columns are copied into
// the ring: retaining the caller's view unchanged would pin the whole
// arena it aliases for as long as the entry survives.
func (w *Window) PushCanonical(ctx context.Context, tx core.Transaction) (refreshed bool, err error) {
	return w.arrive(ctx, tx.Clone())
}

// arrive applies one owned transaction and triggers a refresh re-mine at
// the configured boundaries.
func (w *Window) arrive(ctx context.Context, tx core.Transaction) (refreshed bool, err error) {
	w.push(tx)
	if w.cfg.RefreshEvery > 0 && w.arrived%int64(w.cfg.RefreshEvery) == 0 {
		return true, w.Refresh(ctx)
	}
	return false, nil
}

// Load bulk-appends already-canonical transactions (oldest first, e.g. a
// Database's) without triggering per-arrival refresh re-mines, then runs a
// single refresh if one is configured — the seeding counterpart of Push,
// where only the state after the last transaction matters. Views are
// copied into the ring (see PushCanonical); with no watch list, the
// evicted prefix of an over-long seed carries no observable state, so only
// the surviving tail is copied at all.
func (w *Window) Load(ctx context.Context, txs []core.Transaction) error {
	skip := 0
	if len(w.watch) == 0 && len(txs) > w.cfg.Size {
		// Only the trailing Size transactions survive and no running sums
		// depend on the evicted prefix; count the skipped arrivals so
		// Arrived() still reflects the whole load.
		skip = len(txs) - w.cfg.Size
		w.arrived += int64(skip)
		// The skipped prefix was logically pushed and immediately evicted;
		// counting it keeps Evictions consistent with Arrived − N.
		w.evicted += int64(skip)
	}
	for _, tx := range txs[skip:] {
		w.push(tx.Clone())
	}
	if w.cfg.RefreshEvery > 0 && len(txs) > 0 {
		return w.Refresh(ctx)
	}
	return nil
}

// push is the arrival bookkeeping shared by the entry points above: evict,
// insert, update the watched running sums. The transaction must be owned
// by the window (callers clone arena views before handing them over).
func (w *Window) push(tx core.Transaction) {
	if w.filled == w.cfg.Size {
		w.evicted++
		old := w.ring[w.head]
		for i := range w.watch {
			p := old.ItemsetProb(w.watch[i].itemset)
			w.watch[i].esup -= p
			w.watch[i].varsum -= float64(p * (1 - p))
			// Running subtractions accumulate float error; clamp tiny
			// negatives so downstream math stays in range.
			if w.watch[i].esup < 0 {
				w.watch[i].esup = 0
			}
			if w.watch[i].varsum < 0 {
				w.watch[i].varsum = 0
			}
		}
	} else {
		w.filled++
	}
	w.ring[w.head] = tx
	w.head = (w.head + 1) % w.cfg.Size
	for i := range w.watch {
		p := tx.ItemsetProb(w.watch[i].itemset)
		w.watch[i].esup += p
		w.watch[i].varsum += float64(p * (1 - p))
	}
	w.arrived++
}

// N returns the number of transactions currently in the window.
func (w *Window) N() int { return w.filled }

// Arrived returns the total number of pushed transactions.
func (w *Window) Arrived() int64 { return w.arrived }

// Evictions returns the total number of transactions the window has dropped
// (arrivals beyond its capacity). Snapshots taken at equal eviction counts
// and growing N are append-only extensions of each other; a changed count
// means the window slid. (The server's incremental ledger applies the same
// rule to the serving registry's own eviction count, not to a Window.)
func (w *Window) Evictions() int64 { return w.evicted }

// slot maps a logical window index (0 = oldest) to a ring position.
func (w *Window) slot(i int) int {
	if w.filled < w.cfg.Size {
		return i
	}
	return (w.head + i) % w.cfg.Size
}

// Snapshot materializes the window as a Database (oldest first), for batch
// mining or inspection. The window's transactions are copied into a fresh
// columnar arena (one O(Σ|T|) pass), so the snapshot is as scan-friendly as
// any loaded database and shares no mutable state with the ring.
func (w *Window) Snapshot() *core.Database {
	b := core.NewBuilder(fmt.Sprintf("window@%d", w.arrived))
	units := 0
	for i := 0; i < w.filled; i++ {
		units += w.ring[w.slot(i)].Len()
	}
	b.Grow(w.filled, units)
	for i := 0; i < w.filled; i++ {
		b.AddCanonical(w.ring[w.slot(i)])
	}
	return b.Build()
}

// ESup returns the watched itemset's expected support over the current
// window and whether it is watched.
func (w *Window) ESup(x core.Itemset) (float64, bool) {
	pos, ok := w.index[x.Key()]
	if !ok {
		return 0, false
	}
	return w.watch[pos].esup, true
}

// FreqProb returns the Normal-approximation frequent probability
// Pr{sup(X) ≥ ⌈N·min_sup⌉} of a watched itemset over the current window —
// the paper's bridge applied online. The second return is false when x is
// not watched or the window is empty.
func (w *Window) FreqProb(x core.Itemset) (float64, bool) {
	pos, ok := w.index[x.Key()]
	if !ok || w.filled == 0 {
		return 0, false
	}
	t := w.watch[pos]
	msc := w.cfg.Thresholds.MinSupCount(w.filled)
	return prob.NormalFreqProb(t.esup, t.varsum, msc), true
}

// Frequent reports the watched itemsets currently frequent under the
// configured semantics, as Results in canonical order.
func (w *Window) Frequent() []core.Result {
	if w.filled == 0 {
		return nil
	}
	var out []core.Result
	for _, t := range w.watch {
		switch w.cfg.Semantics {
		case core.ExpectedSupport:
			if t.esup >= w.cfg.Thresholds.MinESupCount(w.filled)-core.Eps {
				out = append(out, core.Result{Itemset: t.itemset, ESup: t.esup, Var: t.varsum})
			}
		case core.Probabilistic:
			fp := prob.NormalFreqProb(t.esup, t.varsum, w.cfg.Thresholds.MinSupCount(w.filled))
			if fp > w.cfg.Thresholds.PFT+core.Eps {
				out = append(out, core.Result{Itemset: t.itemset, ESup: t.esup, Var: t.varsum, FreqProb: fp})
			}
		}
	}
	core.SortResults(out)
	return out
}

// Refresh re-mines the window with the configured miner and replaces the
// watch list with the mined itemsets. Called automatically every
// RefreshEvery arrivals; callable manually at any time when a Miner is
// configured. The context aborts the re-mine at the miner's next
// cooperative checkpoint, leaving the previous watch list in place.
func (w *Window) Refresh(ctx context.Context) error {
	if w.cfg.Miner == nil {
		return fmt.Errorf("stream: Refresh without a configured Miner")
	}
	if w.filled == 0 {
		return nil
	}
	rs, err := w.cfg.Miner.Mine(ctx, w.Snapshot(), w.cfg.Thresholds)
	if err != nil {
		return fmt.Errorf("stream: refresh mining: %w", err)
	}
	w.watch = w.watch[:0]
	w.index = map[string]int{}
	for _, r := range rs.Results {
		w.index[r.Itemset.Key()] = len(w.watch)
		w.watch = append(w.watch, tracked{itemset: r.Itemset, esup: r.ESup, varsum: r.Var})
	}
	return nil
}

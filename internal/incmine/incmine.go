// Package incmine maintains a mining query's result set incrementally
// across append-only ingest — the analytical half of the serving layer's
// HTAP split. After a first full mine it keeps a support ledger: the result
// set plus a border band of near-threshold itemsets tracked below the
// cutoff, each with its running expected support. An append-only delta then
// updates every tracked support by scanning only the appended transactions
// (expected support is additive — the same SON property the partition
// engine exploits across shards), and the refreshed result set is emitted
// by re-running the target miner restricted to the itemsets whose updated
// supports clear the candidate cutoff.
//
// # Bit-identity
//
// Emitted results are bit-identical to a cold mine of the same snapshot at
// every step. Three facts make that a theorem rather than an aspiration:
//
//  1. The cutoff is the algorithm's phase-1 candidate floor
//     (algo.Phase1ThresholdsFor): an itemset in the result set — and, by
//     anti-monotonicity, every subset of one — has exact expected support
//     at least the family floor F(N), which sits a relative 1e-6 above the
//     cutoff. The ledger's screens track exact supports to within float
//     summation noise (they are maintained in the same TID order as a flat
//     scan), so every itemset a cold mine would report, and every subset a
//     miner must descend through to reach it, passes the screen test. The
//     allowed set is therefore a superset of the true result set, closed
//     downward over it.
//
//  2. algo.NewRestricted guarantees that a miner built with such a
//     superset as its restriction runs bit-identical to the unrestricted
//     one — the contract phase 2 of the partition engine already relies
//     on. The restriction only skips work (candidates that provably cannot
//     be results); it never changes how an admitted itemset is computed.
//
//  3. For the DP miners (DPNB, DPB) a delta refresh resumes the exact DP
//     instead of re-running it (algo.NewResumable): the §3.2.1 recurrence
//     is a left fold over an itemset's containment probabilities in TID
//     order, and an append only adds probabilities at the end. The ledger
//     keeps, per verified itemset, the DP row of its last refresh
//     (exact.Rows), cut at H = MinSupCount(baseN + B) with B the most
//     appended transactions the border budget admits, so msc cannot pass H
//     before the next rebuild. Each refresh folds only the new
//     probabilities into the row and reads row[msc], which carries the bits
//     of a fresh DP over the whole vector (internal/kernel, TailRow).
//     ESup and Var still come from the restricted counting pass.
//
// The restricted re-mine prices like the partition engine's phase 2 — a
// counting pass over the allowed itemsets instead of a full candidate
// search — and the resumed rows take the DP off it. On perfbench's
// ingest-notify (2 vCPU, seed 1: 2-transaction appends to a DPNB query over
// ~3,400 transactions, ~350 allowed itemsets), incmine.update_ms fell from
// 242–372 ms to 27–34 ms over two traced runs, most of what is left being
// that counting pass. The delta scan itself is microseconds per tracked
// itemset.
//
// Rows are only an execution shortcut, and a row is rebuilt by a fresh DP
// whenever it cannot be resumed:
//
//   - the itemset has no kept row: the first delta refresh after a
//     rebuild (the initial build and every fallback below start the store
//     empty), or an itemset entering the verified set;
//   - the row has folded more probabilities than the itemset now has, or
//     its H is below msc (neither happens on an append-only stream; the
//     checks keep a stale row from ever being read).
//
// Rows of itemsets the refresh did not verify to the end are dropped. A
// refresh commits the advanced screens and rows only after its re-mine
// succeeded, so a failed or canceled Update leaves the ledger as it was.
//
// # Fallbacks
//
// The delta-only path is sound only while the snapshot extends the previous
// one. The ledger falls back to a full rebuild (tracked re-mine + restricted
// emit — still bit-identical) when:
//
//   - the window evicted (Snapshot.Evictions changed) or shrank — the old
//     prefix is gone, additivity is void;
//   - the border is exhausted: an untracked itemset gains at most 1 per
//     appended transaction, so while appends-since-rebuild stay under
//     cutoff(N) − E₀ no untracked itemset can have crossed into candidacy;
//     beyond that budget the band must be re-mined;
//   - the algorithm has no candidate floor or restriction hook (MCSampling):
//     every refresh is a full re-mine, which its fixed-seed determinism
//     keeps bit-identical to a cold run.
package incmine

import (
	"context"
	"errors"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"umine/internal/algo"
	"umine/internal/algo/exact"
	"umine/internal/core"
	"umine/internal/telemetry"
)

// Config parameterizes a Ledger: one maintained (dataset, algorithm,
// thresholds) query.
type Config struct {
	// Dataset labels emitted diffs (the registry name).
	Dataset string
	// Algorithm is a registry name (algo.Names).
	Algorithm string
	// Thresholds for the algorithm's semantics.
	Thresholds core.Thresholds
	// Workers is the mining parallelism for refresh re-mines (0/1 serial,
	// negative = GOMAXPROCS).
	Workers int
}

// defaultBorderFrac widens the tracked band below the candidate cutoff: the
// band is mined at cutoff × (1 − defaultBorderFrac), and cutoff − E₀
// appended transactions fit before a border-exhaustion rebuild. A wider
// band buys longer incremental streaks for a larger tracked set.
const defaultBorderFrac = 0.1

// Snapshot identifies one immutable database state a Ledger refreshes
// against. Evictions is the dataset's lifetime window-eviction count (0 for
// unwindowed datasets): the ledger treats a snapshot as an append-only
// extension of the previous one only when the count is unchanged and N did
// not shrink.
type Snapshot struct {
	DB        *core.Database
	Version   uint64
	Evictions int64
}

// Fallback reasons carried by Refresh.Reason / Diff.Reason.
const (
	// ReasonInitial is the first build (not counted as a fallback).
	ReasonInitial = "initial"
	// ReasonSnapshot labels a full-state diff sent to a new subscriber.
	ReasonSnapshot = "snapshot"
	// ReasonUnrestricted marks an algorithm with no candidate floor or
	// restriction hook (MCSampling): every refresh fully re-mines.
	ReasonUnrestricted = "unrestricted-algorithm"
	// ReasonEviction: the sliding window evicted — the previous prefix is
	// gone and delta additivity is void.
	ReasonEviction = "window-eviction"
	// ReasonNonAppend: the snapshot shrank (not an append-only extension).
	ReasonNonAppend = "non-append"
	// ReasonBorderExhausted: appends since the last rebuild exceeded the
	// band's safety budget, so an untracked itemset could have crossed the
	// cutoff.
	ReasonBorderExhausted = "border-exhausted"
)

// ResultDelta is one itemset's state in a Diff, JSON-shaped like the
// /mine document's result entries (FreqProb = NaN serializes as null).
type ResultDelta struct {
	Itemset  []int    `json:"itemset"`
	ESup     float64  `json:"esup"`
	Var      float64  `json:"var"`
	FreqProb *float64 `json:"freq_prob"`
	// OldESup is set on Changed entries: the support before the delta.
	OldESup *float64 `json:"old_esup,omitempty"`
}

// Diff is one result-set transition, the unit streamed to /subscribe
// clients: itemsets that entered or left the result set, and itemsets whose
// measures changed bit-wise while staying frequent.
type Diff struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`
	Semantics string `json:"semantics"`
	// Seq increments once per emitted refresh of this ledger; a
	// subscriber's first (snapshot) diff carries the seq it is current to.
	Seq     uint64 `json:"seq"`
	Version uint64 `json:"version"`
	N       int    `json:"n"`
	// Total is the result-set size after this transition.
	Total    int           `json:"total"`
	Fallback bool          `json:"fallback,omitempty"`
	Reason   string        `json:"reason,omitempty"`
	Entered  []ResultDelta `json:"entered"`
	Left     [][]int       `json:"left"`
	Changed  []ResultDelta `json:"changed"`
}

// Refresh is the outcome of one Ledger.Update that observed a new snapshot.
type Refresh struct {
	// Results is the refreshed result set — bit-identical to a cold mine of
	// the snapshot. Shared with the ledger; treat as read-only.
	Results *core.ResultSet
	// Diff is the transition from the previously emitted result set.
	Diff Diff
	// Fallback reports a full rebuild (Reason says why); the initial build
	// is not counted as a fallback but carries Reason "initial".
	Fallback bool
	Reason   string
	// DeltaScanned is how many appended transactions the delta scan
	// covered (0 on fallback paths).
	DeltaScanned int
	// Tracked / Border / Allowed describe the band after the refresh:
	// tracked itemsets, the sub-cutoff border among them, and the itemsets
	// admitted to the emission re-mine.
	Tracked int
	Border  int
	Allowed int
	// Elapsed is the whole refresh (scan + check + re-mine + diff).
	Elapsed time.Duration
}

// LedgerStats is a point-in-time counter snapshot.
type LedgerStats struct {
	Seq       uint64
	Updates   uint64
	Fallbacks uint64
	Tracked   int
	Border    int
	N         int
	Version   uint64
}

// Ledger maintains one query's support state across snapshots. All methods
// are safe for concurrent use; Update calls serialize internally.
type Ledger struct {
	cfg    Config
	sem    core.Semantics
	phase1 string // tracked-band miner; "" = permanent full re-mine
	// borderFrac is defaultBorderFrac; in-package tests widen or narrow
	// the band before the first Update.
	borderFrac float64

	mu        sync.Mutex
	built     bool
	version   uint64
	lastN     int
	evictions int64
	band
	results   *core.ResultSet
	seq       uint64
	updates   uint64
	fallbacks uint64
	border    int
}

// band is the tracked state a refresh advances. A refresh works on a copy
// and the ledger takes it only once the refresh's mine has succeeded, so a
// failed or canceled Update leaves the ledger as it was.
type band struct {
	// baseN / baseFloor anchor the border budget: the band was mined at
	// absolute floor baseFloor when the database held baseN transactions.
	baseN     int
	baseFloor float64
	sets      []core.Itemset
	screens   []float64
	allowed   int
	// rows keeps the resumable miners' DP rows (nil for every other
	// algorithm). A rebuild starts it empty; each delta refresh's mine
	// extends or builds the rows of the itemsets it verifies.
	rows *exact.Rows
}

// New validates the configuration and returns an empty ledger; the first
// Update builds it.
func New(cfg Config) (*Ledger, error) {
	sem, err := algo.SemanticsOf(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	if err := cfg.Thresholds.Validate(sem); err != nil {
		return nil, err
	}
	l := &Ledger{cfg: cfg, sem: sem, borderFrac: defaultBorderFrac}
	if p1, ok := algo.PartitionPhase1(cfg.Algorithm); ok {
		l.phase1 = p1
	}
	return l, nil
}

// Algorithm returns the maintained query's algorithm name.
func (l *Ledger) Algorithm() string { return l.cfg.Algorithm }

// Thresholds returns the maintained query's thresholds.
func (l *Ledger) Thresholds() core.Thresholds { return l.cfg.Thresholds }

// Update refreshes the ledger against a snapshot. It returns nil when the
// snapshot version is the one already maintained (no work, no diff), a
// Refresh otherwise. The context bounds the re-mines; a canceled refresh
// leaves the ledger on its previous state.
func (l *Ledger) Update(ctx context.Context, snap Snapshot) (*Refresh, error) {
	if snap.DB == nil {
		return nil, errors.New("incmine: nil snapshot database")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.built && snap.Version == l.version {
		return nil, nil
	}
	start := time.Now()
	span := telemetry.SpanFromContext(ctx)
	n := snap.DB.N()

	reason := ""
	switch {
	case !l.built:
		reason = ReasonInitial
	case l.phase1 == "":
		reason = ReasonUnrestricted
	case snap.Evictions != l.evictions:
		reason = ReasonEviction
	case n < l.lastN:
		reason = ReasonNonAppend
	}

	var (
		next         band
		rs           *core.ResultSet
		deltaScanned int
	)
	if reason == "" {
		ok, cutoff, err := l.withinBudget(l.band, n)
		if err != nil {
			return nil, err
		}
		if !ok {
			reason = ReasonBorderExhausted
		} else {
			t0 := time.Now()
			next = l.band
			next.screens = make([]float64, len(l.sets))
			snap.DB.AccumulateESup(l.lastN, n, l.sets, next.screens)
			for i, s := range l.screens {
				next.screens[i] += s
			}
			deltaScanned = n - l.lastN
			span.Record("delta scan", t0, time.Now(),
				[2]string{"transactions", strconv.Itoa(deltaScanned)},
				[2]string{"tracked", strconv.Itoa(len(l.sets))})
			t1 := time.Now()
			allow := next.allowSet(cutoff)
			span.Record("border check", t1, time.Now(),
				[2]string{"allowed", strconv.Itoa(len(allow))},
				[2]string{"cutoff", strconv.FormatFloat(cutoff, 'g', 6, 64)})
			next.allowed = len(allow)
			rs, err = l.restrictedMine(ctx, snap.DB, allow, next.rows)
			if err != nil {
				return nil, err
			}
		}
	}
	if reason != "" {
		var err error
		next, rs, err = l.rebuild(ctx, snap.DB, n)
		if err != nil {
			return nil, err
		}
	}

	t2 := time.Now()
	diff := l.diffLocked(rs, snap.Version, reason)
	span.Record("diff emit", t2, time.Now(),
		[2]string{"entered", strconv.Itoa(len(diff.Entered))},
		[2]string{"left", strconv.Itoa(len(diff.Left))},
		[2]string{"changed", strconv.Itoa(len(diff.Changed))})

	// The refresh succeeded: commit the band, and the rows the delta
	// refresh's mine staged.
	if reason == "" && next.rows != nil {
		next.rows.Commit()
	}
	l.band = next
	l.built = true
	l.version = snap.Version
	l.lastN = n
	l.evictions = snap.Evictions
	l.results = rs
	l.seq++
	diff.Seq = l.seq
	l.updates++
	l.border = len(l.sets) - l.allowed
	if l.border < 0 {
		l.border = 0
	}
	fallback := reason != "" && reason != ReasonInitial
	if fallback {
		l.fallbacks++
	}
	return &Refresh{
		Results:      rs,
		Diff:         diff,
		Fallback:     fallback,
		Reason:       reason,
		DeltaScanned: deltaScanned,
		Tracked:      len(l.sets),
		Border:       l.border,
		Allowed:      l.allowed,
		Elapsed:      time.Since(start),
	}, nil
}

// cutoffAbs returns the absolute candidate cutoff at n transactions — the
// algorithm's phase-1 floor scaled to the current database size.
func (l *Ledger) cutoffAbs(n int) (float64, error) {
	thp1, err := algo.Phase1ThresholdsFor(l.cfg.Algorithm, l.cfg.Thresholds, n)
	if err != nil {
		return 0, err
	}
	return thp1.MinESupCount(n), nil
}

// withinBudget reports whether b's border budget admits a database of n
// transactions, and returns the cutoff at n. Since the rebuild every
// untracked itemset can have gained at most 1 per appended transaction,
// starting below baseFloor. While the appends fit under cutoff −
// baseFloor no untracked itemset can have reached the cutoff (which itself
// sits a relative 1e-6 under the family floor), so the band is still a
// superset of every candidate a cold mine could report.
func (l *Ledger) withinBudget(b band, n int) (bool, float64, error) {
	cutoff, err := l.cutoffAbs(n)
	if err != nil {
		return false, 0, err
	}
	return float64(n-b.baseN) <= cutoff-b.baseFloor, cutoff, nil
}

// rowHeight returns the DP row height H for a band: MinSupCount(baseN + B)
// with B the most appended transactions its border budget admits, so no
// refresh before the next rebuild reads a row above H. The DP family's
// cutoff grows by under one per appended transaction, so the admitted
// sizes are a prefix of the ones above baseN; a doubling probe brackets
// its end and a binary search finds it.
func (l *Ledger) rowHeight(b band) int {
	admits := func(d int) bool {
		ok, _, err := l.withinBudget(b, b.baseN+d)
		return err == nil && ok
	}
	hi := 1
	for admits(hi) && hi < min(1<<40, math.MaxInt/2) {
		hi *= 2
	}
	last := sort.Search(hi, func(d int) bool { return d > 0 && !admits(d) }) - 1
	return l.cfg.Thresholds.MinSupCount(b.baseN + last)
}

// allowSet collects the tracked itemsets whose screens clear the cutoff.
func (b *band) allowSet(cutoff float64) map[string]struct{} {
	allow := make(map[string]struct{}, len(b.sets))
	for i, x := range b.sets {
		if b.screens[i] >= cutoff-core.Eps {
			allow[x.Key()] = struct{}{}
		}
	}
	return allow
}

// restrictedMine emits the refreshed result set: the target miner over the
// full snapshot, restricted to the allowed band — bit-identical to a cold
// mine because the band is a superset of the true result set (see the
// package doc). With rows (the DP miners' delta refresh) the miner resumes
// the kept DP rows; the caller commits them once the mine has succeeded.
func (l *Ledger) restrictedMine(ctx context.Context, db *core.Database, allow map[string]struct{}, rows *exact.Rows) (*core.ResultSet, error) {
	restrict := func(x core.Itemset) bool {
		_, ok := allow[x.Key()]
		return ok
	}
	opts := core.Options{Workers: l.cfg.Workers}
	var (
		m   core.Miner
		err error
	)
	if rows != nil {
		m, err = algo.NewResumable(l.cfg.Algorithm, opts, restrict, rows)
	} else {
		m, err = algo.NewRestricted(l.cfg.Algorithm, opts, restrict)
	}
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rs, err := m.Mine(ctx, db, l.cfg.Thresholds)
	if err != nil {
		return nil, err
	}
	attrs := [][2]string{{"results", strconv.Itoa(rs.Len())}}
	if rows != nil {
		attrs = append(attrs, [2]string{"rows_resumed", strconv.Itoa(rows.Resumed())})
	}
	telemetry.SpanFromContext(ctx).Record("verify", t0, time.Now(), attrs...)
	return rs, nil
}

// rebuild re-mines the tracked band from scratch at the widened floor and
// emits through it (or, for unrestricted algorithms, fully re-mines). It
// returns the new band for the caller to commit.
func (l *Ledger) rebuild(ctx context.Context, db *core.Database, n int) (band, *core.ResultSet, error) {
	if l.phase1 == "" {
		m, err := algo.NewWith(l.cfg.Algorithm, core.Options{Workers: l.cfg.Workers})
		if err != nil {
			return band{}, nil, err
		}
		t0 := time.Now()
		rs, err := m.Mine(ctx, db, l.cfg.Thresholds)
		if err != nil {
			return band{}, nil, err
		}
		telemetry.SpanFromContext(ctx).Record("verify", t0, time.Now(),
			[2]string{"results", strconv.Itoa(rs.Len())})
		return band{baseN: n, allowed: rs.Len()}, rs, nil
	}
	thp1, err := algo.Phase1ThresholdsFor(l.cfg.Algorithm, l.cfg.Thresholds, n)
	if err != nil {
		return band{}, nil, err
	}
	e0 := thp1.MinESup * (1 - l.borderFrac)
	if e0 < 1e-15 {
		e0 = 1e-15
	}
	p1, err := algo.NewWith(l.phase1, core.Options{Workers: l.cfg.Workers})
	if err != nil {
		return band{}, nil, err
	}
	t0 := time.Now()
	trs, err := p1.Mine(ctx, db, core.Thresholds{MinESup: e0})
	if err != nil {
		return band{}, nil, err
	}
	telemetry.SpanFromContext(ctx).Record("border rebuild", t0, time.Now(),
		[2]string{"tracked", strconv.Itoa(trs.Len())},
		[2]string{"floor", strconv.FormatFloat(e0, 'g', 6, 64)})
	b := band{
		baseN:     n,
		baseFloor: e0 * float64(n),
		sets:      make([]core.Itemset, trs.Len()),
		screens:   make([]float64, trs.Len()),
	}
	for i, r := range trs.Results {
		b.sets[i] = r.Itemset
		b.screens[i] = r.ESup
	}
	if algo.SupportsResume(l.cfg.Algorithm) {
		b.rows = exact.NewRows(l.rowHeight(b))
	}
	allow := b.allowSet(thp1.MinESupCount(n))
	b.allowed = len(allow)
	rs, err := l.restrictedMine(ctx, db, allow, nil)
	if err != nil {
		return band{}, nil, err
	}
	return b, rs, nil
}

// diffLocked computes the transition from the previously emitted result set
// to next (both in canonical order). Caller holds l.mu; Seq is stamped by
// the caller after committing.
func (l *Ledger) diffLocked(next *core.ResultSet, version uint64, reason string) Diff {
	d := Diff{
		Dataset:   l.cfg.Dataset,
		Algorithm: l.cfg.Algorithm,
		Semantics: l.sem.String(),
		Version:   version,
		N:         next.N,
		Total:     next.Len(),
		Fallback:  reason != "" && reason != ReasonInitial,
		Reason:    reason,
		Entered:   []ResultDelta{},
		Left:      [][]int{},
		Changed:   []ResultDelta{},
	}
	var prev []core.Result
	if l.results != nil {
		prev = l.results.Results
	}
	i, j := 0, 0
	for i < len(prev) || j < len(next.Results) {
		switch {
		case i >= len(prev):
			d.Entered = append(d.Entered, toDelta(next.Results[j], nil))
			j++
		case j >= len(next.Results):
			d.Left = append(d.Left, itemsetInts(prev[i].Itemset))
			i++
		default:
			switch c := prev[i].Itemset.Compare(next.Results[j].Itemset); {
			case c < 0:
				d.Left = append(d.Left, itemsetInts(prev[i].Itemset))
				i++
			case c > 0:
				d.Entered = append(d.Entered, toDelta(next.Results[j], nil))
				j++
			default:
				if !resultBitsEqual(prev[i], next.Results[j]) {
					old := prev[i].ESup
					d.Changed = append(d.Changed, toDelta(next.Results[j], &old))
				}
				i++
				j++
			}
		}
	}
	return d
}

// SnapshotDiff returns the current full result set as an all-Entered diff
// (the first event a new subscriber receives) and whether the ledger has
// been built yet.
func (l *Ledger) SnapshotDiff() (Diff, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.built {
		return Diff{}, false
	}
	d := Diff{
		Dataset:   l.cfg.Dataset,
		Algorithm: l.cfg.Algorithm,
		Semantics: l.sem.String(),
		Seq:       l.seq,
		Version:   l.version,
		N:         l.results.N,
		Total:     l.results.Len(),
		Reason:    ReasonSnapshot,
		Entered:   make([]ResultDelta, 0, l.results.Len()),
		Left:      [][]int{},
		Changed:   []ResultDelta{},
	}
	for _, r := range l.results.Results {
		d.Entered = append(d.Entered, toDelta(r, nil))
	}
	return d, true
}

// Results returns the last emitted result set (nil before the first
// Update). Shared; treat as read-only.
func (l *Ledger) Results() *core.ResultSet {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.results
}

// Stats snapshots the ledger counters.
func (l *Ledger) Stats() LedgerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LedgerStats{
		Seq:       l.seq,
		Updates:   l.updates,
		Fallbacks: l.fallbacks,
		Tracked:   len(l.sets),
		Border:    l.border,
		N:         l.lastN,
		Version:   l.version,
	}
	return st
}

// toDelta converts one result to its diff JSON shape; NaN frequent
// probabilities become null exactly as in the /mine document.
func toDelta(r core.Result, oldESup *float64) ResultDelta {
	d := ResultDelta{
		Itemset: itemsetInts(r.Itemset),
		ESup:    r.ESup,
		Var:     r.Var,
		OldESup: oldESup,
	}
	if !math.IsNaN(r.FreqProb) {
		fp := r.FreqProb
		d.FreqProb = &fp
	}
	return d
}

// itemsetInts converts an itemset to the []int JSON shape.
func itemsetInts(x core.Itemset) []int {
	out := make([]int, len(x))
	for i, it := range x {
		out[i] = int(it)
	}
	return out
}

// resultBitsEqual compares two results for the same itemset bit-wise (NaN
// equals NaN: both serialize as null).
func resultBitsEqual(a, b core.Result) bool {
	return math.Float64bits(a.ESup) == math.Float64bits(b.ESup) &&
		math.Float64bits(a.Var) == math.Float64bits(b.Var) &&
		math.Float64bits(a.FreqProb) == math.Float64bits(b.FreqProb)
}

// Package uhmine implements UH-Mine [Aggarwal, Li, Wang, Wang 2009], the
// depth-first hyper-structure miner (paper §3.1.3), as a reusable engine:
// the expected-support UH-Mine and the paper's new NDUH-Mine algorithm
// differ only in the per-itemset frequentness test and item floor they plug
// into the engine, which the registry (umine/internal/algo) holds as each
// algorithm's rule.
//
// The UH-Struct stores each transaction once, projected to frequent items
// and reordered by descending item expected support. Mining recursively
// builds head tables: for a prefix P, the occurrence list holds, per
// transaction containing P, the position after P's last item and the
// accumulated containment probability Pr(P ⊆ t). Extending P by item j
// scans the occurrences once — the uncertain analogue of H-Mine's hyperlink
// adjustment — so no conditional databases are materialized and memory
// stays bounded by the UH-Struct plus one occurrence list per recursion
// level (the behaviour behind the paper's Figure 4 memory curves).
package uhmine

import (
	"context"
	"sort"
	"sync"
	"unsafe"

	"umine/internal/core"
	"umine/internal/parallel"
)

// Decide is the per-itemset frequentness test: given the (canonical)
// itemset with its expected support and support variance, it returns the
// result to report and whether the itemset is frequent. Depth-first search
// only extends frequent prefixes (anti-monotonicity).
type Decide func(items core.Itemset, esup, varsup float64) (core.Result, bool)

// runit is one unit of a UH-Struct row: the item's frequency rank and its
// existential probability. Rows are sorted by rank ascending (most frequent
// first).
type runit struct {
	rank int32
	prob float64
}

// occ is one entry of a head table: transaction row, scan start position,
// and accumulated prefix containment probability.
type occ struct {
	row int32
	pos int32
	acc float64
}

// Engine holds the knobs shared by UH-Mine and NDUH-Mine.
type Engine struct {
	// ItemFloor, when positive, removes items whose expected support is
	// below this absolute count before the UH-Struct is built, exactly like
	// the head-table construction of §3.1.3. Expected-support semantics set
	// it to N·min_esup; probabilistic semantics may use a safe lower bound
	// (or leave 0 and let Decide filter).
	ItemFloor float64
	// Decide is the frequentness test. Required. With Workers > 1 it is
	// called concurrently from the first-level fan-out, so it must be safe
	// for concurrent use (the threshold tests of UH-Mine and NDUH-Mine are
	// pure functions of their arguments).
	Decide Decide
	// Workers bounds the goroutines used for the first-level prefix
	// fan-out: every frequent singleton roots an independent depth-first
	// subtree, so subtrees mine concurrently into per-prefix accumulators
	// that merge in frequency-rank (canonical head-table) order. 0 or 1 =
	// serial, the paper's platform; negative = GOMAXPROCS. Results are
	// identical for every worker count: each subtree's computation is
	// untouched, only who executes it changes.
	Workers int
	// Restrict, when non-nil, confines the search to a pre-computed
	// candidate superset: items and prefix extensions for which it returns
	// false are neither reported nor descended into (nor kept in the
	// UH-Struct, for singletons) — exactly as if Decide had rejected them.
	// Everything allowed is aggregated with the engine's ordinary head-table
	// arithmetic, so when the allowed set is a superset of the unrestricted
	// run's accepted itemsets the restricted run is bit-identical. This is
	// the SON partition engine's phase-2 hook (umine/internal/partition).
	// Called concurrently from the fan-out when Workers > 1; it may receive
	// transient itemsets it must not retain.
	Restrict func(core.Itemset) bool
	// Name labels ProgressEvents with the mounting miner's registry name
	// (UH-Mine and NDUH-Mine share the engine).
	Name string
	// Progress, when non-nil, receives a PhaseLevel event after the
	// singleton pass, one cumulative PhaseSubtree event per completed
	// first-level prefix subtree (possibly from concurrent worker
	// goroutines — see the core.ProgressFunc contract) and a final
	// PhaseDone event.
	Progress core.ProgressFunc
}

// Run runs the engine and returns results in canonical order plus work
// counters. Cancellation lands between candidate extensions inside every
// prefix subtree (and stops the fan-out from dispatching further subtrees),
// so a canceled mine returns ctx.Err() within one extension's head-table
// scan of work; a completed mine is identical to an uncancellable run.
func (e *Engine) Run(ctx context.Context, db *core.Database) ([]core.Result, core.MiningStats, error) {
	var stats core.MiningStats
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}

	// Pass 1: per-item aggregates (one scan — expectation and variance
	// together, the paper's bridge property).
	esup, varsup := db.ItemESupVar()
	stats.DBScans++

	// Head table: frequent items by Decide (after the optional floor),
	// ordered by descending expected support.
	order, rank := core.FrequencyOrder(esup, e.ItemFloor)
	var kept []core.Item
	var results []core.Result
	for _, it := range order {
		if e.Restrict != nil && !e.Restrict(core.Itemset{it}) {
			continue
		}
		stats.CandidatesGenerated++
		res, ok := e.Decide(core.Itemset{it}, esup[it], varsup[it])
		if ok {
			results = append(results, res)
			kept = append(kept, it)
		}
	}
	e.Progress.Emit(e.Name, core.PhaseLevel, 1, stats)
	if len(kept) == 0 {
		core.SortResults(results)
		e.Progress.Emit(e.Name, core.PhaseDone, 1, stats)
		return results, stats, nil
	}
	// Re-rank over kept items only, preserving frequency order.
	keptRank := make([]int, db.NumItems)
	for i := range keptRank {
		keptRank[i] = -1
	}
	items := make([]core.Item, len(kept))
	for pos, it := range kept {
		keptRank[it] = pos
		items[pos] = it
	}
	_ = rank

	// Pass 2: build the UH-Struct rows.
	stats.DBScans++
	rows := make([][]runit, 0, db.N())
	var structBytes int64
	for j, n := 0, db.N(); j < n; j++ {
		tx := db.Tx(j)
		var row []runit
		for i, it := range tx.Items {
			if r := keptRank[it]; r >= 0 {
				row = append(row, runit{rank: int32(r), prob: tx.Probs[i]})
			}
		}
		if len(row) == 0 {
			continue
		}
		sort.Slice(row, func(i, j int) bool { return row[i].rank < row[j].rank })
		rows = append(rows, row)
		structBytes += int64(len(row)) * int64(unsafe.Sizeof(runit{}))
	}
	stats.TrackPeak(structBytes)

	// Top-level head table: one occurrence per row.
	top := make([]occ, len(rows))
	for i := range rows {
		top[i] = occ{row: int32(i), pos: 0, acc: 1}
	}

	topBytes := int64(len(top)) * int64(unsafe.Sizeof(occ{}))
	stats.TrackPeak(structBytes + topBytes)

	// Singletons were already decided and reported above; descend directly
	// into each frequent item's head table. Every frequent singleton roots
	// an independent depth-first subtree on the shared work-stealing
	// fan-out, and inside a subtree the recursion forks large extension
	// subtrees back onto the pool (the fork cutoff is a pure function of
	// the occurrence-list size, never of worker availability), so results
	// and stats are identical for every worker count. Peak memory stays
	// accounted on the serial platform's DFS-path model (a forked child
	// inherits the live bytes the inline recursion would have at that
	// point), keeping the Figure 4-style memory reports comparable across
	// worker counts.
	scratchPool := &sync.Pool{New: func() any {
		return &scratch{esup: make([]float64, len(items)), varsup: make([]float64, len(items))}
	}}
	done := ctx.Done()
	return parallel.MineSubtrees(ctx, e.Workers, e.Name, e.Progress, results, stats, len(items),
		func(r int, acc *parallel.Subtree) bool {
			sc := scratchPool.Get().(*scratch)
			defer scratchPool.Put(sc)
			m := &mineState{
				engine:  e,
				rows:    rows,
				items:   items,
				esupBuf: sc.esup,
				varBuf:  sc.varsup,
				acc:     acc,
				liveOcc: topBytes,
				done:    done,
				pool:    scratchPool,
			}
			sub := collectOcc(rows, top, int32(r))
			m.liveOcc += int64(len(sub)) * int64(unsafe.Sizeof(occ{}))
			acc.Stats.TrackPeak(structBytes + m.liveOcc)
			m.mine([]core.Item{items[r]}, sub, structBytes)
			return m.canceled
		})
}

// stealForkMinOcc is the fork cutoff of the prefix recursion: an extension
// whose occurrence list reaches this many entries is handed to the
// work-stealing pool instead of recursed inline. The cutoff reads only the
// input-determined occurrence list — never queue depth or worker count — so
// the fork tree, and with it every accumulator merge, is the same in every
// run (determinism contract of parallel.RunStealing).
const stealForkMinOcc = 256

// scratch is one worker's reusable head-table buffer pair. Buffers are
// pooled, not allocated per subtree: mine zeroes every touched entry before
// returning (the touchedRanks contract), so a reused pair is
// indistinguishable from a fresh one and the steady-state allocation count
// stays O(concurrent tasks).
type scratch struct{ esup, varsup []float64 }

type mineState struct {
	engine  *Engine
	rows    [][]runit
	items   []core.Item // rank → item
	esupBuf []float64
	varBuf  []float64
	liveOcc int64
	// acc is this task's accumulator (results, counters, forks); pool is
	// the scratch-buffer source for forked children.
	acc  *parallel.Subtree
	pool *sync.Pool
	// done is the run context's cancellation channel (nil when the context
	// cannot be canceled); canceled records that the recursion
	// short-circuited, invalidating this subtree's partial results.
	done     <-chan struct{}
	canceled bool
}

// extAgg is one extension's aggregates, moved out of the scratch buffers
// before recursion.
type extAgg struct {
	rank   int32
	esup   float64
	varsup float64
}

// mine recursively extends the prefix (given as ranks via prefixRanks'
// semantics embedded in occs) by every frequent item of larger rank.
// prefix holds the prefix itemset as original items (unsorted by item id;
// canonicalized on report).
func (m *mineState) mine(prefix []core.Item, occs []occ, baseBytes int64) {
	if len(occs) == 0 {
		return
	}
	// Head-table pass: aggregate every extension's expected support and
	// variance in one scan of the occurrence list. The aggregates are moved
	// out of the shared scratch buffers (and the buffers zeroed) before any
	// recursion, which reuses the same buffers.
	touched := touchedRanks(m.rows, occs, m.esupBuf, m.varBuf)
	exts := make([]extAgg, len(touched))
	for i, r := range touched {
		exts[i] = extAgg{rank: r, esup: m.esupBuf[r], varsup: m.varBuf[r]}
		m.esupBuf[r], m.varBuf[r] = 0, 0
	}

	for _, ea := range exts {
		// The per-extension context check bounds cancellation latency to
		// one head-table scan anywhere in the prefix recursion.
		if m.done != nil {
			select {
			case <-m.done:
				m.canceled = true
				return
			default:
			}
		}
		r, e, v := ea.rank, ea.esup, ea.varsup

		ext := append(prefix, m.items[r]) //nolint:gocritic // copied by NewItemset below
		itemset := core.NewItemset(ext...)
		if m.engine.Restrict != nil && !m.engine.Restrict(itemset) {
			continue
		}
		m.acc.Stats.CandidatesGenerated++
		res, ok := m.engine.Decide(itemset, e, v)
		if !ok {
			continue
		}
		m.acc.Results = append(m.acc.Results, res)

		// Build the extension's occurrence list (second scan restricted to
		// this rank), then recurse and release — or, for subtrees big enough
		// to be worth scheduling, fork onto the work-stealing pool.
		sub := collectOcc(m.rows, occs, r)
		subBytes := int64(len(sub)) * int64(unsafe.Sizeof(occ{}))
		if len(sub) >= stealForkMinOcc {
			m.forkSubtree(ext, sub, subBytes, baseBytes)
			continue
		}
		m.liveOcc += subBytes
		m.acc.Stats.TrackPeak(baseBytes + m.liveOcc)
		m.mine(ext, sub, baseBytes)
		m.liveOcc -= subBytes
	}
}

// forkSubtree hands an extension's subtree to the scheduler with its own
// accumulator and scratch pair. The child starts from the live-byte level
// the inline recursion would have at this point (parent's path plus the new
// occurrence list) and the parent tracks the fork-point peak itself, so the
// DFS-path memory model — and with it MiningStats after the max-merge — is
// bit-identical to inline recursion. ext's backing array is reused by the
// caller's extension loop, so the prefix is copied before the task escapes.
func (m *mineState) forkSubtree(ext []core.Item, sub []occ, subBytes, baseBytes int64) {
	prefix := append([]core.Item(nil), ext...)
	child := *m
	child.liveOcc += subBytes
	m.acc.Stats.TrackPeak(baseBytes + child.liveOcc)
	m.acc.Fork(func(acc *parallel.Subtree) bool {
		sc := child.pool.Get().(*scratch)
		defer child.pool.Put(sc)
		child.esupBuf, child.varBuf, child.acc = sc.esup, sc.varsup, acc
		child.mine(prefix, sub, baseBytes)
		return child.canceled
	})
}

// touchedRanks accumulates per-extension aggregates into the buffers and
// returns the sorted list of ranks that occur. Buffers must be zero on
// entry; the caller resets the touched entries afterwards.
func touchedRanks(rows [][]runit, occs []occ, esupBuf, varBuf []float64) []int32 {
	var touched []int32
	for _, o := range occs {
		row := rows[o.row]
		for i := int(o.pos); i < len(row); i++ {
			u := row[i]
			if esupBuf[u.rank] == 0 && varBuf[u.rank] == 0 {
				touched = append(touched, u.rank)
			}
			p := float64(o.acc * u.prob)
			esupBuf[u.rank] += p
			varBuf[u.rank] += float64(p * (1 - p))
		}
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	return touched
}

// collectOcc builds the occurrence list of prefix ∪ {rank r}: for every
// parent occurrence whose row contains r at or after pos, the position after
// r with the multiplied accumulator.
func collectOcc(rows [][]runit, occs []occ, r int32) []occ {
	var out []occ
	for _, o := range occs {
		row := rows[o.row]
		// Binary search for rank r in row[pos:] (rows sorted by rank).
		lo, hi := int(o.pos), len(row)
		for lo < hi {
			mid := (lo + hi) / 2
			if row[mid].rank < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(row) && row[lo].rank == r {
			out = append(out, occ{row: o.row, pos: int32(lo + 1), acc: o.acc * row[lo].prob})
		}
	}
	return out
}

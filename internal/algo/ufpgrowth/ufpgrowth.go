// Package ufpgrowth implements UFP-growth [Leung, Mateo, Brajczuk 2008],
// the tree-based divide-and-conquer miner for expected support-based
// frequent itemsets (paper §3.1.2).
//
// The UFP-tree generalizes the FP-tree to uncertain data, with the crucial
// restriction the paper dwells on: two occurrences share a node only when
// both the item AND its existential probability are equal. Continuous
// probabilities therefore produce almost no sharing — the tree degenerates
// toward a trie of distinct paths, and mining must recursively materialize
// conditional subtrees with little compression. This is precisely why the
// paper finds UFP-growth slowest and most memory-hungry among the three
// expected-support algorithms, and this implementation preserves that
// honest cost structure (it builds real conditional UFP-trees rather than
// shortcutting to pattern-base lists).
package ufpgrowth

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"unsafe"

	"umine/internal/core"
	"umine/internal/parallel"
)

// Miner is the UFP-growth algorithm. The zero value is ready to use.
//
// Setting Rounding > 0 turns the miner into the UCFP-tree variant the
// paper's §4.1 mentions (and declines to benchmark, reporting "no obvious
// optimization"): probabilities are clustered by rounding to the given
// number of decimal digits before tree construction, so occurrences whose
// probabilities fall in the same cluster share a node. Sharing rises and
// memory falls, at the price of approximate expected supports (error per
// occurrence ≤ 0.5·10⁻ᵏ). BenchmarkAblationUCFP quantifies the trade-off —
// reproducing the paper's claim that the compression does not change the
// algorithm's standing.
type Miner struct {
	// Rounding is the number of decimal digits probabilities are rounded
	// to before insertion; 0 (the default) keeps exact probabilities — the
	// plain UFP-tree.
	Rounding int
	// Workers bounds the goroutines of the conditional-tree walk: every
	// non-empty top-level header item roots an independent walk scheduled
	// as one work-stealing task, and large conditional subtrees fork back
	// onto the pool mid-recursion (0 or 1 = serial, the paper's platform;
	// negative = GOMAXPROCS). Results are identical for every worker
	// count: the global tree is read-only during the walk, every
	// conditional tree is built and owned by exactly one task, and the
	// fork cutoff reads only the conditional tree's size.
	Workers int
	// Progress observes the run per top-level conditional subtree (may be
	// nil).
	Progress core.ProgressFunc
	// Restrict, when non-nil, confines the conditional-tree walk to a
	// pre-computed candidate superset: extensions for which it returns
	// false are neither reported nor descended into, so the recursion
	// materializes conditional trees only under allowed prefixes. The
	// global UFP-tree and every header-chain aggregation are built exactly
	// as an unrestricted run builds them, so when the allowed set is a
	// superset of the unrestricted result the restricted run is
	// bit-identical (the SON partition engine's phase-2 hook,
	// umine/internal/partition). May receive transient itemsets it must
	// not retain.
	Restrict func(core.Itemset) bool
}

// SetWorkers implements core.ParallelMiner.
func (m *Miner) SetWorkers(workers int) { m.Workers = workers }

// SetProgress implements core.ObservableMiner.
func (m *Miner) SetProgress(fn core.ProgressFunc) { m.Progress = fn }

// SetRestrict implements core.RestrictableMiner.
func (m *Miner) SetRestrict(allow func(core.Itemset) bool) { m.Restrict = allow }

// Name implements core.Miner.
func (m *Miner) Name() string {
	if m.Rounding > 0 {
		return fmt.Sprintf("UCFP-tree(%d)", m.Rounding)
	}
	return "UFP-growth"
}

// Semantics implements core.Miner.
func (m *Miner) Semantics() core.Semantics { return core.ExpectedSupport }

// node is one UFP-tree node: an (item-rank, probability) pair with the
// number of transactions flowing through it. In conditional trees the count
// becomes fractional (weight = count × accumulated probability), and a
// parallel weightSq accumulator carries Σ count·p² so support variances are
// available at no extra asymptotic cost.
type node struct {
	rank     int32
	prob     float64
	weight   float64 // Σ over represented transactions of Π probs of the prefix below the conditioning point
	weightSq float64 // Σ of the squared products (for Var = Σp − Σp²)
	parent   *node
	children map[childKey]*node
	next     *node // header chain
}

type childKey struct {
	rank     int32
	probBits uint64
}

// tree is a UFP-tree with its header table.
type tree struct {
	root    *node
	headers []*node // per rank: chain of nodes via next
	nodes   int64   // node count, for memory tracking
}

func newTree(numRanks int) *tree {
	return &tree{
		root:    &node{rank: -1, children: map[childKey]*node{}},
		headers: make([]*node, numRanks),
	}
}

// wunit is one unit of a weighted (conditional) transaction.
type wunit struct {
	rank int32
	prob float64
}

// insert adds a weighted transaction (units in rank order) to the tree.
func (t *tree) insert(units []wunit, weight, weightSq float64) {
	n := t.root
	for _, u := range units {
		key := childKey{rank: u.rank, probBits: math.Float64bits(u.prob)}
		child := n.children[key]
		if child == nil {
			child = &node{
				rank:     u.rank,
				prob:     u.prob,
				parent:   n,
				children: map[childKey]*node{},
				next:     t.headers[u.rank],
			}
			t.headers[u.rank] = child
			n.children[key] = child
			t.nodes++
		}
		child.weight += weight
		child.weightSq += weightSq
		n = child
	}
}

// bytes estimates the tree's heap footprint.
func (t *tree) bytes() int64 {
	const perNode = int64(unsafe.Sizeof(node{})) + 48 // node + map overhead estimate
	return t.nodes * perNode
}

// Mine implements core.Miner. Cancellation lands between header items of
// the conditional-tree walk — before each extension's chain aggregation and
// conditional-tree construction — at every recursion depth.
func (m *Miner) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	if err := th.Validate(core.ExpectedSupport); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrUnsupportedThresholds, err)
	}
	var stats core.MiningStats
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	minCount := th.MinESupCount(db.N())

	// Pass 1: frequent items, ordered by descending expected support
	// (§3.1.2's header list).
	esup, _ := db.ItemESupVar()
	stats.DBScans++
	order, rank := core.FrequencyOrder(esup, minCount)
	if len(order) == 0 {
		// Still a completed run: the observer contract promises a final
		// PhaseDone event even when nothing is frequent.
		m.Progress.Emit(m.Name(), core.PhaseDone, 0, stats)
		return m.resultSet(th, db.N(), nil, stats), nil
	}

	// Pass 2: build the global UFP-tree from projected transactions.
	stats.DBScans++
	t := newTree(len(order))
	round := func(p float64) float64 { return p }
	if m.Rounding > 0 {
		scale := math.Pow(10, float64(m.Rounding))
		round = func(p float64) float64 {
			r := math.Round(p*scale) / scale
			if r <= 0 {
				r = 1 / scale // keep clustered occurrences alive
			}
			if r > 1 {
				r = 1
			}
			return r
		}
	}
	var buf []wunit
	for j, n := 0, db.N(); j < n; j++ {
		tx := db.Tx(j)
		buf = buf[:0]
		for i, it := range tx.Items {
			if r := rank[it]; r >= 0 {
				buf = append(buf, wunit{rank: int32(r), prob: round(tx.Probs[i])})
			}
		}
		if len(buf) == 0 {
			continue
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i].rank < buf[j].rank })
		t.insert(buf, 1, 1)
	}
	liveBytes := t.bytes()
	stats.TrackPeak(liveBytes)

	// Top-level fan-out: every non-empty header item roots an independent
	// conditional-tree walk (the global tree is read-only from here on),
	// scheduled in the serial walk's bottom-up order as one work-stealing
	// task each; inside a walk, large conditional subtrees fork back onto
	// the pool. Each task mines into its own accumulator node; nodes merge
	// in fork order and roots in walk order below, so the result list —
	// and, after the canonical sort, the ResultSet — is identical for
	// every worker count and steal interleaving.
	statsBase := stats
	done := ctx.Done()
	name := m.Name()
	var rootRanks []int32
	for r := len(t.headers) - 1; r >= 0; r-- {
		if t.headers[r] != nil {
			rootRanks = append(rootRanks, int32(r))
		}
	}
	aggs := make([]*rootAgg, len(rootRanks))
	tasks := make([]parallel.Task, len(rootRanks))
	for i, r := range rootRanks {
		r := r
		ra := &rootAgg{name: name, progress: m.Progress, base: statsBase}
		ra.pending.Store(1)
		aggs[i] = ra
		tasks[i] = func(f *parallel.Forker) {
			st := &mineState{
				items:    order,
				minCount: minCount,
				stats:    &ra.node.stats,
				done:     done,
				name:     name,
				progress: m.Progress,
				restrict: m.Restrict,
				forker:   f,
				node:     &ra.node,
				root:     ra,
			}
			st.mineOne(t, nil, r, liveBytes)
			ra.node.results = st.results
			ra.finish(st.canceled)
		}
	}
	ss, err := parallel.RunStealing(ctx, m.Workers, tasks)
	if err != nil {
		return nil, err
	}
	var results []core.Result
	for _, ra := range aggs {
		results = append(results, ra.results...)
		stats.Add(ra.stats)
	}
	core.SortResults(results)
	m.Progress.EmitExec(name, core.ExecStats{
		TasksSpawned: ss.Spawned,
		TasksStolen:  ss.Stolen,
		ForksInline:  ss.Inline,
	})
	m.Progress.Emit(name, core.PhaseDone, core.MaxItemsetLen(results), stats)
	return m.resultSet(th, db.N(), results, stats), nil
}

// stealForkMinNodes is the fork cutoff of the conditional-tree walk: an
// extension whose conditional tree reaches this many nodes is handed to the
// work-stealing pool instead of recursed inline. A pure function of the
// input-determined tree, never of worker availability (determinism contract
// of parallel.RunStealing).
const stealForkMinNodes = 256

// mineNode is one task's private accumulator: the results and counters of
// the walk it ran inline, plus the nodes of the subtrees it forked away, in
// fork (DFS) order. No locks — exactly one task writes a node, and the
// scheduler's completion edges order those writes before the flatten.
type mineNode struct {
	results  []core.Result
	stats    core.MiningStats
	children []*mineNode
}

// flatten folds the node tree depth-first in fork order, reproducing the
// serial walk's aggregate (result order is canonicalized by
// core.SortResults afterwards; counters are sums and peaks maxima, so the
// fold order cannot move a bit).
func (n *mineNode) flatten(results []core.Result, stats *core.MiningStats) []core.Result {
	results = append(results, n.results...)
	stats.Add(n.stats)
	for _, c := range n.children {
		results = c.flatten(results, stats)
	}
	return results
}

// rootAgg aggregates one top-level header item's walk across the tasks it
// was split into. pending counts the root task plus its live forked
// descendants; the task that brings it to zero owns the completed node tree
// (the decrement publishes every task's writes), flattens it, and emits the
// walk's PhaseSubtree event.
type rootAgg struct {
	name     string
	progress core.ProgressFunc
	base     core.MiningStats // pre-fan-out totals for progress snapshots
	node     mineNode
	pending  atomic.Int64
	canceled atomic.Bool
	results  []core.Result
	stats    core.MiningStats
}

// finish retires one task of this root's walk.
func (ra *rootAgg) finish(canceled bool) {
	if canceled {
		ra.canceled.Store(true)
	}
	if ra.pending.Add(-1) != 0 {
		return
	}
	ra.results = ra.node.flatten(nil, &ra.stats)
	if ra.canceled.Load() {
		// A canceled walk's partials are discarded by the caller; emitting a
		// snapshot for it would report work that never merges.
		return
	}
	snap := ra.base
	snap.Add(ra.stats)
	ra.progress.Emit(ra.name, core.PhaseSubtree, 1, snap)
}

func (m *Miner) resultSet(th core.Thresholds, n int, results []core.Result, stats core.MiningStats) *core.ResultSet {
	return &core.ResultSet{
		Algorithm:  m.Name(),
		Semantics:  core.ExpectedSupport,
		Thresholds: th,
		N:          n,
		Results:    results,
		Stats:      stats,
	}
}

type mineState struct {
	items    []core.Item // rank → item
	minCount float64
	results  []core.Result
	stats    *core.MiningStats
	name     string
	progress core.ProgressFunc
	restrict func(core.Itemset) bool
	// forker schedules forked conditional subtrees (inline when the run is
	// serial). node is this task's accumulator, root the top-level walk it
	// belongs to.
	forker *parallel.Forker
	node   *mineNode
	root   *rootAgg
	// done is the run context's cancellation channel (nil when the context
	// cannot be canceled); canceled invalidates the partial results.
	done     <-chan struct{}
	canceled bool
}

// mine recursively extracts frequent extensions of prefix from tr
// (bottom-up over the header table) and builds each extension's conditional
// UFP-tree.
func (st *mineState) mine(tr *tree, prefix []core.Item, liveBytes int64) {
	for r := len(tr.headers) - 1; r >= 0; r-- {
		st.mineOne(tr, prefix, int32(r), liveBytes)
		if st.canceled {
			return
		}
	}
}

// mineOne processes one header item of tr: chain aggregation, the
// frequentness test, and — when frequent — the conditional tree, recursed
// inline or forked onto the work-stealing pool.
func (st *mineState) mineOne(tr *tree, prefix []core.Item, r int32, liveBytes int64) {
	// Per-header-item context check: bounds cancellation latency to one
	// chain aggregation + conditional-tree construction at any depth.
	if st.done != nil {
		select {
		case <-st.done:
			st.canceled = true
			return
		default:
		}
	}
	head := tr.headers[r]
	if head == nil {
		return
	}
	// Disallowed extensions skip before the header-chain walk: under a
	// restriction that aggregation is the cost being saved, and (like
	// the other families) a disallowed extension counts as never
	// generated. The unrestricted path builds the itemset only for
	// frequent extensions, as the serial platform always did.
	var ext []core.Item
	var itemset core.Itemset
	if st.restrict != nil {
		ext = append(prefix, st.items[r])
		itemset = core.NewItemset(ext...)
		if !st.restrict(itemset) {
			return
		}
	}
	// Aggregate the extension's expected support and Σp² over the
	// header chain: each chain node contributes weight·prob and
	// weightSq·prob².
	var esum, esq float64
	for n := head; n != nil; n = n.next {
		esum += n.weight * n.prob
		esq += n.weightSq * n.prob * n.prob
	}
	st.stats.CandidatesGenerated++
	if esum < st.minCount-core.Eps {
		return
	}
	if itemset == nil {
		ext = append(prefix, st.items[r])
		itemset = core.NewItemset(ext...)
	}
	st.results = append(st.results, core.Result{
		Itemset: itemset,
		ESup:    esum,
		Var:     esum - esq, // Σp(1−p) = Σp − Σp²
	})

	// Conditional UFP-tree: for every node in the chain, the path above
	// it becomes a weighted transaction with weight multiplied by this
	// node's probability.
	cond := newTree(int(r))
	var path []wunit
	for n := head; n != nil; n = n.next {
		path = path[:0]
		for p := n.parent; p.rank >= 0; p = p.parent {
			path = append(path, wunit{rank: p.rank, prob: p.prob})
		}
		if len(path) == 0 {
			continue
		}
		// Path was collected bottom-up; reverse into rank order.
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		cond.insert(path, n.weight*n.prob, n.weightSq*n.prob*n.prob)
	}
	condBytes := cond.bytes()
	if cond.nodes >= stealForkMinNodes {
		st.forkSubtree(ext, cond, condBytes, liveBytes)
		return
	}
	st.stats.TrackPeak(liveBytes + condBytes)
	if cond.nodes > 0 {
		st.mine(cond, ext, liveBytes+condBytes)
	}
}

// forkSubtree hands an extension's conditional-tree walk to the scheduler
// with its own accumulator node. The child starts from the live-byte level
// the inline recursion would have (parent's path plus the conditional tree)
// and the parent tracks the fork-point peak itself, so the DFS-path memory
// model — and with it MiningStats after the max-merge — is bit-identical to
// inline recursion. ext's backing array is reused by the caller's walk, so
// the prefix is copied before the task escapes; cond is freshly built and
// owned by the forked task.
func (st *mineState) forkSubtree(ext []core.Item, cond *tree, condBytes, liveBytes int64) {
	prefix := make([]core.Item, len(ext))
	copy(prefix, ext)
	child := &mineNode{}
	st.node.children = append(st.node.children, child)
	st.root.pending.Add(1)
	st.stats.TrackPeak(liveBytes + condBytes)
	items, minCount, name, progress, restrict := st.items, st.minCount, st.name, st.progress, st.restrict
	root, done := st.root, st.done
	st.forker.Fork(func(f *parallel.Forker) {
		cm := &mineState{
			items:    items,
			minCount: minCount,
			stats:    &child.stats,
			name:     name,
			progress: progress,
			restrict: restrict,
			forker:   f,
			node:     child,
			root:     root,
			done:     done,
		}
		cm.mine(cond, prefix, liveBytes+condBytes)
		child.results = cm.results
		root.finish(cm.canceled)
	})
}

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
	// conditional-tree walk (the global tree is read-only from here on) on
	// the shared work-stealing fan-out, in the serial walk's bottom-up
	// order; inside a walk, large conditional subtrees fork back onto the
	// pool. The fork cutoff reads only the conditional tree's size, so
	// results and stats are identical for every worker count.
	var rootRanks []int32
	for r := len(t.headers) - 1; r >= 0; r-- {
		if t.headers[r] != nil {
			rootRanks = append(rootRanks, int32(r))
		}
	}
	done := ctx.Done()
	results, stats, err := parallel.MineSubtrees(ctx, m.Workers, m.Name(), m.Progress, nil, stats, len(rootRanks),
		func(i int, acc *parallel.Subtree) bool {
			st := &mineState{items: order, minCount: minCount, restrict: m.Restrict, acc: acc, done: done}
			st.mineOne(t, nil, rootRanks[i], liveBytes)
			return st.canceled
		})
	if err != nil {
		return nil, err
	}
	return m.resultSet(th, db.N(), results, stats), nil
}

// stealForkMinNodes is the fork cutoff of the conditional-tree walk: an
// extension whose conditional tree reaches this many nodes is handed to the
// work-stealing pool instead of recursed inline. A pure function of the
// input-determined tree, never of worker availability (determinism contract
// of parallel.RunStealing).
const stealForkMinNodes = 256

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
	restrict func(core.Itemset) bool
	// acc is this task's accumulator (results, counters, forks).
	acc *parallel.Subtree
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
		esum += float64(n.weight * n.prob)
		esq += float64(n.weightSq * n.prob * n.prob)
	}
	st.acc.Stats.CandidatesGenerated++
	if esum < st.minCount-core.Eps {
		return
	}
	if itemset == nil {
		ext = append(prefix, st.items[r])
		itemset = core.NewItemset(ext...)
	}
	st.acc.Results = append(st.acc.Results, core.Result{
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
	st.acc.Stats.TrackPeak(liveBytes + condBytes)
	if cond.nodes > 0 {
		st.mine(cond, ext, liveBytes+condBytes)
	}
}

// forkSubtree hands an extension's conditional-tree walk to the scheduler
// with its own accumulator. The child starts from the live-byte level the
// inline recursion would have (parent's path plus the conditional tree) and
// the parent tracks the fork-point peak itself, so the DFS-path memory
// model — and with it MiningStats after the max-merge — is bit-identical to
// inline recursion. ext's backing array is reused by the caller's walk, so
// the prefix is copied before the task escapes; cond is freshly built and
// owned by the forked task.
func (st *mineState) forkSubtree(ext []core.Item, cond *tree, condBytes, liveBytes int64) {
	prefix := append([]core.Item(nil), ext...)
	st.acc.Stats.TrackPeak(liveBytes + condBytes)
	child := *st
	st.acc.Fork(func(acc *parallel.Subtree) bool {
		child.acc = acc
		child.mine(cond, prefix, liveBytes+condBytes)
		return child.canceled
	})
}

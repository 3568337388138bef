package server

import (
	"fmt"
	"strconv"
	"sync"

	"umine/internal/algo"
	"umine/internal/core"
)

// The monotonicity-aware result cache.
//
// Both of the paper's frequentness definitions are anti-monotone in their
// threshold: raising min_esup (expected-support semantics) or raising pft at
// a fixed min_sup (probabilistic semantics) can only shrink the result set,
// and — because every miner computes an itemset's measures (esup, var,
// frequent probability) by a deterministic, threshold-independent
// decomposition — the surviving results carry bit-identical values. A
// higher-threshold query is therefore answered by *filtering* a cached
// lower-threshold ResultSet with exactly the comparison the miners use
// (esup ≥ N·min_esup − Eps, respectively fp > pft + Eps), instead of
// re-mining.
//
// Not every algorithm supports the probabilistic filter: PDUApriori reports
// no per-itemset probability (FreqProb = NaN, the §3.3.1 limitation) and
// MCSampling's estimates consume a pft-dependent sampling budget from a
// shared rng stream, so their cached results are reused only on exact
// threshold matches. min_sup is never filtered: changing it changes the
// support count every frequent probability is evaluated at.

// cacheQuery identifies one mining query against one dataset version.
type cacheQuery struct {
	dataset   string
	version   uint64
	algorithm string
	semantics core.Semantics
	th        core.Thresholds
	n         int // dataset transaction count, for MinESupCount
}

// groupKey identifies the (dataset, version, algorithm) bucket whose entries
// differ only by thresholds.
func (q cacheQuery) groupKey() string {
	return q.dataset + "\x00" + strconv.FormatUint(q.version, 10) + "\x00" + q.algorithm
}

// key identifies the query exactly, with only the threshold fields the
// semantics reads (so e.g. a stray PFT on an expected-support query still
// coalesces and hits).
func (q cacheQuery) key() string {
	return q.groupKey() + "\x00" + thresholdKey(q.semantics, q.th)
}

// thresholdKey renders the semantics-relevant threshold fields.
func thresholdKey(sem core.Semantics, th core.Thresholds) string {
	switch sem {
	case core.ExpectedSupport:
		return fmt.Sprintf("e%x", th.MinESup)
	default:
		return fmt.Sprintf("s%x|p%x", th.MinSup, th.PFT)
	}
}

// Cache-entry provenance labels: who computed the stored result set. A
// filtered entry inherits its superset's source, so /explain can report that
// a hit was ultimately served from an incremental-ledger refresh.
const (
	cacheSourceMine   = "mine"
	cacheSourceLedger = "ledger"
)

// cacheEntry is one cached result set at the thresholds it was mined at.
type cacheEntry struct {
	dataset  string
	th       core.Thresholds
	rs       *core.ResultSet
	source   string
	lastUsed uint64
}

// resultCache maps (dataset, version, algorithm) groups to their cached
// result sets. All methods are safe for concurrent use.
type resultCache struct {
	mu     sync.Mutex
	max    int
	clock  uint64
	groups map[string][]*cacheEntry
	count  int
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, groups: map[string][]*cacheEntry{}}
}

// lookup serves q from the cache: an exact threshold match ("hit") or a
// monotonic filter of a compatible lower-threshold entry ("filtered"). The
// filtered set is stored back so the next identical query is an exact hit.
// The returned ResultSet still carries the cached run's thresholds; callers
// adopt the request's (adoptThresholds) before serializing. src is the
// serving entry's provenance (cacheSourceMine / cacheSourceLedger).
func (c *resultCache) lookup(q cacheQuery) (rs *core.ResultSet, kind, src string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	group := c.groups[q.groupKey()]

	for _, e := range group {
		if thresholdKey(q.semantics, e.th) == thresholdKey(q.semantics, q.th) {
			c.touch(e)
			return e.rs, CacheHit, e.source, true
		}
	}

	var best *cacheEntry
	switch q.semantics {
	case core.ExpectedSupport:
		for _, e := range group {
			if e.th.MinESup <= q.th.MinESup && (best == nil || e.th.MinESup > best.th.MinESup) {
				best = e
			}
		}
	case core.Probabilistic:
		// Only algorithms whose FreqProb does not depend on pft filter
		// exactly to a higher pft (see algo.Entry.PFTMonotonic).
		if !algo.PFTMonotonic(q.algorithm) {
			break
		}
		for _, e := range group {
			if e.th.MinSup == q.th.MinSup && e.th.PFT <= q.th.PFT && (best == nil || e.th.PFT > best.th.PFT) {
				best = e
			}
		}
	}
	if best == nil {
		return nil, "", "", false
	}
	c.touch(best)
	rs = filterMonotonic(best.rs, q)
	c.insert(q, rs, best.source)
	return rs, CacheFiltered, best.source, true
}

// store caches a freshly-computed result set for q with its provenance.
func (c *resultCache) store(q cacheQuery, rs *core.ResultSet, source string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(q, rs, source)
}

// insert adds an entry under c.mu, replacing an equal-threshold entry and
// evicting the least-recently-used entry when over capacity.
func (c *resultCache) insert(q cacheQuery, rs *core.ResultSet, source string) {
	gk := q.groupKey()
	for _, e := range c.groups[gk] {
		if thresholdKey(q.semantics, e.th) == thresholdKey(q.semantics, q.th) {
			e.rs = rs
			e.source = source
			c.touch(e)
			return
		}
	}
	e := &cacheEntry{dataset: q.dataset, th: q.th, rs: rs, source: source}
	c.touch(e)
	c.groups[gk] = append(c.groups[gk], e)
	c.count++
	for c.count > c.max {
		c.evictLRU()
	}
}

// touch stamps an entry's recency.
func (c *resultCache) touch(e *cacheEntry) {
	c.clock++
	e.lastUsed = c.clock
}

// evictLRU removes the least-recently-used entry (linear scan; the cache is
// small by construction).
func (c *resultCache) evictLRU() {
	var (
		oldKey string
		oldIdx int
		oldUse uint64
		found  bool
	)
	for gk, group := range c.groups {
		for i, e := range group {
			if !found || e.lastUsed < oldUse {
				oldKey, oldIdx, oldUse, found = gk, i, e.lastUsed, true
			}
		}
	}
	if !found {
		return
	}
	group := c.groups[oldKey]
	c.groups[oldKey] = append(group[:oldIdx], group[oldIdx+1:]...)
	if len(c.groups[oldKey]) == 0 {
		delete(c.groups, oldKey)
	}
	c.count--
}

// invalidate drops every entry of a dataset (all versions — entries of
// superseded versions can never be hit again and only hold memory).
func (c *resultCache) invalidate(dataset string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for gk, group := range c.groups {
		if len(group) > 0 && group[0].dataset == dataset {
			c.count -= len(group)
			delete(c.groups, gk)
		}
	}
}

// len counts the cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// filterMonotonic keeps exactly the cached results that a direct mine at
// q.th would return, using the same comparisons (and Eps slack) as the
// miners. Result values are shared with the cached run; by threshold-
// independent determinism they are bit-identical to a fresh mine's.
func filterMonotonic(rs *core.ResultSet, q cacheQuery) *core.ResultSet {
	out := &core.ResultSet{
		Algorithm:  rs.Algorithm,
		Semantics:  rs.Semantics,
		Thresholds: q.th,
		N:          rs.N,
		// Stats describe the cached mining run that produced the superset;
		// no new algorithm work happened. They are not serialized.
		Stats: rs.Stats,
	}
	switch q.semantics {
	case core.ExpectedSupport:
		floor := q.th.MinESupCount(q.n) - core.Eps
		for _, r := range rs.Results {
			if r.ESup >= floor {
				out.Results = append(out.Results, r)
			}
		}
	case core.Probabilistic:
		for _, r := range rs.Results {
			if r.FreqProb > q.th.PFT+core.Eps {
				out.Results = append(out.Results, r)
			}
		}
	}
	return out
}

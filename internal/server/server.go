// Package server turns the batch mining platform into a long-running
// concurrent mining service: datasets are loaded (or generated) once into a
// versioned registry and shared read-only across requests, queries run any
// registered miner over the shared parallel pool under a bounded in-flight
// limit, and a monotonicity-aware result cache plus singleflight coalescing
// keep repeated and concurrent queries from re-mining.
//
// The paper benchmarks one-shot batch runs; a serving deployment has the
// opposite shape — long-lived databases queried repeatedly at many
// thresholds by many concurrent clients, with continuous ingest alongside
// the analytical queries (the workload-co-location setting of Polynesia,
// arXiv:2103.00798, and the concurrency-dominated regime CCBench,
// arXiv:2009.11558, measures). Package server is that layer:
//
//   - registry.go — named, versioned datasets; ingest appends transactions
//     (optionally keeping only a sliding window's trailing transactions)
//     and bumps the version;
//   - cache.go — results keyed by (dataset, version, algorithm,
//     thresholds); a higher-threshold query is answered by filtering a
//     cached lower-threshold result set, exploiting the anti-monotonicity
//     of both frequentness definitions;
//   - singleflight.go — identical concurrent queries mine once and share
//     the result;
//   - subscribe.go — continuous queries: an incremental-maintenance ledger
//     per (dataset, algorithm, thresholds), refreshed off the ingest path,
//     whose diffs stream to /subscribe clients;
//   - shard.go — the scatter-gather path for sharded datasets, in process
//     or over a remote shard pool, bit-identical to an unsharded mine;
//   - obsq.go — Explain, the executed plan and cost breakdown behind
//     /explain;
//   - http.go — the HTTP/JSON surface (/datasets, /mine, /ingest,
//     /explain, /subscribe, /healthz, /stats) reusing the core result-set
//     codecs.
//
// The repo benchmark (perfbench/) drives this package over loopback HTTP.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/incmine"
	"umine/internal/obsq"
	"umine/internal/shardrpc"
	"umine/internal/telemetry"
)

// Config parameterizes a Server. The zero value is a usable default.
type Config struct {
	// DefaultWorkers is the Options.Workers value applied to requests that
	// do not set their own (0/1 = serial, n > 1 = at most n goroutines,
	// negative = GOMAXPROCS).
	DefaultWorkers int
	// MaxInFlight bounds the number of mining jobs executing at once;
	// further jobs queue on the semaphore (cache hits are never queued).
	// 0 means 2 × GOMAXPROCS; negative means unbounded.
	MaxInFlight int
	// DefaultTimeout bounds each request's queueing + mining time when the
	// request does not carry its own timeout. 0 means no timeout.
	DefaultTimeout time.Duration
	// CacheEntries caps the result cache (0 = default 256 entries,
	// negative = cache disabled).
	CacheEntries int
	// ShardPool, when non-nil, serves sharded datasets' phase-1 mines over
	// remote shard servers (process-per-shard; umine/internal/shardrpc). The
	// scatter width is clamped to the pool's width, a shard exhausting its
	// retries fails over to an in-process mine of its slice, and results stay
	// bit-identical to an unsharded mine. Nil mines shards in process (the
	// partition engine's own slice mine).
	ShardPool *shardrpc.Pool
	// ShardProgress observes the remote backend's robustness events
	// (PhaseShardRetry/Hedge/Failover/Repush; Level is the 1-based shard
	// ordinal). Must be fast and safe for concurrent use. May be nil.
	ShardProgress core.ProgressFunc
	// Telemetry, when non-nil, collects per-request traces and serves the
	// Prometheus-style metrics: every /mine and /ingest (and every direct
	// Mine call) runs under a trace retained in the hub's ring, the
	// Handler mounts /metrics and /debug/traces, and the per-phase latency
	// histograms are registered on the hub's Registry. Nil disables all of
	// it at zero per-request cost.
	Telemetry *telemetry.Hub
}

// defaultCacheEntries is the result-cache capacity when Config leaves it 0.
const defaultCacheEntries = 256

// Server is an embeddable concurrent mining service. All methods are safe
// for concurrent use. The zero value is not usable; construct with New.
type Server struct {
	cfg    Config
	reg    registry
	cache  *resultCache
	flight flightGroup
	sem    chan struct{}
	start  time.Time

	// mineFn runs one mining job under ctx; tests substitute it to control
	// timing and observe cancellation.
	mineFn func(ctx context.Context, algorithm string, db *core.Database, th core.Thresholds, opts core.Options) (*core.ResultSet, error)

	requests      atomic.Uint64
	cacheHits     atomic.Uint64
	cacheFiltered atomic.Uint64
	cacheMisses   atomic.Uint64
	coalesced     atomic.Uint64
	uncached      atomic.Uint64
	ingests       atomic.Uint64
	errorCount    atomic.Uint64
	canceledCount atomic.Uint64
	inFlight      atomic.Int64

	// Scatter-gather counters (the /stats partition block), guarded by one
	// mutex instead of independent atomics: a completed sharded mine bumps
	// all of them in one critical section, and Stats reads them in one, so
	// a /stats scrape racing a mine can never observe partitions_mined
	// ahead of sharded_mines (the snapshot-consistency invariant
	// TestStatsPartitionSnapshotConsistent documents).
	partMu sync.Mutex
	part   partitionCounters
	// Remote-shard robustness counters (the /stats shard block); only the
	// RPC backend moves them.
	shardRetries   atomic.Uint64
	shardHedges    atomic.Uint64
	shardFailovers atomic.Uint64
	shardRepushes  atomic.Uint64

	// Per-phase latency histograms, registered on Config.Telemetry's
	// registry (nil histograms no-op when telemetry is disabled).
	histMine   *telemetry.Histogram
	histShard  *telemetry.Histogram
	histMerge  *telemetry.Histogram
	histPhase2 *telemetry.Histogram
	histNotify *telemetry.Histogram

	// Continuous queries (subscribe.go): incremental-maintenance ledgers by
	// (dataset, algorithm, thresholds) and their counters.
	ledgerMu     sync.Mutex
	ledgers      map[string]*ledgerEntry
	incUpdates   atomic.Uint64
	incFallbacks atomic.Uint64
	subscribers  atomic.Int64
}

// partitionCounters is the /stats partition block, moved as a unit under
// Server.partMu.
type partitionCounters struct {
	shardedMines uint64
	partitions   uint64
	reused       uint64
	candidates   uint64
	mergeNanos   uint64
	stragNanos   uint64
}

// New constructs a Server from cfg.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, start: time.Now(), ledgers: map[string]*ledgerEntry{}}
	s.reg.init()
	if cfg.CacheEntries >= 0 {
		max := cfg.CacheEntries
		if max == 0 {
			max = defaultCacheEntries
		}
		s.cache = newResultCache(max)
	}
	slots := cfg.MaxInFlight
	if slots == 0 {
		slots = 2 * runtime.GOMAXPROCS(0)
	}
	if slots > 0 {
		s.sem = make(chan struct{}, slots)
	}
	s.flight.init()
	s.mineFn = func(ctx context.Context, algorithm string, db *core.Database, th core.Thresholds, opts core.Options) (*core.ResultSet, error) {
		m, err := algo.NewWith(algorithm, opts)
		if err != nil {
			return nil, err
		}
		return m.Mine(ctx, db, th)
	}
	if cfg.Telemetry != nil {
		s.registerMetrics(cfg.Telemetry.Metrics)
	}
	return s
}

// registerMetrics exposes the server's counters and gauges as func-backed
// /metrics families over the same atomics /stats reads (one source of
// truth, no double counting) and creates the per-phase latency histograms.
func (s *Server) registerMetrics(reg *telemetry.Registry) {
	counter := func(name, help string, v *atomic.Uint64) {
		reg.CounterFunc(name, help, nil, func() float64 { return float64(v.Load()) })
	}
	counter("umine_requests_total", "Mine requests received.", &s.requests)
	counter("umine_ingests_total", "Ingest batches applied.", &s.ingests)
	counter("umine_errors_total", "Failed mine requests.", &s.errorCount)
	counter("umine_canceled_total", "Mine requests aborted by cancellation or deadline.", &s.canceledCount)
	for _, c := range []struct {
		outcome string
		v       *atomic.Uint64
	}{
		{CacheHit, &s.cacheHits},
		{CacheFiltered, &s.cacheFiltered},
		{CacheMiss, &s.cacheMisses},
		{CacheCoalesced, &s.coalesced},
		{CacheBypassed, &s.uncached},
	} {
		v := c.v
		reg.CounterFunc("umine_cache_requests_total", "Mine requests by cache outcome.",
			telemetry.Labels{"outcome": c.outcome}, func() float64 { return float64(v.Load()) })
	}
	partCounter := func(name, help string, field func(partitionCounters) uint64) {
		reg.CounterFunc(name, help, nil, func() float64 {
			s.partMu.Lock()
			defer s.partMu.Unlock()
			return float64(field(s.part))
		})
	}
	partCounter("umine_sharded_mines_total", "Completed scatter-gather mines.",
		func(p partitionCounters) uint64 { return p.shardedMines })
	partCounter("umine_partitions_mined_total", "Phase-1 partitions mined across sharded mines.",
		func(p partitionCounters) uint64 { return p.partitions })
	partCounter("umine_partitions_reused_total", "Phase-1 partitions answered from a held answer instead of mined.",
		func(p partitionCounters) uint64 { return p.reused })
	partCounter("umine_phase2_candidates_total", "Candidates verified by phase 2 across sharded mines.",
		func(p partitionCounters) uint64 { return p.candidates })
	counter("umine_shard_retries_total", "Shard RPC attempts retried.", &s.shardRetries)
	counter("umine_shard_hedges_total", "Hedged duplicate shard requests launched.", &s.shardHedges)
	counter("umine_shard_failovers_total", "Shards failed over to in-process mining.", &s.shardFailovers)
	counter("umine_shard_repushes_total", "Slices re-pushed after a stale-pin reject.", &s.shardRepushes)
	counter("umine_incremental_updates_total", "Ledger refreshes applied for continuous queries.", &s.incUpdates)
	counter("umine_incremental_fallbacks_total", "Ledger refreshes that fell back to a full rebuild.", &s.incFallbacks)
	reg.GaugeFunc("umine_subscribers", "Live continuous-query subscribers.", nil,
		func() float64 { return float64(s.subscribers.Load()) })
	reg.GaugeFunc("umine_incremental_border_itemsets", "Itemsets tracked below the cutoff across registered ledgers.", nil,
		func() float64 { return float64(s.borderItemsets()) })
	reg.GaugeFunc("umine_in_flight", "Mining jobs executing or queued past the semaphore.", nil,
		func() float64 { return float64(s.inFlight.Load()) })
	reg.GaugeFunc("umine_datasets", "Registered datasets.", nil,
		func() float64 { return float64(s.reg.len()) })
	reg.GaugeFunc("umine_cache_entries", "Result-cache entries resident.", nil, func() float64 {
		if s.cache == nil {
			return 0
		}
		return float64(s.cache.len())
	})
	reg.GaugeFunc("umine_bytes_resident", "Total arena bytes across registered datasets.", nil, func() float64 {
		var b int64
		for _, d := range s.reg.list() {
			b += d.info().BytesResident
		}
		return float64(b)
	})
	reg.GaugeFunc("umine_goroutines", "Goroutines in the serving process.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("umine_process_uptime_seconds", "Seconds since the serving process started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("umine_build_info", "Build metadata; always 1.", telemetry.BuildInfoLabels(),
		func() float64 { return 1 })
	s.histMine = reg.Histogram("umine_mine_duration_seconds",
		"End-to-end latency of Mine requests (cache hits included).", nil, nil)
	s.histShard = reg.Histogram("umine_shard_phase1_duration_seconds",
		"Latency of one shard's phase-1 mine inside a scatter (retries and failover included).", nil, nil)
	s.histMerge = reg.Histogram("umine_merge_duration_seconds",
		"Latency of the phase-1 candidate-union merge.", nil, nil)
	s.histPhase2 = reg.Histogram("umine_phase2_duration_seconds",
		"Latency of the restricted phase-2 verification mine.", nil, nil)
	s.histNotify = reg.Histogram("umine_ingest_notify_duration_seconds",
		"Latency from ingest arrival to the refreshed diff's broadcast.", nil, nil)
}

// ErrUnknownDataset reports a query against a dataset name that was never
// registered.
var ErrUnknownDataset = errors.New("server: unknown dataset")

// ErrDuplicateDataset reports a registration under an already-taken name.
var ErrDuplicateDataset = errors.New("server: dataset already registered")

// Cache-outcome labels carried by MineResponse.Cache.
const (
	// CacheMiss: the request mined.
	CacheMiss = "miss"
	// CacheHit: an identical (dataset version, algorithm, thresholds)
	// result was served from the cache.
	CacheHit = "hit"
	// CacheFiltered: a cached lower-threshold result set was filtered down
	// to the queried thresholds instead of re-mining.
	CacheFiltered = "filtered"
	// CacheCoalesced: the request joined an identical in-flight query and
	// shared its result.
	CacheCoalesced = "coalesced"
	// CacheBypassed: the request asked for NoCache and mined unconditionally.
	CacheBypassed = "bypassed"
)

// MineRequest is one mining query against a registered dataset.
type MineRequest struct {
	// Dataset names a registered dataset.
	Dataset string
	// Algorithm is a registry name (umine.Algorithms).
	Algorithm string
	// Thresholds for the algorithm's semantics.
	Thresholds core.Thresholds
	// Workers overrides Config.DefaultWorkers when non-zero.
	Workers int
	// Timeout overrides Config.DefaultTimeout when non-zero. It bounds the
	// whole request — queueing, waiting on a coalesced leader, AND the
	// mining job itself: the expiring deadline cancels an in-flight mine at
	// its next cooperative checkpoint (one chunk/candidate of work), so a
	// timed-out request stops burning CPU instead of mining on for a client
	// that is gone.
	Timeout time.Duration
	// NoCache bypasses the cache and coalescing: the request always mines.
	// Used by the load benchmark's cold passes.
	NoCache bool

	// exec, when set, receives the execution decisions Explain reports
	// (which backend ran, how wide the scatter was, a cache entry's
	// provenance, the run's checkpoint collector).
	exec *execRecord
}

// execRecord captures one request's execution decisions for /explain.
type execRecord struct {
	backend string // local | sharded | shardrpc ("" when nothing executed)
	shards  int
	source  string          // cache-entry provenance when served without mining
	col     *obsq.Collector // the mine's checkpoint steps (nil when nothing executed)
}

// MineResponse is the outcome of one Mine call.
type MineResponse struct {
	// Results is the mined (or cache-served) result set; its Thresholds are
	// the request's, so serializing it is indistinguishable from a direct
	// MineWith call at the same thresholds.
	Results *core.ResultSet
	// Cache is one of the Cache* labels.
	Cache string
	// DatasetVersion is the dataset version the response was computed at.
	DatasetVersion uint64
	// Elapsed is the server-side request latency.
	Elapsed time.Duration
}

// mineOutcome is what one singleflight execution produces.
type mineOutcome struct {
	rs   *core.ResultSet
	kind string
	src  string // cache-entry provenance when served from the cache
}

// servePath maps a cache-outcome label (plus the serving entry's
// provenance) to the /explain path label.
func servePath(kind, src string) string {
	switch kind {
	case CacheMiss, CacheBypassed:
		return "mined"
	case CacheCoalesced:
		return "coalesced"
	case CacheHit:
		if src == cacheSourceLedger {
			return "ledger"
		}
		return "cache-hit"
	case CacheFiltered:
		if src == cacheSourceLedger {
			return "ledger"
		}
		return "cache-filtered"
	}
	return kind
}

// Mine answers one query, consulting the cache (exact hit or monotonic
// filter), coalescing with identical in-flight queries, and otherwise mining
// on the bounded pool. The context (capped by the request/default timeout)
// governs the whole lifecycle: queueing, coalesced waits, and the running
// mine itself — expiry aborts in-flight work at the miner's next
// cooperative checkpoint and Mine returns ctx.Err().
func (s *Server) Mine(ctx context.Context, req MineRequest) (*MineResponse, error) {
	start := time.Now()
	s.requests.Add(1)
	// One deferred observation per request, failures included: the latency
	// histogram, with the trace ID as exemplar linking a slow scrape sample
	// to /debug/traces.
	var traceID string
	defer func() { s.histMine.ObserveExemplar(time.Since(start).Seconds(), traceID) }()
	// Every Mine runs under a span: the HTTP layer's when ctx carries one,
	// a fresh trace otherwise (direct API callers get the same story).
	span := telemetry.SpanFromContext(ctx)
	if span == nil && s.cfg.Telemetry != nil {
		tr := s.cfg.Telemetry.StartTrace("mine " + req.Dataset)
		defer tr.Finish()
		span = tr.Root()
		ctx = telemetry.ContextWithSpan(ctx, span)
	}
	span.SetAttr("dataset", req.Dataset)
	span.SetAttr("algorithm", req.Algorithm)
	if t := req.Thresholds; t.MinESup > 0 {
		span.SetAttr("threshold", fmt.Sprintf("min_esup=%g", t.MinESup))
	} else if t.MinSup > 0 {
		span.SetAttr("threshold", fmt.Sprintf("min_sup=%g pft=%g", t.MinSup, t.PFT))
	}
	traceID = span.TraceID()
	timeout := req.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	d, ok := s.reg.get(req.Dataset)
	if !ok {
		s.errorCount.Add(1)
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, req.Dataset)
	}
	sem, err := algo.SemanticsOf(req.Algorithm)
	if err != nil {
		s.errorCount.Add(1)
		return nil, err
	}
	if err := req.Thresholds.Validate(sem); err != nil {
		s.errorCount.Add(1)
		return nil, err
	}

	snap := d.ledgerSnapshot()
	q := cacheQuery{
		dataset:   req.Dataset,
		version:   snap.Version,
		algorithm: req.Algorithm,
		semantics: sem,
		th:        req.Thresholds,
		n:         snap.DB.N(),
	}

	respond := func(rs *core.ResultSet, kind, src string) *MineResponse {
		span.SetAttr("cache", kind)
		if req.exec != nil {
			req.exec.source = src
		}
		return &MineResponse{
			Results:        adoptThresholds(rs, req.Thresholds),
			Cache:          kind,
			DatasetVersion: snap.Version,
			Elapsed:        time.Since(start),
		}
	}

	if req.NoCache {
		rs, err := func() (*core.ResultSet, error) {
			if err := s.acquire(ctx); err != nil {
				return nil, err
			}
			defer s.release() // released even if the miner panics
			return s.runMine(ctx, req, d, snap)
		}()
		if err != nil {
			s.countError(err)
			return nil, err
		}
		s.uncached.Add(1)
		return respond(rs, CacheBypassed, ""), nil
	}

	if s.cache != nil {
		lt := time.Now()
		rs, kind, src, ok := s.cache.lookup(q)
		span.Record("cache lookup", lt, time.Now(), [2]string{"hit", fmt.Sprint(ok)})
		if ok {
			s.countCache(kind)
			return respond(rs, kind, src), nil
		}
	}

	out, shared, err := s.flight.do(ctx, q.key(), func() (mineOutcome, error) {
		if err := s.acquire(ctx); err != nil {
			return mineOutcome{}, err
		}
		defer s.release()
		// Re-check the cache: a compatible entry (e.g. a lower-threshold
		// mine that can be filtered) may have landed while queued.
		if s.cache != nil {
			if rs, kind, src, ok := s.cache.lookup(q); ok {
				return mineOutcome{rs: rs, kind: kind, src: src}, nil
			}
		}
		rs, err := s.runMine(ctx, req, d, snap)
		if err != nil {
			return mineOutcome{}, err
		}
		if s.cache != nil {
			s.cache.store(q, rs, cacheSourceMine)
		}
		return mineOutcome{rs: rs, kind: CacheMiss, src: cacheSourceMine}, nil
	})
	if err != nil {
		s.countError(err)
		return nil, err
	}
	kind := out.kind
	if shared {
		kind = CacheCoalesced
	}
	s.countCache(kind)
	return respond(out.rs, kind, out.src), nil
}

// minShardTransactions is the smallest partition the scatter-gather path
// will mine. Partition-relative thresholds scale with the partition size,
// so shards holding only a handful of transactions drive the phase-1
// candidate floor below a single transaction's probability mass and phase 1
// degenerates into enumerating transaction powersets — unbounded work a
// client could otherwise trigger through the shards knob. Results are
// bit-identical at every shard count, so clamping is purely an execution
// decision.
const minShardTransactions = 64

// scatterWidth clamps a dataset's shard count so every range of
// partition.Boundaries(n, width) holds at least minShardTransactions
// transactions (tiny dataset, shrunken window): the scatter must narrow,
// never degenerate. width ≤ n/64 gives ⌊n/width⌋ ≥ 64, and Boundaries keeps
// every range at least ⌊n/width⌋ rounded down to its grid g. Below 2048
// transactions a shard, g is a power of two no larger than 64, so it
// divides 64 and the rounding keeps every range at 64 or more; above, g is
// at most 1/16 of the range size.
func scatterWidth(n, shards int) int {
	return min(shards, n/minShardTransactions)
}

// runMine executes one mining job on the snapshot: scatter-gather when the
// dataset is sharded and the algorithm partition-capable (bit-identical to
// the plain path, so cache entries stay interchangeable), the plain mineFn
// otherwise. snap's version is the pin a remote backend stamps on every
// shard request.
func (s *Server) runMine(ctx context.Context, req MineRequest, d *dsEntry, snap incmine.Snapshot) (*core.ResultSet, error) {
	db := snap.DB
	ctx, span := telemetry.StartSpan(ctx, "mine")
	defer span.End()
	opts := core.Options{Workers: s.workers(req.Workers)}
	shards := scatterWidth(db.N(), d.shards)
	if p := s.cfg.ShardPool; p != nil && shards > p.Width() {
		// A scatter can't be wider than the shard pool; narrow it rather
		// than failing the mine (results are shard-count independent).
		shards = p.Width()
	}
	sharded := shards > 1 && algo.SupportsPartitions(req.Algorithm)
	// The request's one checkpoint collector times each step for /explain
	// and, on the plain path, records it as a child span of "mine". The
	// sharded path's engine spans already cover its structure, so there the
	// collector runs span-less, for Explain only. With neither a span nor
	// an Explain, Progress stays nil and costs nothing.
	parent := span
	if sharded {
		parent = nil
	}
	if parent != nil || req.exec != nil {
		col := obsq.NewCollector(parent)
		opts.Progress = col.Progress()
		if req.exec != nil {
			req.exec.col = col
		}
	}
	if sharded {
		span.SetAttr("shards", fmt.Sprint(shards))
		return s.mineSharded(ctx, req.Algorithm, d, snap, shards, req.Thresholds, opts, req.exec)
	}
	if req.exec != nil {
		req.exec.backend = "local"
	}
	return s.mineFn(ctx, req.Algorithm, db, req.Thresholds, opts)
}

// countError bumps the error counter, tallying canceled/timed-out jobs
// separately so /stats distinguishes aborted work from real failures.
func (s *Server) countError(err error) {
	s.errorCount.Add(1)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.canceledCount.Add(1)
	}
}

// countCache bumps the stats counter matching a cache-outcome label.
func (s *Server) countCache(kind string) {
	switch kind {
	case CacheHit:
		s.cacheHits.Add(1)
	case CacheFiltered:
		s.cacheFiltered.Add(1)
	case CacheMiss:
		s.cacheMisses.Add(1)
	case CacheCoalesced:
		s.coalesced.Add(1)
	}
}

// workers resolves a per-request Workers value against the server default,
// capped at the cores this process has. The cap is an execution decision
// like minShardTransactions: results are bit-identical at every worker
// count, and an uncapped client value would make the work-stealing
// scheduler allocate one deque and goroutine per requested worker.
// Negative values (all cores) pass through.
func (s *Server) workers(reqWorkers int) int {
	if reqWorkers == 0 {
		reqWorkers = s.cfg.DefaultWorkers
	}
	return min(reqWorkers, runtime.GOMAXPROCS(0))
}

// acquire claims one in-flight mining slot, honoring ctx while queueing.
func (s *Server) acquire(ctx context.Context) error {
	if s.sem == nil {
		s.inFlight.Add(1)
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns an in-flight mining slot.
func (s *Server) release() {
	s.inFlight.Add(-1)
	if s.sem != nil {
		<-s.sem
	}
}

// adoptThresholds returns rs with Thresholds replaced by th (shallow copy;
// Results are shared). Cache-served responses must carry the *request's*
// thresholds so their serialization is bit-identical to a direct mine.
func adoptThresholds(rs *core.ResultSet, th core.Thresholds) *core.ResultSet {
	if rs.Thresholds == th {
		return rs
	}
	out := *rs
	out.Thresholds = th
	return &out
}

// Ingest appends raw transactions to a dataset, bumps its version and
// invalidates its cached results. A windowed dataset then drops its oldest
// transactions beyond the window size. No miner runs on the ingest path: the
// dataset's continuous queries refresh in the background (subscribe.go).
func (s *Server) Ingest(ctx context.Context, name string, raw [][]core.Unit) (IngestResult, error) {
	t0 := time.Now()
	d, ok := s.reg.get(name)
	if !ok {
		return IngestResult{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	res, err := d.ingest(raw)
	if err != nil {
		return IngestResult{}, err
	}
	if res.Added > 0 {
		if s.cache != nil {
			s.cache.invalidate(name)
		}
		s.ingests.Add(1)
		// Kick the dataset's continuous queries off the request path: the
		// ingest responds now, subscribers get their diffs when the
		// background refresh lands (subscribe.go).
		s.notifyIngest(name, t0)
	}
	return res, nil
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Datasets      int     `json:"datasets"`
	Requests      uint64  `json:"requests"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheFiltered uint64  `json:"cache_filtered"`
	CacheMisses   uint64  `json:"cache_misses"`
	Coalesced     uint64  `json:"coalesced"`
	Uncached      uint64  `json:"uncached"`
	Ingests       uint64  `json:"ingests"`
	Errors        uint64  `json:"errors"`
	// Canceled counts mining requests aborted by cancellation or deadline
	// (while queued or in flight); every canceled request also counts as an
	// error.
	Canceled     uint64 `json:"canceled"`
	InFlight     int64  `json:"in_flight"`
	CacheEntries int    `json:"cache_entries"`
	// Scatter-gather counters: completed sharded mines, partitions mined
	// across them (phase 1; every non-empty partition), how many of those
	// were answered from the dataset's held phase-1 answer of an unchanged
	// range instead of mined, candidates the phase-2 verification checked,
	// and cumulative candidate-union merge time. ShardSlowestMS accumulates
	// each sharded mine's slowest single shard (the straggler) — divided by
	// ShardedMines it is the mean per-mine straggler cost, directly
	// comparable against PartitionMergeMS for the phase-1-vs-merge latency
	// breakdown.
	ShardedMines     uint64  `json:"sharded_mines"`
	PartitionsMined  uint64  `json:"partitions_mined"`
	PartitionsReused uint64  `json:"partitions_reused"`
	Phase2Candidates uint64  `json:"phase2_candidates"`
	PartitionMergeMS float64 `json:"partition_merge_ms"`
	ShardSlowestMS   float64 `json:"shard_slowest_ms"`
	// Remote-shard robustness counters (zero unless a shard pool is
	// configured): retried shard RPC attempts, hedged duplicates launched
	// against stragglers, shards failed over to in-process mining, and
	// coherence re-pushes after a shard rejected a pinned version.
	ShardRetries   uint64 `json:"shard_retries"`
	ShardHedges    uint64 `json:"shard_hedges"`
	ShardFailovers uint64 `json:"shard_failovers"`
	ShardRepushes  uint64 `json:"shard_repushes"`
	// RemoteShards is the configured shard pool's width (0 = in-process).
	RemoteShards int `json:"remote_shards,omitempty"`
	// Continuous-query counters: registered incremental ledgers, live
	// subscribers, ledger refreshes applied, and how many of those fell
	// back to a full rebuild (window eviction, shrink, border exhaustion,
	// or an algorithm with no candidate floor).
	Ledgers              int    `json:"ledgers"`
	Subscribers          int64  `json:"subscribers"`
	IncrementalUpdates   uint64 `json:"incremental_updates"`
	IncrementalFallbacks uint64 `json:"incremental_fallbacks"`
	// BytesResident totals the datasets' snapshot footprints (columns,
	// offset tables, built per-item indexes); DatasetBytesResident breaks it
	// down per dataset. A sharded dataset's per-mine slices share its one
	// arena, counted once.
	BytesResident        int64            `json:"bytes_resident"`
	DatasetBytesResident map[string]int64 `json:"dataset_bytes_resident,omitempty"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Datasets:       s.reg.len(),
		Requests:       s.requests.Load(),
		CacheHits:      s.cacheHits.Load(),
		CacheFiltered:  s.cacheFiltered.Load(),
		CacheMisses:    s.cacheMisses.Load(),
		Coalesced:      s.coalesced.Load(),
		Uncached:       s.uncached.Load(),
		Ingests:        s.ingests.Load(),
		Errors:         s.errorCount.Load(),
		Canceled:       s.canceledCount.Load(),
		InFlight:       s.inFlight.Load(),
		ShardRetries:   s.shardRetries.Load(),
		ShardHedges:    s.shardHedges.Load(),
		ShardFailovers: s.shardFailovers.Load(),
		ShardRepushes:  s.shardRepushes.Load(),

		Ledgers:              len(s.ledgerEntries()),
		Subscribers:          s.subscribers.Load(),
		IncrementalUpdates:   s.incUpdates.Load(),
		IncrementalFallbacks: s.incFallbacks.Load(),
	}
	// The partition block is read in one critical section — the same one
	// the sharded-mine Observe hook writes under — so the snapshot is
	// internally consistent: a scrape racing a sharded mine sees either
	// all of that mine's counters or none, and partitions_mined can never
	// lead sharded_mines.
	s.partMu.Lock()
	st.ShardedMines = s.part.shardedMines
	st.PartitionsMined = s.part.partitions
	st.PartitionsReused = s.part.reused
	st.Phase2Candidates = s.part.candidates
	st.PartitionMergeMS = float64(s.part.mergeNanos) / 1e6
	st.ShardSlowestMS = float64(s.part.stragNanos) / 1e6
	s.partMu.Unlock()
	if s.cfg.ShardPool != nil {
		st.RemoteShards = s.cfg.ShardPool.Width()
	}
	if s.cache != nil {
		st.CacheEntries = s.cache.len()
	}
	for _, d := range s.reg.list() {
		b := d.info().BytesResident
		if st.DatasetBytesResident == nil {
			st.DatasetBytesResident = make(map[string]int64)
		}
		st.DatasetBytesResident[d.name] = b
		st.BytesResident += b
	}
	return st
}

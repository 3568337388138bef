package shardrpc

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/obsq"
	"umine/internal/partition"
	"umine/internal/telemetry"
)

// maxShardCacheEntries bounds each held slice's result cache. Phase-1
// queries recur at a handful of (algorithm, threshold) points per version,
// so a small cap covers the working set; when it fills, new results are
// served but not retained (never evicting a hot entry for a cold one).
const maxShardCacheEntries = 64

// ShardConfig parameterizes a ShardServer. The zero value is usable.
type ShardConfig struct {
	// Logger receives one structured record per push and failed request,
	// with the platform's shared keys (nil discards).
	Logger *slog.Logger
	// Telemetry, when non-nil, collects this shard's traces and metrics:
	// /mine1 and /push run under traces (adopting the coordinator's wire
	// trace ID when present, so the shard's /debug/traces ring shares IDs
	// with the coordinator's), and Handler mounts /metrics and
	// /debug/traces. Nil disables retention; spans still travel back on
	// /mine1 responses carrying a trace ID.
	Telemetry *telemetry.Hub
}

// heldSlice is one dataset slice a shard holds: an immutable arena tagged
// with the (version, lo, hi) pin it answers to, plus the slice-local
// result cache. A push replaces the whole struct, so the cache can never
// survive a version boundary.
type heldSlice struct {
	version uint64
	lo, hi  int
	db      *core.Database

	cacheMu sync.Mutex
	cache   map[string]MineShardResponse
}

// cacheKey identifies one phase-1 query against a held slice. The version
// is deliberately absent: the cache lives inside the heldSlice, which a
// version change replaces wholesale.
// Workers never changes results (the determinism contract), so it is not
// part of the key.
func cacheKey(alg string, th core.Thresholds) string {
	return fmt.Sprintf("%s|%x|%x|%x", alg,
		math.Float64bits(th.MinESup), math.Float64bits(th.MinSup), math.Float64bits(th.PFT))
}

// ShardServer hosts dataset slices and serves phase-1 mines over them —
// the in-process core of the cmd/ushard binary. All methods and the
// handler are safe for concurrent use.
type ShardServer struct {
	cfg   ShardConfig
	start time.Time

	mu   sync.RWMutex
	held map[string]*heldSlice

	pushes       atomic.Uint64
	deltaPushes  atomic.Uint64
	mines        atomic.Uint64
	cacheHits    atomic.Uint64
	staleRejects atomic.Uint64
	errs         atomic.Uint64

	// Per-endpoint latency histograms; nil (no telemetry hub) no-ops.
	histMine1 *telemetry.Histogram
	histPush  *telemetry.Histogram
}

// NewShardServer constructs an empty shard server; slices arrive via /push.
func NewShardServer(cfg ShardConfig) *ShardServer {
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s := &ShardServer{cfg: cfg, start: time.Now(), held: make(map[string]*heldSlice)}
	if hub := cfg.Telemetry; hub != nil {
		s.registerMetrics(hub.Metrics)
	}
	return s
}

// registerMetrics exposes the shard counters as func-backed /metrics
// families (no double counting — the atomics above stay authoritative) and
// creates the endpoint latency histograms.
func (s *ShardServer) registerMetrics(reg *telemetry.Registry) {
	counter := func(name, help string, v *atomic.Uint64) {
		reg.CounterFunc(name, help, nil, func() float64 { return float64(v.Load()) })
	}
	counter("ushard_pushes_total", "Slices installed via /push.", &s.pushes)
	counter("ushard_delta_pushes_total", "Pushes applied via the append-only delta path.", &s.deltaPushes)
	counter("ushard_mines_total", "Phase-1 mines executed (cache hits excluded).", &s.mines)
	counter("ushard_cache_hits_total", "Phase-1 mines answered from the slice result cache.", &s.cacheHits)
	counter("ushard_stale_rejects_total", "Mine requests rejected 409 for pinning a version not held.", &s.staleRejects)
	counter("ushard_errors_total", "Failed requests.", &s.errs)
	reg.GaugeFunc("ushard_datasets", "Dataset slices currently held.", nil, func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.held))
	})
	reg.GaugeFunc("ushard_bytes_resident", "Total arena bytes of held slices.", nil, func() float64 {
		return float64(s.Stats().BytesResident)
	})
	reg.GaugeFunc("ushard_goroutines", "Goroutines in the shard process.", nil, func() float64 {
		return float64(runtime.NumGoroutine())
	})
	reg.GaugeFunc("ushard_process_uptime_seconds", "Seconds since the shard process started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("umine_build_info", "Build metadata; always 1.", telemetry.BuildInfoLabels(),
		func() float64 { return 1 })
	s.histMine1 = reg.Histogram("ushard_mine1_duration_seconds",
		"Latency of /mine1 phase-1 mines (cache hits included).", nil, nil)
	s.histPush = reg.Histogram("ushard_push_duration_seconds",
		"Latency of /push slice installs (full and delta).", nil, nil)
}

// ShardStats is the GET /stats document: unsynchronized gauges (the
// eventual-consistency end of the protocol — observability, not answers).
type ShardStats struct {
	Datasets      map[string]ShardDatasetInfo `json:"datasets"`
	Pushes        uint64                      `json:"pushes"`
	DeltaPushes   uint64                      `json:"delta_pushes"`
	Mines         uint64                      `json:"mines"`
	CacheHits     uint64                      `json:"cache_hits"`
	StaleRejects  uint64                      `json:"stale_rejects"`
	Errors        uint64                      `json:"errors"`
	BytesResident int64                       `json:"bytes_resident"`
}

// ShardDatasetInfo describes one held slice.
type ShardDatasetInfo struct {
	Version uint64 `json:"version"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	N       int    `json:"n"`
}

// Stats snapshots the shard counters and held slices.
func (s *ShardServer) Stats() ShardStats {
	st := ShardStats{
		Datasets:     map[string]ShardDatasetInfo{},
		Pushes:       s.pushes.Load(),
		DeltaPushes:  s.deltaPushes.Load(),
		Mines:        s.mines.Load(),
		CacheHits:    s.cacheHits.Load(),
		StaleRejects: s.staleRejects.Load(),
		Errors:       s.errs.Load(),
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, h := range s.held {
		st.Datasets[name] = ShardDatasetInfo{Version: h.version, Lo: h.lo, Hi: h.hi, N: h.db.N()}
		st.BytesResident += h.db.BytesResident()
	}
	return st
}

// Handler returns the shard server's HTTP surface:
//
//	GET  /healthz  liveness
//	GET  /readyz   readiness + held slices (dataset → version/range)
//	GET  /stats    shard counters
//	POST /push     install or delta-extend a dataset slice
//	POST /mine1    phase-1 candidate mine pinned to (version, lo, hi)
func (s *ShardServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathHealthz, func(w http.ResponseWriter, r *http.Request) {
		shardWriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET "+pathReadyz, s.handleReadyz)
	mux.HandleFunc("GET "+pathStats, func(w http.ResponseWriter, r *http.Request) {
		shardWriteJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("POST "+pathPush, s.handlePush)
	mux.HandleFunc("POST "+pathMine1, s.handleMine1)
	if hub := s.cfg.Telemetry; hub != nil {
		mux.Handle("GET /metrics", hub.MetricsHandler())
		mux.Handle("GET /debug/traces", hub.TracesHandler())
		mux.Handle("GET /debug/traces/{id}", hub.TracesHandler())
	}
	return mux
}

// startTrace opens a trace for one shard request, adopting the
// coordinator's trace ID from the header or proto field when present so the
// shard's spans stitch into the coordinator's tree and its /debug/traces
// ring shares IDs with the coordinator's. Works (hublessly) with Telemetry
// nil — the spans still travel back on the response.
func (s *ShardServer) startTrace(r *http.Request, protoID, name string) *telemetry.Trace {
	id := r.Header.Get(headerTraceID)
	if id == "" {
		id = protoID
	}
	return s.cfg.Telemetry.StartTraceID(id, name)
}

// handleReadyz reports readiness: the process serves as soon as it is up
// (slices arrive on demand), so readiness is liveness plus an inventory of
// held slices for operators and boot scripts.
func (s *ShardServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.held))
	inventory := make(map[string]ShardDatasetInfo, len(s.held))
	for name, h := range s.held {
		names = append(names, name)
		inventory[name] = ShardDatasetInfo{Version: h.version, Lo: h.lo, Hi: h.hi, N: h.db.N()}
	}
	s.mu.RUnlock()
	sort.Strings(names)
	shardWriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "datasets": inventory})
}

// handlePush installs a slice. The delta path (Append) extends the held
// slice in place after verifying the base pin; any mismatch falls back to
// an error so the coordinator re-pushes fully — never a silent divergence.
func (s *ShardServer) handlePush(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.histPush.Observe(time.Since(start).Seconds()) }()
	var req PushRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding push: %w", err))
		return
	}
	tr := s.startTrace(r, req.TraceID, "push "+req.Dataset)
	defer tr.Finish()
	tr.Root().SetAttr("append", fmt.Sprint(req.Append))
	if req.Dataset == "" || req.Lo < 0 || req.Hi < req.Lo {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad push pin %q [%d,%d)", req.Dataset, req.Lo, req.Hi))
		return
	}
	if req.NumItems > dataset.MaxItems {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("push declares %d items, above %d", req.NumItems, dataset.MaxItems))
		return
	}
	var base *core.Database
	if req.Append {
		s.mu.RLock()
		h := s.held[req.Dataset]
		s.mu.RUnlock()
		if h == nil || h.lo != req.Lo || h.db.N() != req.BaseN || TxHash(h.db, h.db.N()) != req.BaseHash {
			s.fail(w, http.StatusConflict, fmt.Errorf("delta base mismatch for %q", req.Dataset))
			return
		}
		base = h.db
	}
	db, err := decodeTransactions(req.Dataset, base, req.Transactions)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if got := db.N(); got != req.Hi-req.Lo {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("push carries %d transactions for range [%d,%d)", got, req.Lo, req.Hi))
		return
	}
	if req.NumItems > db.NumItems {
		db.SetNumItems(req.NumItems)
	}
	s.mu.Lock()
	s.held[req.Dataset] = &heldSlice{version: req.Version, lo: req.Lo, hi: req.Hi, db: db}
	s.mu.Unlock()
	s.pushes.Add(1)
	if req.Append {
		s.deltaPushes.Add(1)
	}
	s.cfg.Logger.Info("pushed slice",
		"dataset", req.Dataset, "version", req.Version, "lo", req.Lo, "hi", req.Hi,
		"transactions", len(req.Transactions), "append", req.Append)
	shardWriteJSON(w, http.StatusOK, PushResponse{Dataset: req.Dataset, Version: req.Version, N: db.N(), Appended: req.Append})
}

// handleMine1 answers one pinned phase-1 mine. The version check is the
// strong-consistency gate: a pin the shard does not hold exactly is 409,
// never a best-effort answer over different data.
func (s *ShardServer) handleMine1(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.histMine1.Observe(time.Since(start).Seconds()) }()
	var req MineShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding mine1: %w", err))
		return
	}
	// traced: the coordinator asked for spans back. The trace itself also
	// lands in this shard's own /debug/traces ring (same trace ID as the
	// coordinator's, so operators can join the two views).
	traced := req.TraceID != "" || r.Header.Get(headerTraceID) != ""
	tr := s.startTrace(r, req.TraceID, "mine1 "+req.Dataset)
	defer tr.Finish()
	s.mu.RLock()
	h := s.held[req.Dataset]
	s.mu.RUnlock()
	if h == nil || h.version != req.Version || h.lo != req.Lo || h.hi != req.Hi {
		s.staleRejects.Add(1)
		tr.Root().SetAttr("outcome", "stale")
		stale := StaleResponse{Dataset: req.Dataset}
		if h != nil {
			stale.Held = true
			stale.HeldVersion = h.version
			stale.HeldLo, stale.HeldHi = h.lo, h.hi
			stale.HeldHash = TxHash(h.db, h.db.N())
			stale.Error = fmt.Sprintf("shard holds %s v%d [%d,%d), request pins v%d [%d,%d)",
				req.Dataset, h.version, h.lo, h.hi, req.Version, req.Lo, req.Hi)
		} else {
			stale.Error = fmt.Sprintf("shard holds no slice of %s", req.Dataset)
		}
		shardWriteJSON(w, http.StatusConflict, stale)
		return
	}

	key := cacheKey(req.Algorithm, req.Th)
	h.cacheMu.Lock()
	cached, ok := h.cache[key]
	h.cacheMu.Unlock()
	if ok {
		s.cacheHits.Add(1)
		cached.Cached = true
		tr.Root().SetAttr("outcome", "cache-hit")
		if traced {
			cached.Spans = []telemetry.SpanData{tr.Finish().Root}
		}
		shardWriteJSON(w, http.StatusOK, cached)
		return
	}

	if _, err := algo.SemanticsOf(req.Algorithm); err != nil {
		// An unknown miner is a malformed request, not a mining failure.
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	mineSpan := tr.Root().StartChild("mine")
	mineSpan.SetAttr("algorithm", req.Algorithm)
	// Workers is client input: cap it at the cores this process has, so a
	// request cannot make the scheduler allocate one deque and goroutine
	// per requested worker. Results are identical at every worker count.
	opts := core.Options{Workers: min(req.Workers, runtime.GOMAXPROCS(0))}
	if mineSpan != nil {
		// The miner's own checkpoints (levels, subtrees) become child
		// spans, so the coordinator's stitched tree shows where the shard's
		// time went, not just that it went.
		opts.Progress = obsq.NewCollector(mineSpan).Progress()
	}
	sets, stats, err := algo.MineSlice(r.Context(), req.Algorithm, h.db, req.Th, opts)
	mineSpan.End()
	if err != nil {
		// Mining errors (including a canceled hedge loser's ctx) are 422:
		// semantically final for this attempt, never retried as transport.
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.mines.Add(1)
	resp := MineShardResponse{
		Itemsets: partition.EncodeItemsets(sets),
		Stats:    stats,
	}
	h.cacheMu.Lock()
	if h.cache == nil {
		h.cache = make(map[string]MineShardResponse)
	}
	if len(h.cache) < maxShardCacheEntries {
		// Cached without spans: a later hit snapshots its own (trivial)
		// handling instead of replaying this mine's tree.
		h.cache[key] = resp
	}
	h.cacheMu.Unlock()
	if traced {
		resp.Spans = []telemetry.SpanData{tr.Finish().Root}
	}
	shardWriteJSON(w, http.StatusOK, resp)
}

// fail writes an error response and counts it.
func (s *ShardServer) fail(w http.ResponseWriter, status int, err error) {
	s.errs.Add(1)
	s.cfg.Logger.Warn("request failed", "status", status, "error", err.Error())
	shardWriteJSON(w, status, errorResponse{Error: err.Error()})
}

func shardWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/partition"
	"umine/internal/telemetry"
)

// Tuning bounds the robustness machinery of a Pool. The zero value means
// "use the defaults below"; explicit negatives disable where noted.
type Tuning struct {
	// RequestTimeout is the per-attempt deadline of one shard RPC (each
	// retry and each hedge gets its own). Default 60s.
	RequestTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried (transport
	// errors, timeouts and 5xx only — mining errors are final). Default 2;
	// negative disables retries.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling per retry
	// up to RetryBackoffMax. Defaults 50ms / 1s.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// HedgeAfter launches one duplicate request against a shard whose
	// attempt has been in flight this long; the first response wins and the
	// loser's context is canceled. 0 disables hedging (the default).
	HedgeAfter time.Duration
}

// defaults for the zero Tuning.
const (
	defaultRequestTimeout  = 60 * time.Second
	defaultMaxRetries      = 2
	defaultRetryBackoff    = 50 * time.Millisecond
	defaultRetryBackoffMax = time.Second
)

// withDefaults resolves the zero-value conventions.
func (t Tuning) withDefaults() Tuning {
	if t.RequestTimeout <= 0 {
		t.RequestTimeout = defaultRequestTimeout
	}
	if t.MaxRetries == 0 {
		t.MaxRetries = defaultMaxRetries
	} else if t.MaxRetries < 0 {
		t.MaxRetries = 0
	}
	if t.RetryBackoff <= 0 {
		t.RetryBackoff = defaultRetryBackoff
	}
	if t.RetryBackoffMax <= 0 {
		t.RetryBackoffMax = defaultRetryBackoffMax
	}
	return t
}

// Hooks surface robustness events as counters; any field may be nil. The
// serving layer binds them to its /stats atomics. shard is 0-based.
type Hooks struct {
	OnRetry    func(shard int)
	OnHedge    func(shard int)
	OnFailover func(shard int)
	OnRepush   func(shard int)
}

func call(fn func(int), shard int) {
	if fn != nil {
		fn(shard)
	}
}

// PoolConfig configures a shard pool.
type PoolConfig struct {
	// Addrs are the shard servers in shard order ("host:port" or full URL);
	// shard i of a k-wide scatter is Addrs[i], k ≤ len(Addrs).
	Addrs  []string
	Tuning Tuning
}

// Pool is the coordinator's client side of the shard protocol: a fixed,
// ordered set of shard servers plus the retry/hedge/failover policy. One
// Pool serves every dataset; per-(snapshot, K) Backends are cheap views.
// Observers (Hooks, Progress) attach per Backend, so the pool itself stays
// pure transport + tuning.
type Pool struct {
	addrs  []string
	tuning Tuning
	client *http.Client

	// Data-movement accounting: request-body bytes sent to shard servers,
	// split by endpoint. Pushes are the interesting cost (full slices or
	// deltas); mine bodies are small pinned requests. /explain, the
	// dashboard and perfbench read them through BytesPushed and
	// BytesMineRequests; each attempt's size is also a span attribute.
	pushBytes atomic.Int64
	mineBytes atomic.Int64
}

// BytesPushed is the cumulative request-body bytes of /push RPCs (slice
// installs, both full and delta).
func (p *Pool) BytesPushed() int64 { return p.pushBytes.Load() }

// BytesMineRequests is the cumulative request-body bytes of /mine1 RPCs.
func (p *Pool) BytesMineRequests() int64 { return p.mineBytes.Load() }

// NewPool validates the address list and builds a Pool.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("shardrpc: pool needs at least one shard address")
	}
	addrs := make([]string, len(cfg.Addrs))
	for i, a := range cfg.Addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("shardrpc: shard address %d is empty", i)
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		addrs[i] = strings.TrimRight(a, "/")
	}
	return &Pool{
		addrs:  addrs,
		tuning: cfg.Tuning.withDefaults(),
		// A dedicated client: per-attempt deadlines come from Tuning.
		client: &http.Client{},
	}, nil
}

// Width is the number of shard servers in the pool — the widest scatter it
// can serve.
func (p *Pool) Width() int { return len(p.addrs) }

// Addrs returns the normalized shard addresses in shard order.
func (p *Pool) Addrs() []string {
	out := make([]string, len(p.addrs))
	copy(out, p.addrs)
	return out
}

// Backend pins a (dataset snapshot, scatter width) onto the pool's first k
// shard servers; the serving layer runs each sharded mine's phase 1 through
// its MineShard. db is
// the coordinator's own snapshot — the source of pushes and the failover
// path's data. k must be ≤ Width. hooks and progress observe the backend's
// robustness events; either may be zero/nil.
func (p *Pool) Backend(dataset string, version uint64, db *core.Database, k int, hooks Hooks, progress core.ProgressFunc) (*Backend, error) {
	if k < 1 || k > len(p.addrs) {
		return nil, fmt.Errorf("shardrpc: scatter width %d outside [1,%d]", k, len(p.addrs))
	}
	return &Backend{
		pool:     p,
		dataset:  dataset,
		version:  version,
		db:       db,
		bounds:   partition.Boundaries(db.N(), k),
		hooks:    hooks,
		progress: progress,
	}, nil
}

// Backend scatters one dataset snapshot's phase-1 mines across remote
// shards. Safe for concurrent MineShard calls.
type Backend struct {
	pool     *Pool
	dataset  string
	version  uint64
	db       *core.Database
	bounds   []partition.Range
	hooks    Hooks
	progress core.ProgressFunc
}

// outcomeKind classifies one RPC attempt.
type outcomeKind int

const (
	outcomeOK outcomeKind = iota
	// outcomeStale: 409 — the shard does not hold the pinned slice; re-push
	// and retry without consuming the retry budget.
	outcomeStale
	// outcomeRetryable: transport failure, per-attempt timeout, or 5xx.
	outcomeRetryable
	// outcomePermanent: the shard answered and the answer is final (a mining
	// error, a malformed request) — retrying cannot change it.
	outcomePermanent
)

// String labels an outcome for span attributes.
func (k outcomeKind) String() string {
	switch k {
	case outcomeOK:
		return "ok"
	case outcomeStale:
		return "stale"
	case outcomeRetryable:
		return "retryable"
	case outcomePermanent:
		return "permanent"
	}
	return "unknown"
}

// attemptResult is one RPC attempt's outcome.
type attemptResult struct {
	resp  MineShardResponse
	stale StaleResponse
	kind  outcomeKind
	err   error
	// sent is the request body size in bytes — the attempt's wire cost,
	// surfaced as the "bytes" span attribute.
	sent int
}

// maxRepushes bounds the stale→re-push→retry loop of one MineShard call:
// one re-push handles the ordinary invalidation, a second absorbs a racing
// ingest; a shard still rejecting after that is treated as failed.
const maxRepushes = 2

// MineShard mines one shard during phase 1: one pinned remote mine with
// retries, hedging, stale re-push and local failover. algorithm names the
// phase-1 miner (already mapped by the caller); th carries the phase-1
// candidate floors.
func (b *Backend) MineShard(ctx context.Context, shard int, algorithm string, th core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error) {
	if shard < 0 || shard >= len(b.bounds) {
		return nil, core.MiningStats{}, fmt.Errorf("shardrpc: shard %d outside [0,%d)", shard, len(b.bounds))
	}
	// The context's span (the engine's "shard i") collects one child per
	// RPC attempt, hedge, re-push and failover, and the shard's own spans
	// come back in the response and attach under it. Span-less contexts
	// make every span call a no-op.
	span := telemetry.SpanFromContext(ctx)
	r := b.bounds[shard]
	req := MineShardRequest{
		Dataset:   b.dataset,
		Version:   b.version,
		Lo:        r.Lo,
		Hi:        r.Hi,
		Algorithm: algorithm,
		Th:        th,
		Workers:   workers,
		TraceID:   span.TraceID(),
	}
	t := b.pool.tuning
	retries, repushes := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, core.MiningStats{}, err
		}
		res := b.attempt(ctx, shard, req, span)
		switch res.kind {
		case outcomeOK:
			sets, err := partition.DecodeItemsets(res.resp.Itemsets)
			if err != nil {
				return nil, core.MiningStats{}, fmt.Errorf("shardrpc: shard %d: %w", shard, err)
			}
			for _, sd := range res.resp.Spans {
				span.Attach(sd)
			}
			return sets, res.resp.Stats, nil
		case outcomePermanent:
			return nil, core.MiningStats{}, fmt.Errorf("shardrpc: shard %d: %w", shard, res.err)
		case outcomeStale:
			// Coherence, not failure: re-push the pinned slice and go again
			// without touching the retry budget.
			if repushes >= maxRepushes {
				return b.failover(ctx, shard, algorithm, th, workers,
					fmt.Errorf("shard still stale after %d re-pushes: %w", repushes, res.err))
			}
			repushes++
			call(b.hooks.OnRepush, shard)
			b.progress.Emit(algorithm, core.PhaseShardRepush, shard+1, core.MiningStats{})
			rsp := span.StartChild("repush")
			err := b.repush(ctx, shard, res.stale, req.TraceID, rsp)
			rsp.End()
			if err != nil {
				if ctx.Err() != nil {
					return nil, core.MiningStats{}, ctx.Err()
				}
				return b.failover(ctx, shard, algorithm, th, workers, fmt.Errorf("re-push failed: %w", err))
			}
		case outcomeRetryable:
			if retries >= t.MaxRetries {
				return b.failover(ctx, shard, algorithm, th, workers, res.err)
			}
			backoff := t.RetryBackoff << retries
			if backoff > t.RetryBackoffMax {
				backoff = t.RetryBackoffMax
			}
			retries++
			call(b.hooks.OnRetry, shard)
			b.progress.Emit(algorithm, core.PhaseShardRetry, shard+1, core.MiningStats{})
			span.SetAttr("retries", fmt.Sprint(retries))
			if err := sleepCtx(ctx, backoff); err != nil {
				return nil, core.MiningStats{}, err
			}
		}
	}
}

// attempt runs one logical attempt against a shard: a primary request under
// the per-attempt timeout, plus (when tuned) one hedged duplicate after
// HedgeAfter. The first decisive response (success, stale, or permanent
// error) wins and cancels the other; only if every launched request fails
// retryably does the attempt report retryable.
func (b *Backend) attempt(ctx context.Context, shard int, req MineShardRequest, span *telemetry.Span) attemptResult {
	t := b.pool.tuning
	actx, cancel := context.WithTimeout(ctx, t.RequestTimeout)
	defer cancel()

	ch := make(chan attemptResult, 2)
	launched := 1
	// One child span per launched request ("attempt" / "hedge"), annotated
	// with how it resolved — so a trace shows each wire round-trip,
	// including the losing half of a hedged pair.
	launch := func(kind string) {
		rsp := span.StartChild(kind)
		go func() {
			res := b.doMine(actx, shard, req)
			rsp.SetAttr("outcome", res.kind.String())
			rsp.SetAttr("bytes", fmt.Sprint(res.sent))
			if res.err != nil {
				rsp.SetAttr("error", res.err.Error())
			}
			rsp.End()
			ch <- res
		}()
	}
	launch("attempt")

	var hedgeC <-chan time.Time
	if t.HedgeAfter > 0 {
		timer := time.NewTimer(t.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}

	var last attemptResult
	for received := 0; received < launched; {
		select {
		case res := <-ch:
			received++
			if res.kind != outcomeRetryable {
				// Decisive — the deferred cancel aborts the loser, which
				// writes into the buffered channel and exits.
				return res
			}
			last = res
		case <-hedgeC:
			hedgeC = nil
			launched++
			call(b.hooks.OnHedge, shard)
			b.progress.Emit(req.Algorithm, core.PhaseShardHedge, shard+1, core.MiningStats{})
			launch("hedge")
		case <-ctx.Done():
			return attemptResult{kind: outcomeRetryable, err: ctx.Err()}
		}
	}
	return last
}

// doMine performs one /mine1 POST and classifies the outcome.
func (b *Backend) doMine(ctx context.Context, shard int, req MineShardRequest) attemptResult {
	addr := b.pool.addrs[shard]
	status, body, sent, err := b.post(ctx, addr+pathMine1, req.TraceID, req)
	b.pool.mineBytes.Add(int64(sent))
	if err != nil {
		return attemptResult{kind: outcomeRetryable, err: err, sent: sent}
	}
	switch {
	case status == http.StatusOK:
		var resp MineShardResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return attemptResult{kind: outcomeRetryable, err: fmt.Errorf("decoding mine response: %w", err), sent: sent}
		}
		return attemptResult{resp: resp, kind: outcomeOK, sent: sent}
	case status == http.StatusConflict:
		var stale StaleResponse
		if err := json.Unmarshal(body, &stale); err != nil {
			return attemptResult{kind: outcomeRetryable, err: fmt.Errorf("decoding stale response: %w", err), sent: sent}
		}
		return attemptResult{stale: stale, kind: outcomeStale, err: fmt.Errorf("%s", stale.Error), sent: sent}
	case status >= 500:
		return attemptResult{kind: outcomeRetryable, err: httpError(status, body), sent: sent}
	default:
		return attemptResult{kind: outcomePermanent, err: httpError(status, body), sent: sent}
	}
}

// repush installs the pinned slice on the shard: a delta when the shard's
// held slice is a hash-verified prefix of ours (same lo, content hash of
// the shared prefix matches), the full slice otherwise. A delta rejected by
// the shard (a race moved its held state) falls back to one full push.
// span (nil ok) is annotated with which path applied.
func (b *Backend) repush(ctx context.Context, shard int, stale StaleResponse, traceID string, span *telemetry.Span) error {
	r := b.bounds[shard]
	req := PushRequest{
		Dataset:  b.dataset,
		Version:  b.version,
		Lo:       r.Lo,
		Hi:       r.Hi,
		NumItems: b.db.NumItems,
		TraceID:  traceID,
	}
	heldN := stale.HeldHi - stale.HeldLo
	if stale.Held && stale.HeldLo == r.Lo && heldN > 0 && heldN <= r.Len() &&
		TxHash(b.db.Slice(r.Lo, r.Lo+heldN), heldN) == stale.HeldHash {
		req.Append = true
		req.BaseN = heldN
		req.BaseHash = stale.HeldHash
		req.Transactions = encodeTransactions(b.db, r.Lo+heldN, r.Hi)
	} else {
		req.Transactions = encodeTransactions(b.db, r.Lo, r.Hi)
	}
	span.SetAttr("delta", fmt.Sprint(req.Append))

	sent, err := b.doPush(ctx, shard, req)
	if err != nil && req.Append && ctx.Err() == nil {
		// The delta base moved under us; one full push settles it.
		req.Append = false
		req.BaseN, req.BaseHash = 0, 0
		req.Transactions = encodeTransactions(b.db, r.Lo, r.Hi)
		span.SetAttr("delta", "false (base moved)")
		var sent2 int
		sent2, err = b.doPush(ctx, shard, req)
		sent += sent2
	}
	span.SetAttr("bytes", fmt.Sprint(sent))
	return err
}

// doPush performs one /push POST under the per-attempt timeout, returning
// the request body size (the slice's wire cost).
func (b *Backend) doPush(ctx context.Context, shard int, req PushRequest) (int, error) {
	pctx, cancel := context.WithTimeout(ctx, b.pool.tuning.RequestTimeout)
	defer cancel()
	status, body, sent, err := b.post(pctx, b.pool.addrs[shard]+pathPush, req.TraceID, req)
	b.pool.pushBytes.Add(int64(sent))
	if err != nil {
		return sent, err
	}
	if status != http.StatusOK {
		return sent, httpError(status, body)
	}
	return sent, nil
}

// failover degrades the shard's phase-1 mine to the coordinator's own slice
// of the snapshot — bit-identical data, so the scatter's result is
// unaffected; only the distribution is lost. cause is the remote failure
// being absorbed.
func (b *Backend) failover(ctx context.Context, shard int, algorithm string, th core.Thresholds, workers int, cause error) ([]core.Itemset, core.MiningStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, core.MiningStats{}, err
	}
	call(b.hooks.OnFailover, shard)
	b.progress.Emit(algorithm, core.PhaseShardFailover, shard+1, core.MiningStats{})
	fsp := telemetry.SpanFromContext(ctx).StartChild("failover")
	fsp.SetAttr("cause", cause.Error())
	defer fsp.End()
	r := b.bounds[shard]
	return algo.MineSlice(ctx, algorithm, b.db.Slice(r.Lo, r.Hi), th, core.Options{Workers: workers})
}

// post sends one JSON POST and returns the status, body and request-body
// size. traceID, when non-empty, rides the X-Umine-Trace-Id header alongside
// the proto field.
func (b *Backend) post(ctx context.Context, url, traceID string, payload any) (int, []byte, int, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, 0, err
	}
	sent := len(raw)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return 0, nil, sent, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(headerTraceID, traceID)
	}
	resp, err := b.pool.client.Do(req)
	if err != nil {
		return 0, nil, sent, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, sent, err
	}
	return resp.StatusCode, body, sent, nil
}

// httpError renders a non-OK shard response as an error, preferring the
// JSON error body.
func httpError(status int, body []byte) error {
	var e errorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("HTTP %d: %s", status, e.Error)
	}
	return fmt.Errorf("HTTP %d: %s", status, strings.TrimSpace(string(body)))
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

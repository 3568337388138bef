package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/incmine"
	"umine/internal/telemetry"
)

// The continuous-query half of the HTAP split: a subscription registers an
// incremental-maintenance ledger (umine/internal/incmine) for one
// (dataset, algorithm, thresholds) query, every ingest kicks a background
// refresh of the dataset's ledgers off the request path, and subscribers
// receive the resulting result-set diffs — over the Go API via Subscribe,
// over HTTP as an SSE stream on GET /subscribe. Ledger results are also
// stored into the result cache, so a /mine racing the stream is answered
// from the refresh instead of re-mining.

// SubscribeRequest registers a continuous query.
type SubscribeRequest struct {
	// Dataset names a registered dataset.
	Dataset string
	// Algorithm is a registry name (umine.Algorithms).
	Algorithm string
	// Thresholds for the algorithm's semantics.
	Thresholds core.Thresholds
	// Workers overrides Config.DefaultWorkers for this query's refresh
	// re-mines when non-zero. Queries that share a ledger share the first
	// subscriber's setting.
	Workers int
}

// Subscription is one live continuous query. The first diff on C is a
// snapshot of the full current result set (Reason "snapshot"); each
// subsequent diff is one refresh's transition. C is closed when the
// subscriber cancels or falls too far behind (subscriberBuffer undrained
// diffs) — a closed channel means "resubscribe for a fresh snapshot".
type Subscription struct {
	C      <-chan incmine.Diff
	Cancel func()
}

// subscriberBuffer is each subscriber channel's capacity. A consumer that
// lags this many diffs behind is dropped rather than blocking the refresh
// broadcast for everyone else.
const subscriberBuffer = 16

// ledgerEntry is one registered ledger plus its subscribers and the
// one-shot refresh coalescing state.
type ledgerEntry struct {
	key     string
	dataset string
	sem     core.Semantics
	led     *incmine.Ledger

	// refreshMu serializes ledger refreshes (a synchronous Subscribe build
	// racing the background loop).
	refreshMu sync.Mutex

	mu      sync.Mutex
	subs    map[uint64]chan incmine.Diff
	nextSub uint64
	// running/dirty implement the coalescing refresh goroutine: ingests
	// landing mid-refresh mark dirty and the loop runs once more; the
	// goroutine exits when no work is queued, so an idle server holds no
	// background goroutines.
	running bool
	dirty   bool
	// pending holds the ingest start times awaiting their refresh — drained
	// into the ingest→notify latency histogram when the broadcast goes out.
	pending []time.Time
}

// ledgerKey identifies a ledger the way the result cache identifies a
// query group, minus the version (ledgers span versions).
func ledgerKey(dataset, algorithm string, sem core.Semantics, th core.Thresholds) string {
	return dataset + "\x00" + algorithm + "\x00" + thresholdKey(sem, th)
}

// Subscribe registers a continuous query against a dataset and returns its
// diff stream. The first call for a (dataset, algorithm, thresholds) builds
// the ledger synchronously (a full mine under ctx); later subscribers share
// it and receive a snapshot diff immediately. Cancel is idempotent and must
// be called to release the subscription.
func (s *Server) Subscribe(ctx context.Context, req SubscribeRequest) (*Subscription, error) {
	d, ok := s.reg.get(req.Dataset)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, req.Dataset)
	}
	sem, err := algo.SemanticsOf(req.Algorithm)
	if err != nil {
		return nil, err
	}
	key := ledgerKey(req.Dataset, req.Algorithm, sem, req.Thresholds)
	s.ledgerMu.Lock()
	e, ok := s.ledgers[key]
	if !ok {
		led, err := incmine.New(incmine.Config{
			Dataset:    req.Dataset,
			Algorithm:  req.Algorithm,
			Thresholds: req.Thresholds,
			Workers:    s.workers(req.Workers),
		})
		if err != nil {
			s.ledgerMu.Unlock()
			return nil, err
		}
		e = &ledgerEntry{key: key, dataset: req.Dataset, sem: sem, led: led, subs: map[uint64]chan incmine.Diff{}}
		s.ledgers[key] = e
	}
	s.ledgerMu.Unlock()

	// The first subscriber pays the initial full build; later ones refresh
	// to the current version only if an ingest slipped past the background
	// loop (usually a no-op).
	if err := s.refreshLedger(ctx, e, d, nil); err != nil {
		return nil, err
	}
	snap, ok := e.led.SnapshotDiff()
	if !ok {
		return nil, fmt.Errorf("server: ledger for %q not built", req.Dataset)
	}
	ch := make(chan incmine.Diff, subscriberBuffer)
	ch <- snap
	e.mu.Lock()
	id := e.nextSub
	e.nextSub++
	e.subs[id] = ch
	e.mu.Unlock()
	s.subscribers.Add(1)
	cancel := func() {
		e.mu.Lock()
		c, live := e.subs[id]
		if live {
			delete(e.subs, id)
			close(c)
		}
		e.mu.Unlock()
		if live {
			s.subscribers.Add(-1)
		}
	}
	return &Subscription{C: ch, Cancel: cancel}, nil
}

// notifyIngest kicks the background refresh of every ledger registered on
// the ingested dataset. t0 is the ingest's arrival time — the start of the
// ingest→notify latency the refresh observes when its diff goes out.
func (s *Server) notifyIngest(name string, t0 time.Time) {
	s.ledgerMu.Lock()
	var kicked []*ledgerEntry
	for _, e := range s.ledgers {
		if e.dataset == name {
			kicked = append(kicked, e)
		}
	}
	s.ledgerMu.Unlock()
	for _, e := range kicked {
		s.kickLedger(e, t0)
	}
}

// kickLedger queues one refresh for the entry, starting the coalescing
// goroutine if none is running.
func (s *Server) kickLedger(e *ledgerEntry, t0 time.Time) {
	e.mu.Lock()
	e.pending = append(e.pending, t0)
	if e.running {
		e.dirty = true
		e.mu.Unlock()
		return
	}
	e.running = true
	e.mu.Unlock()
	go s.refreshLoop(e)
}

// refreshLoop drains an entry's queued refreshes, coalescing ingests that
// land mid-refresh into one more pass, then exits.
func (s *Server) refreshLoop(e *ledgerEntry) {
	for {
		e.mu.Lock()
		pending := e.pending
		e.pending = nil
		e.dirty = false
		e.mu.Unlock()
		if d, ok := s.reg.get(e.dataset); ok {
			// Off the request path: errors surface via incremental metrics
			// only; the next ingest (or subscriber) retries.
			_ = s.refreshLedger(context.Background(), e, d, pending)
		}
		e.mu.Lock()
		if !e.dirty && len(e.pending) == 0 {
			e.running = false
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
	}
}

// refreshLedger updates one ledger to the dataset's current snapshot,
// broadcasts the diff, stores the refreshed result set in the cache (the
// HTAP dividend: a /mine racing the stream is answered from the refresh)
// and observes the pending ingest→notify latencies.
func (s *Server) refreshLedger(ctx context.Context, e *ledgerEntry, d *dsEntry, pending []time.Time) error {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	if s.cfg.Telemetry != nil && telemetry.SpanFromContext(ctx) == nil {
		tr := s.cfg.Telemetry.StartTrace("incremental refresh " + e.dataset)
		defer tr.Finish()
		ctx = telemetry.ContextWithSpan(ctx, tr.Root())
	}
	observe := func() {
		for _, t0 := range pending {
			s.histNotify.Observe(time.Since(t0).Seconds())
		}
	}
	snap := d.ledgerSnapshot()
	up, err := e.led.Update(ctx, snap)
	if err != nil {
		return err
	}
	if up == nil {
		// Already current — a concurrent refresh covered these ingests.
		observe()
		return nil
	}
	s.incUpdates.Add(1)
	if up.Fallback {
		s.incFallbacks.Add(1)
	}
	if s.cache != nil {
		s.cache.store(cacheQuery{
			dataset:   e.dataset,
			version:   snap.Version,
			algorithm: e.led.Algorithm(),
			semantics: e.sem,
			th:        e.led.Thresholds(),
			n:         up.Results.N,
		}, up.Results, cacheSourceLedger)
	}
	e.mu.Lock()
	var dropped []chan incmine.Diff
	for id, ch := range e.subs {
		select {
		case ch <- up.Diff:
		default:
			// The consumer lagged a full buffer behind: drop it rather than
			// stalling the broadcast. Cancel observes the removal and no-ops.
			delete(e.subs, id)
			dropped = append(dropped, ch)
		}
	}
	e.mu.Unlock()
	for _, ch := range dropped {
		close(ch)
		s.subscribers.Add(-1)
	}
	observe()
	return nil
}

// ledgerEntries snapshots the registered ledgers.
func (s *Server) ledgerEntries() []*ledgerEntry {
	s.ledgerMu.Lock()
	defer s.ledgerMu.Unlock()
	out := make([]*ledgerEntry, 0, len(s.ledgers))
	for _, e := range s.ledgers {
		out = append(out, e)
	}
	return out
}

// borderItemsets sums the ledgers' tracked-below-cutoff band sizes (the
// umine_incremental_border_itemsets gauge).
func (s *Server) borderItemsets() int {
	total := 0
	for _, e := range s.ledgerEntries() {
		total += e.led.Stats().Border
	}
	return total
}

// handleSubscribe serves GET /subscribe: an SSE stream of result-set diffs
// for one continuous query, named by the query string queryRequest parses
// (the same as GET /explain); its dataset, algorithm, thresholds and
// workers make the SubscribeRequest.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	req, err := queryRequest(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	sub, err := s.Subscribe(r.Context(), SubscribeRequest{Dataset: req.Dataset, Algorithm: req.Algorithm, Thresholds: req.Thresholds, Workers: req.Workers})
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	defer sub.Cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case diff, ok := <-sub.C:
			if !ok {
				return
			}
			b, err := json.Marshal(diff)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", b)
			fl.Flush()
		}
	}
}

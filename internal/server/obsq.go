package server

import (
	"context"

	"umine/internal/obsq"
	"umine/internal/telemetry"
)

// The server side of query-level observability (umine/internal/obsq):
// Explain runs one query and renders the executed plan from the mine's
// checkpoint collector.

// Explain answers req exactly as Mine would — same cache, coalescing,
// backend selection, and bit-identical results — while collecting the
// executed plan and its cost breakdown. The extra cost is one progress
// observer and one span walk; the mined bits cannot differ from a plain
// Mine.
func (s *Server) Explain(ctx context.Context, req MineRequest) (*obsq.Explanation, error) {
	exec := &execRecord{}
	req.exec = exec

	span := telemetry.SpanFromContext(ctx)
	var tr *telemetry.Trace
	if span == nil && s.cfg.Telemetry != nil {
		tr = s.cfg.Telemetry.StartTrace("explain " + req.Dataset)
		span = tr.Root()
		ctx = telemetry.ContextWithSpan(ctx, span)
	}
	if tr != nil {
		defer tr.Finish()
	}

	// Sample the transport's payload counters around the run; the deltas
	// are this query's wire traffic (plus any concurrent neighbours' — the
	// counters are pool-wide).
	var push0, mine0 int64
	if p := s.cfg.ShardPool; p != nil {
		push0, mine0 = p.BytesPushed(), p.BytesMineRequests()
	}

	resp, err := s.Mine(ctx, req)
	if err != nil {
		return nil, err
	}

	ex := &obsq.Explanation{
		Dataset:    req.Dataset,
		Version:    resp.DatasetVersion,
		Algorithm:  req.Algorithm,
		Semantics:  resp.Results.Semantics.String(),
		Thresholds: req.Thresholds,
		Workers:    s.workers(req.Workers),
		Backend:    exec.backend,
		Path:       servePath(resp.Cache, exec.source),
		Shards:     exec.shards,
		Itemsets:   len(resp.Results.Results),
		ElapsedMS:  float64(resp.Elapsed.Nanoseconds()) / 1e6,
		TraceID:    span.TraceID(),
	}
	exec.col.Fill(ex)
	if ex.Backend == "" {
		// Nothing executed: the cache (or a coalesced neighbour) answered.
		ex.Backend = "cache"
	}
	if p := s.cfg.ShardPool; p != nil {
		ex.BytesPushed = p.BytesPushed() - push0
		ex.BytesMineRequests = p.BytesMineRequests() - mine0
	}
	if span != nil {
		ex.ShardAttempts = obsq.ShardAttemptsFromSpan(span.Snapshot())
	}
	return ex, nil
}

package server

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"umine/internal/obsq"
	"umine/internal/telemetry"
)

// The server side of query-level observability (umine/internal/obsq):
// Explain runs one query and renders the executed plan from the mine's
// checkpoint collector; the dashboard assembles every live surface into one
// page.

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

// WorkloadProfile snapshots the rolling workload profile (the
// /debug/workload document).
func (s *Server) WorkloadProfile() obsq.WorkloadProfile {
	return s.workload.Snapshot()
}

// dashboardData assembles the /debug/dashboard snapshot from every live
// surface: SLO burn, the workload profile, and the /stats counters broken
// into sections.
func (s *Server) dashboardData() obsq.DashboardData {
	st := s.Stats()
	sloRow := func(route string, slo *obsq.SLO) obsq.DashboardSLO {
		g5, t5 := slo.Window(obsq.SLOWindowShort)
		return obsq.DashboardSLO{
			Route:     route,
			TargetMS:  float64(slo.Target().Nanoseconds()) / 1e6,
			Objective: slo.Objective(),
			Burn5m:    slo.BurnRate(obsq.SLOWindowShort),
			Burn1h:    slo.BurnRate(obsq.SLOWindowLong),
			Good5m:    g5,
			Total5m:   t5,
		}
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	sections := []obsq.DashboardSection{
		{Title: "service", Rows: [][2]string{
			{"uptime", fmt.Sprintf("%.0fs", st.UptimeSeconds)},
			{"datasets", strconv.Itoa(st.Datasets)},
			{"requests", u(st.Requests)},
			{"errors", u(st.Errors)},
			{"canceled", u(st.Canceled)},
			{"in flight", strconv.FormatInt(st.InFlight, 10)},
			{"bytes resident", strconv.FormatInt(st.BytesResident, 10)},
		}},
		{Title: "cache", Rows: [][2]string{
			{"hits", u(st.CacheHits)},
			{"filtered", u(st.CacheFiltered)},
			{"misses", u(st.CacheMisses)},
			{"coalesced", u(st.Coalesced)},
			{"bypassed", u(st.Uncached)},
			{"entries", strconv.Itoa(st.CacheEntries)},
		}},
		{Title: "shards", Rows: [][2]string{
			{"sharded mines", u(st.ShardedMines)},
			{"partitions mined", u(st.PartitionsMined)},
			{"phase-2 candidates", u(st.Phase2Candidates)},
			{"remote shards", strconv.Itoa(st.RemoteShards)},
			{"retries", u(st.ShardRetries)},
			{"hedges", u(st.ShardHedges)},
			{"failovers", u(st.ShardFailovers)},
			{"repushes", u(st.ShardRepushes)},
		}},
		{Title: "ledger", Rows: [][2]string{
			{"ledgers", strconv.Itoa(st.Ledgers)},
			{"subscribers", strconv.FormatInt(st.Subscribers, 10)},
			{"incremental updates", u(st.IncrementalUpdates)},
			{"fallbacks", u(st.IncrementalFallbacks)},
		}},
	}
	if p := s.cfg.ShardPool; p != nil {
		sections[2].Rows = append(sections[2].Rows,
			[2]string{"bytes pushed", strconv.FormatInt(p.BytesPushed(), 10)},
			[2]string{"bytes mine requests", strconv.FormatInt(p.BytesMineRequests(), 10)})
	}
	return obsq.DashboardData{
		Service:        "umine",
		GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
		RefreshSeconds: 2,
		SLOs:           []obsq.DashboardSLO{sloRow("mine", s.sloMine), sloRow("ingest", s.sloIngest)},
		Workload:       s.workload.Snapshot(),
		Sections:       sections,
	}
}

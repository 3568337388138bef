package umine

// The serving layer: a long-running concurrent mining service over the
// batch platform (umine/internal/server). Datasets are registered once and
// shared read-only across requests; a monotonicity-aware result cache
// answers higher-threshold queries by filtering cached lower-threshold
// results; identical concurrent queries coalesce into one mining job; and
// Handler exposes the whole thing as HTTP/JSON (the cmd/userve binary is a
// thin wrapper around it).

import (
	"umine/internal/incmine"
	"umine/internal/server"
	"umine/internal/shardrpc"
	"umine/internal/telemetry"
)

// Server-layer types, re-exported.
type (
	// Server is an embeddable concurrent mining service.
	Server = server.Server
	// ServerConfig parameterizes NewServer.
	ServerConfig = server.Config
	// MineRequest is one query against a registered dataset.
	MineRequest = server.MineRequest
	// MineResponse is a query outcome with cache/version metadata.
	MineResponse = server.MineResponse
	// RegisterOptions controls dataset registration (windowed retention).
	RegisterOptions = server.RegisterOptions
	// WindowOptions configures sliding-window retention for a dataset.
	WindowOptions = server.WindowOptions
	// DatasetInfo describes one registered dataset.
	DatasetInfo = server.DatasetInfo
	// IngestResult reports one ingest call.
	IngestResult = server.IngestResult
	// ServerStats is a snapshot of the service counters.
	ServerStats = server.Stats
	// SubscribeRequest registers a continuous query on a dataset.
	SubscribeRequest = server.SubscribeRequest
	// Subscription is one live continuous query's diff stream.
	Subscription = server.Subscription
	// ResultDiff is one result-set transition streamed to subscribers:
	// itemsets entering/leaving the maintained result set and bit-level
	// support changes.
	ResultDiff = incmine.Diff
	// ShardBackend mines one shard during phase 1 of a scatter-gather
	// /mine over RPC (ShardPool implements it through its Backend views);
	// without a pool, shards are the partition engine's in-process slices.
	ShardBackend = server.ShardBackend
	// ShardPool is the client side of the process-per-shard RPC backend:
	// a fixed set of shard servers (cmd/ushard) plus the retry / hedging /
	// failover policy. Wire one into ServerConfig.ShardPool.
	ShardPool = shardrpc.Pool
	// ShardPoolConfig parameterizes NewShardPool.
	ShardPoolConfig = shardrpc.PoolConfig
	// ShardTuning bounds the shard RPC robustness machinery (per-attempt
	// timeouts, retries, hedging).
	ShardTuning = shardrpc.Tuning
	// ShardServer hosts dataset slices and answers phase-1 mines — the
	// in-process core of the cmd/ushard binary.
	ShardServer = shardrpc.ShardServer
	// ShardServerConfig parameterizes NewShardServer.
	ShardServerConfig = shardrpc.ShardConfig
	// TelemetryHub collects a process's traces and metrics: wire one into
	// ServerConfig.Telemetry or ShardServerConfig.Telemetry and the
	// handler grows /metrics (Prometheus text format) and /debug/traces
	// (bounded ring of recent request traces).
	TelemetryHub = telemetry.Hub
	// TelemetryConfig parameterizes NewTelemetryHub (trace-ring capacity,
	// slow-request log).
	TelemetryConfig = telemetry.HubConfig
	// TraceData is one completed trace: ID, duration, and span tree.
	TraceData = telemetry.TraceData
	// SpanData is one span subtree inside a TraceData.
	SpanData = telemetry.SpanData
)

// NewServer constructs a mining service. The zero ServerConfig is a usable
// default (cache on, in-flight mining bounded at 2 × GOMAXPROCS).
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// NewShardPool validates the shard address list and builds the RPC shard
// pool backing ServerConfig.ShardPool.
func NewShardPool(cfg ShardPoolConfig) (*ShardPool, error) {
	return shardrpc.NewPool(cfg)
}

// NewShardServer constructs an empty shard server (slices arrive over
// /push); serve its Handler over HTTP to host shards.
func NewShardServer(cfg ShardServerConfig) *ShardServer {
	return shardrpc.NewShardServer(cfg)
}

// NewTelemetryHub builds a telemetry hub: a metrics registry plus a
// bounded ring of completed request traces and an optional slow-request
// log. The zero TelemetryConfig retains the default number of traces and
// logs nothing.
func NewTelemetryHub(cfg TelemetryConfig) *TelemetryHub {
	return telemetry.NewHub(cfg)
}

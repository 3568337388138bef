// Command userve runs the uncertain-frequent-itemset mining service: a
// long-lived HTTP server over the platform's dataset registry, result cache
// and bounded parallel mining pool (see umine/internal/server).
//
// Serve mode (-shards K preloads datasets for scatter-gather mining):
//
//	userve -addr :8380 -preload gazelle:0.02 -shards 4
//	curl -s localhost:8380/healthz
//	curl -s -X POST localhost:8380/mine -d '{"dataset":"gazelle","algorithm":"UApriori","min_esup":0.005}'
//
// Load benchmarks live in perfbench/ (see perfbench/README.md and
// BENCHMARK.json), which drives the same server package over loopback HTTP.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	pprofhttp "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"umine"
	"umine/internal/telemetry"
)

// logger is the process-wide structured logger (JSON lines on stderr).
// The info-level default keeps helpers usable from tests; main replaces
// it with the -loglevel setting before serving.
var logger = telemetry.NewLogger(os.Stderr, "userve", slog.LevelInfo)

func main() {
	var (
		addr         = flag.String("addr", ":8380", "listen address")
		workers      = flag.Int("workers", 0, "default per-request mining parallelism (0/1 = serial, -1 = all CPUs)")
		maxInflight  = flag.Int("max_inflight", 0, "max concurrent mining jobs (0 = 2×GOMAXPROCS, negative = unbounded)")
		cacheEntries = flag.Int("cache", 0, "result-cache capacity in entries (0 = default 256, negative = disabled)")
		timeout      = flag.Duration("timeout", 0, "default per-request timeout (0 = none)")
		preload      = flag.String("preload", "", "comma-separated profiles to register at boot: name[:scale[:seed]] (e.g. gazelle:0.02,connect:0.002)")
		window       = flag.Int("window", 0, "sliding-window retention (in transactions) for preloaded datasets (0 = unbounded)")
		shards       = flag.String("shards", "", "scatter-gather sharding for preloaded datasets: an integer K mines across K in-process sub-shards; a comma-separated host:port list runs phase 1 on those ushard processes (one shard per address) — either way bit-identical to an unsharded mine (empty/0/1 = unsharded)")
		shardTimeout = flag.Duration("shard_timeout", 0, "per-attempt shard RPC timeout (0 = default 60s)")
		shardRetries = flag.Int("shard_retries", 0, "shard RPC retries per request (0 = default 2, negative = none)")
		shardHedge   = flag.Duration("shard_hedge", 0, "hedge a straggling shard RPC after this delay (0 = disabled)")
		traceRing    = flag.Int("traces", 0, "completed traces retained at /debug/traces (0 = default 128, negative = none)")
		slowlog      = flag.Duration("slowlog", 0, "log any mine exceeding this duration as one JSON line with its span breakdown (0 = disabled)")
		loglevel     = flag.String("loglevel", "info", "minimum log level: debug, info, warn, error")
		pprof        = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	level, err := telemetry.ParseLogLevel(*loglevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "userve:", err)
		os.Exit(1)
	}
	logger = telemetry.NewLogger(os.Stderr, "userve", level)

	shardCount, shardAddrs, err := parseShards(*shards)
	if err != nil {
		fatal(err)
	}
	cfg := umine.ServerConfig{
		DefaultWorkers: *workers,
		MaxInFlight:    *maxInflight,
		DefaultTimeout: *timeout,
		CacheEntries:   *cacheEntries,
		Telemetry: umine.NewTelemetryHub(umine.TelemetryConfig{
			TraceCapacity:    *traceRing,
			SlowLogThreshold: *slowlog,
			SlowLogger:       logger,
		}),
	}
	if len(shardAddrs) > 0 {
		pool, err := umine.NewShardPool(umine.ShardPoolConfig{
			Addrs: shardAddrs,
			Tuning: umine.ShardTuning{
				RequestTimeout: *shardTimeout,
				MaxRetries:     *shardRetries,
				HedgeAfter:     *shardHedge,
			},
		})
		if err != nil {
			fatal(err)
		}
		cfg.ShardPool = pool
		cfg.ShardProgress = logShardEvents
		logger.Info("shard pool connected", "addrs", strings.Join(pool.Addrs(), ","))
	}
	srv := umine.NewServer(cfg)
	if err := preloadProfiles(srv, *preload, *window, shardCount); err != nil {
		fatal(err)
	}

	// baseCtx parents every request context: canceling it aborts all
	// in-flight mines at their next cooperative checkpoint — the hard stop
	// behind the graceful drain below.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	hs := &http.Server{
		Addr:        *addr,
		Handler:     withPprof(srv.Handler(), *pprof),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			// The grace period expired with mines still running: cancel
			// their contexts so they abort within one chunk/candidate of
			// work rather than being killed mid-write by process exit,
			// then wait (bounded) for the in-flight count to drain before
			// letting the process exit.
			logger.Warn("drain timed out; canceling in-flight mining")
			cancelBase()
			deadline := time.Now().Add(2 * time.Second)
			for srv.Stats().InFlight > 0 && time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
			}
			hs.Close()
		}
	}()

	logger.Info("listening", "addr", *addr, "datasets", len(srv.Datasets()))
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	// Shutdown makes ListenAndServe return immediately; wait for the drain
	// (bounded by the 5s grace period) before exiting.
	<-drained
}

// withPprof overlays net/http/pprof's handlers on the service mux when
// enabled (the import is gated here so the profiling surface is opt-in,
// never ambiently exposed).
func withPprof(h http.Handler, enabled bool) http.Handler {
	if !enabled {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprofhttp.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprofhttp.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprofhttp.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprofhttp.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprofhttp.Trace)
	mux.Handle("/", h)
	return mux
}

// parseShards interprets the -shards flag: empty means unsharded, a bare
// integer K means K in-process sub-shards, and anything else is a
// comma-separated shard-server address list (one shard per address).
func parseShards(spec string) (count int, addrs []string, err error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return 0, nil, nil
	}
	if k, perr := strconv.Atoi(spec); perr == nil {
		if k < 0 {
			return 0, nil, fmt.Errorf("userve: -shards %d must be non-negative", k)
		}
		return k, nil, nil
	}
	for _, a := range strings.Split(spec, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return 0, nil, fmt.Errorf("userve: empty address in -shards %q", spec)
		}
		addrs = append(addrs, a)
	}
	return len(addrs), addrs, nil
}

// logShardEvents surfaces the RPC backend's robustness events on stderr
// (the /stats counters carry the totals; this is the per-event trace).
func logShardEvents(ev umine.ProgressEvent) {
	switch ev.Phase {
	case umine.PhaseShardRetry, umine.PhaseShardHedge, umine.PhaseShardFailover, umine.PhaseShardRepush:
		logger.Warn("shard event", "kind", string(ev.Phase), "shard", ev.Level, "algo", ev.Algorithm)
	}
}

// preloadProfiles registers each name[:scale[:seed]] spec as a dataset under
// its profile name.
func preloadProfiles(srv *umine.Server, specs string, window, shards int) error {
	if specs == "" {
		return nil
	}
	for _, spec := range strings.Split(specs, ",") {
		parts := strings.Split(strings.TrimSpace(spec), ":")
		name := parts[0]
		scale, seed := 0.01, int64(42)
		var err error
		if len(parts) > 1 {
			if scale, err = strconv.ParseFloat(parts[1], 64); err != nil {
				return fmt.Errorf("userve: bad scale in -preload spec %q", spec)
			}
		}
		if len(parts) > 2 {
			if seed, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
				return fmt.Errorf("userve: bad seed in -preload spec %q", spec)
			}
		}
		opts := umine.RegisterOptions{Shards: shards}
		if window > 0 {
			opts.Window = &umine.WindowOptions{Size: window}
		}
		info, err := srv.RegisterProfile(name, name, scale, seed, opts)
		if err != nil {
			return err
		}
		logger.Info("preloaded dataset", "dataset", info.Name, "transactions", info.NumTrans, "items", info.NumItems)
	}
	return nil
}

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

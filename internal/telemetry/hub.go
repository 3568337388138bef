package telemetry

// Hub: what a server process keeps — its metrics registry plus a bounded
// ring of the last N completed traces and an optional slow-request log.

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// HubConfig tunes a Hub. The zero value is usable: default trace capacity,
// no slow log.
type HubConfig struct {
	// TraceCapacity bounds the completed-trace ring (/debug/traces).
	// 0 means DefaultTraceCapacity; negative disables retention.
	TraceCapacity int
	// SlowLogThreshold, when > 0, logs any trace whose total duration
	// meets or exceeds it through SlowLogger.
	SlowLogThreshold time.Duration
	// SlowLogger receives slow traces as structured records with the
	// platform's shared keys (trace_id, dataset, algo, threshold) plus the
	// span tree (default: nil, nothing is logged).
	SlowLogger *slog.Logger
}

// DefaultTraceCapacity is the trace-ring size when HubConfig leaves it 0.
const DefaultTraceCapacity = 128

// Hub bundles a process's metrics registry with trace retention. All
// methods are safe for concurrent use; a nil *Hub is a valid no-op
// collector (StartTrace on it still returns a working hubless trace).
type Hub struct {
	// Metrics is the process's metric registry, served by MetricsHandler.
	Metrics *Registry

	capacity   int
	slowThr    time.Duration
	slowLogger *slog.Logger

	mu     sync.Mutex
	ring   []TraceData // circular, oldest at next
	next   int
	filled bool
}

// NewHub builds a Hub with a fresh Registry.
func NewHub(cfg HubConfig) *Hub {
	capacity := cfg.TraceCapacity
	if capacity == 0 {
		capacity = DefaultTraceCapacity
	}
	if capacity < 0 {
		capacity = 0
	}
	h := &Hub{
		Metrics:    NewRegistry(),
		capacity:   capacity,
		slowThr:    cfg.SlowLogThreshold,
		slowLogger: cfg.SlowLogger,
	}
	if capacity > 0 {
		h.ring = make([]TraceData, capacity)
	}
	return h
}

// StartTrace starts a trace with a fresh ID, recorded into this hub on
// Finish. Safe on a nil hub (the trace is simply not retained).
func (h *Hub) StartTrace(name string) *Trace { return newTrace("", name, h) }

// StartTraceID starts a trace adopting a wire-propagated ID (a shard
// stitching into the coordinator's trace); "" generates a fresh one.
func (h *Hub) StartTraceID(id, name string) *Trace { return newTrace(id, name, h) }

// record stores a completed trace in the ring and logs it as slow when it
// crossed the threshold. Called from Trace.Finish.
func (h *Hub) record(td TraceData) {
	if h == nil {
		return
	}
	if h.slowThr > 0 && h.slowLogger != nil && td.DurationMS >= durationMS(h.slowThr) {
		attrs := []slog.Attr{
			slog.String("trace_id", td.TraceID),
			slog.String("name", td.Name),
			slog.Float64("duration_ms", td.DurationMS),
			slog.Int("spans", td.Root.SpanCount()),
		}
		// The platform's shared keys, when the root span carries them
		// (mine traces do; shard /push traces carry only the dataset).
		for _, kv := range [...][2]string{
			{"dataset", "dataset"}, {"algo", "algorithm"}, {"threshold", "threshold"},
		} {
			if v := td.Root.Attrs[kv[1]]; v != "" {
				attrs = append(attrs, slog.String(kv[0], v))
			}
		}
		attrs = append(attrs, slog.Any("root", td.Root))
		h.slowLogger.LogAttrs(context.Background(), slog.LevelWarn, "slow trace", attrs...)
	}
	if h.capacity == 0 {
		return
	}
	h.mu.Lock()
	h.ring[h.next] = td
	h.next++
	if h.next == h.capacity {
		h.next = 0
		h.filled = true
	}
	h.mu.Unlock()
}

// Traces returns the retained traces, most recent first.
func (h *Hub) Traces() []TraceData {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.next
	if h.filled {
		n = h.capacity
	}
	out := make([]TraceData, 0, n)
	for i := 1; i <= n; i++ {
		// Walk backwards from the most recently written slot.
		out = append(out, h.ring[(h.next-i+h.capacity)%h.capacity])
	}
	return out
}

// Trace returns the retained trace with the given ID.
func (h *Hub) Trace(id string) (TraceData, bool) {
	for _, td := range h.Traces() {
		if td.TraceID == id {
			return td, true
		}
	}
	return TraceData{}, false
}

// traceSummary is the /debug/traces list entry: everything but the tree.
type traceSummary struct {
	TraceID    string    `json:"trace_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
}

// TracesHandler serves the retained-trace ring:
//
//	GET /debug/traces        — JSON list of trace summaries, newest first
//	GET /debug/traces/{id}   — one full trace with its span tree
func (h *Hub) TracesHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		traces := h.Traces()
		out := make([]traceSummary, len(traces))
		for i, td := range traces {
			out[i] = traceSummary{
				TraceID:    td.TraceID,
				Name:       td.Name,
				Start:      td.Start,
				DurationMS: td.DurationMS,
				Spans:      td.Root.SpanCount(),
			}
		}
		writeTraceJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		td, ok := h.Trace(r.PathValue("id"))
		if !ok {
			writeTraceJSON(w, http.StatusNotFound, map[string]string{"error": "trace not retained"})
			return
		}
		writeTraceJSON(w, http.StatusOK, td)
	})
	return mux
}

// MetricsHandler serves the hub's registry ( /metrics ); a convenience so
// callers mount one object.
func (h *Hub) MetricsHandler() http.Handler { return h.Metrics.Handler() }

func writeTraceJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

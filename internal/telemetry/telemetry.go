// Package telemetry is the platform's zero-dependency tracing and metrics
// layer: every served request (and, with -trace, every CLI mine) gets a
// trace — a tree of timed spans — and every process exposes a
// Prometheus-text-format /metrics surface, all with nothing beyond the
// standard library.
//
// The paper's platform reports aggregate counters after a run completes;
// PR 3's core.Progress stream made runs watchable and PR 6 made them
// distributed. What was still missing is the per-request story: where one
// slow /mine on a cluster spent its time. Package telemetry answers that
// with three pieces:
//
//   - Tracing (span.go): a Trace owns a tree of Spans. Spans are created
//     explicitly (Span.StartChild) or propagated through a context
//     (ContextWithSpan / StartSpan), so instrumentation composes across
//     package boundaries: the serving layer opens the request trace, the
//     partition engine nests its phase-1/merge/phase-2 spans under it, and
//     the shardrpc backend nests one span per shard attempt (retries,
//     hedges, failovers, re-pushes included). The trace ID crosses the
//     shard wire (header + request field) and the shard's own spans come
//     back in the RPC response, stitched into the coordinator's tree with
//     Span.Attach.
//
//   - Span/Progress relationship: miners do not know about spans — they
//     emit core.ProgressEvents at their cooperative checkpoints, exactly
//     as before. obsq.Collector, the one observer that times those
//     checkpoints, records each as a completed child span (Span.Record)
//     of the span it was given, over the same interval as its /explain
//     step, so every miner's level/subtree/partition structure shows up
//     in traces without touching miner code. Explicit spans and
//     Progress-fed spans coexist in one tree.
//
//   - Metrics (metrics.go): a Registry of counters, gauges and fixed-bucket
//     histograms with atomic hot paths, rendered in the Prometheus text
//     exposition format (version 0.0.4). Counters and gauges are usually
//     func-backed views over counters a server already keeps, so nothing
//     is double-counted.
//
//   - Retention (hub.go): a Hub bundles a Registry with a bounded ring of
//     the last N completed traces (served at /debug/traces) and an
//     optional slow-request log — one structured JSON line, span breakdown
//     included, for any trace exceeding a threshold.
package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// NewTraceID returns a fresh 16-hex-character trace identifier.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to
		// a counter so tracing degrades instead of panicking.
		return fmt.Sprintf("%016x", fallbackID.Add(1))
	}
	return hex.EncodeToString(b[:])
}

var fallbackID atomic.Uint64

// Trace is one request's span tree under a single trace ID. Finish ends
// the root span and — when the trace was started from a Hub — records it
// in the hub's ring and slow log.
type Trace struct {
	id    string
	name  string
	start time.Time
	root  *Span
	hub   *Hub
	done  atomic.Bool
}

// NewTrace starts a hubless trace (CLI use: nothing is retained; the
// caller renders or discards the Finish snapshot itself).
func NewTrace(name string) *Trace { return newTrace("", name, nil) }

func newTrace(id, name string, hub *Hub) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	now := time.Now()
	t := &Trace{id: id, name: name, start: now, hub: hub}
	t.root = &Span{traceID: id, name: name, start: now}
	return t
}

// ID returns the trace identifier ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span; instrument by creating children of it (or by
// threading it through a context with ContextWithSpan). Nil on a nil trace
// — itself a valid no-op span, so callers never branch.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span, snapshots the tree, records it (ring + slow
// log) when the trace belongs to a Hub, and returns the snapshot. Calls
// after the first return the current snapshot without re-recording. A nil
// trace returns the zero TraceData.
func (t *Trace) Finish() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.root.End()
	td := TraceData{
		TraceID:    t.id,
		Name:       t.name,
		Start:      t.start,
		DurationMS: durationMS(t.root.duration()),
		Root:       t.root.Snapshot(),
	}
	if t.done.CompareAndSwap(false, true) && t.hub != nil {
		t.hub.record(td)
	}
	return td
}

// Span is one timed operation inside a trace. All methods are safe for
// concurrent use and safe on a nil receiver (they no-op), so
// instrumentation never needs enablement guards.
type Span struct {
	traceID string
	name    string
	start   time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    [][2]string
	children []*Span
	remote   []SpanData
}

// StartChild opens a child span. On a nil receiver it returns nil, which
// is itself a valid (no-op) span.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{traceID: s.traceID, name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Record appends an already-completed child span covering [start, end) —
// the shape Progress-fed checkpoint spans arrive in.
func (s *Span) Record(name string, start, end time.Time, attrs ...[2]string) {
	if s == nil {
		return
	}
	c := &Span{traceID: s.traceID, name: name, start: start, end: end, attrs: attrs}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End closes the span. The first call wins; later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr attaches (or overwrites) a key/value annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, kv := range s.attrs {
		if kv[0] == key {
			s.attrs[i][1] = value
			return
		}
	}
	s.attrs = append(s.attrs, [2]string{key, value})
}

// Attach stitches an externally produced span tree (a shard's wire-returned
// spans) under this span.
func (s *Span) Attach(sd SpanData) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.remote = append(s.remote, sd)
	s.mu.Unlock()
}

// TraceID returns the owning trace's ID ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// duration is the span's elapsed time — to its end when ended, to now when
// still open.
func (s *Span) duration() time.Duration {
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// Snapshot renders the span subtree as immutable SpanData. Open spans
// report their duration so far and carry an "unfinished" attribute.
func (s *Span) Snapshot() SpanData {
	if s == nil {
		return SpanData{}
	}
	s.mu.Lock()
	sd := SpanData{
		Name:          s.name,
		StartUnixNano: s.start.UnixNano(),
		DurationMS:    durationMS(s.duration2Locked()),
	}
	if len(s.attrs) > 0 {
		sd.Attrs = make(map[string]string, len(s.attrs))
		for _, kv := range s.attrs {
			sd.Attrs[kv[0]] = kv[1]
		}
	}
	if s.end.IsZero() {
		if sd.Attrs == nil {
			sd.Attrs = map[string]string{}
		}
		sd.Attrs["unfinished"] = "true"
	}
	children := append([]*Span(nil), s.children...)
	remote := append([]SpanData(nil), s.remote...)
	s.mu.Unlock()

	for _, c := range children {
		sd.Children = append(sd.Children, c.Snapshot())
	}
	sd.Children = append(sd.Children, remote...)
	// Stable presentation order: by start time (concurrent shard spans land
	// in completion order otherwise).
	sort.SliceStable(sd.Children, func(i, j int) bool {
		return sd.Children[i].StartUnixNano < sd.Children[j].StartUnixNano
	})
	return sd
}

// duration2Locked is duration with s.mu already held.
func (s *Span) duration2Locked() time.Duration {
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// SpanData is the immutable, wire- and JSON-serializable form of a span
// subtree: what /debug/traces serves, what shard RPC responses carry back
// to the coordinator, and what the slow log embeds.
type SpanData struct {
	Name          string            `json:"name"`
	StartUnixNano int64             `json:"start_unix_nano"`
	DurationMS    float64           `json:"duration_ms"`
	Attrs         map[string]string `json:"attrs,omitempty"`
	Children      []SpanData        `json:"children,omitempty"`
}

// Render writes the span tree as an indented list with durations — the
// umine/uexp -trace output.
func (sd SpanData) Render(w io.Writer) {
	sd.render(w, 0)
}

func (sd SpanData) render(w io.Writer, depth int) {
	var attrs string
	if len(sd.Attrs) > 0 {
		keys := make([]string, 0, len(sd.Attrs))
		for k := range sd.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + sd.Attrs[k]
		}
		attrs = "  {" + strings.Join(parts, " ") + "}"
	}
	fmt.Fprintf(w, "%s%-*s %10.3fms%s\n", strings.Repeat("  ", depth), 40-2*depth, sd.Name, sd.DurationMS, attrs)
	for _, c := range sd.Children {
		c.render(w, depth+1)
	}
}

// SpanCount returns the number of spans in the subtree (itself included).
func (sd SpanData) SpanCount() int {
	n := 1
	for _, c := range sd.Children {
		n += c.SpanCount()
	}
	return n
}

// Find returns the first span in the subtree (depth-first, itself included)
// whose name equals name, and whether one exists.
func (sd SpanData) Find(name string) (SpanData, bool) {
	if sd.Name == name {
		return sd, true
	}
	for _, c := range sd.Children {
		if hit, ok := c.Find(name); ok {
			return hit, true
		}
	}
	return SpanData{}, false
}

// TraceData is one completed trace: the /debug/traces detail document and
// the slow-log payload.
type TraceData struct {
	TraceID    string    `json:"trace_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Root       SpanData  `json:"root"`
}

func durationMS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// Context propagation: one span rides the context so instrumentation in
// lower layers (partition engine, shard backend) nests under the request
// trace without signature changes beyond the ctx they already take.

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the current span, or nil when ctx carries none
// (nil is a valid no-op span).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's current span and returns a
// context carrying the child. Without a current span it returns ctx
// unchanged and a nil (no-op) span — instrumented code never branches.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.StartChild(name)
	return ContextWithSpan(ctx, c), c
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/obsq"
	"umine/internal/telemetry"
)

// The HTTP/JSON surface. /mine responds with exactly the document
// core.ResultSet.WriteJSON produces — byte-identical to serializing a direct
// MineWith call — so existing downstream tooling (ReadResultsJSON, notebook
// loaders) consumes server responses unchanged; request metadata (cache
// outcome, dataset version, latency) travels in X-Umine-* headers instead of
// a response envelope.

// Header names carrying per-response metadata.
const (
	headerCache   = "X-Umine-Cache"
	headerVersion = "X-Umine-Dataset-Version"
	headerElapsed = "X-Umine-Elapsed"
	headerTraceID = "X-Umine-Trace-Id"
)

// maxRequestBytes caps every POST body before decoding, so one oversized
// inline dataset or ingest batch cannot buffer the server into OOM. 64 MB
// comfortably fits the biggest Table 6 profile in text form.
const maxRequestBytes = 64 << 20

// decodeJSON decodes a size-capped request body into v, writing the error
// response (413 for oversize, 400 otherwise) itself when it fails. strict
// rejects fields v does not declare, naming the first one in the 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any, strict bool) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// Handler returns the server's HTTP surface:
//
//	GET  /healthz   liveness
//	GET  /stats     counters (requests, cache hits/filters/misses, ...)
//	GET  /datasets  registered datasets
//	POST /datasets  register {"name", "profile","scale","seed"} or {"name","text"}
//	POST /ingest    {"dataset", "transactions": ["item:prob item:prob", ...]}
//	POST /mine      {"dataset","algorithm","min_esup","min_sup","pft",...}
//	GET  /explain   ?dataset=&algo=&threshold= — executed plan + cost breakdown
//	POST /explain   same body as /mine, same answer as GET /explain
//	GET  /subscribe SSE diff stream for ?dataset=&algo=&threshold= (subscribe.go)
//	GET  /debug/workload   rolling workload profile (rates, quantiles, hit ratios)
//	GET  /debug/dashboard  live HTML dashboard (SLO burn, workload, shards, ledger)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /datasets", s.handleListDatasets)
	mux.HandleFunc("POST /datasets", s.handleRegisterDataset)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /mine", s.handleMine)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("GET /subscribe", s.handleSubscribe)
	mux.HandleFunc("GET /debug/workload", s.handleWorkload)
	mux.HandleFunc("GET /debug/dashboard", s.handleDashboard)
	if hub := s.cfg.Telemetry; hub != nil {
		mux.Handle("GET /metrics", hub.MetricsHandler())
		mux.Handle("GET /debug/traces", hub.TracesHandler())
		mux.Handle("GET /debug/traces/{id}", hub.TracesHandler())
	}
	return mux
}

// startTrace opens a request trace (nil without a telemetry hub — every
// downstream span call no-ops), announcing its ID in the response headers
// so a slow request can be joined to its /debug/traces entry.
func (s *Server) startTrace(w http.ResponseWriter, name string) *telemetry.Trace {
	if s.cfg.Telemetry == nil {
		return nil
	}
	tr := s.cfg.Telemetry.StartTrace(name)
	w.Header().Set(headerTraceID, tr.ID())
	return tr
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.Datasets()})
}

// registerRequest is the POST /datasets body. Exactly one of Profile or Text
// must be set.
type registerRequest struct {
	Name string `json:"name"`
	// Profile generates a Table 6 benchmark profile at Scale (default 0.01)
	// with Seed.
	Profile string  `json:"profile,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// Text is an inline database in the item:prob format (one transaction
	// per line).
	Text string `json:"text,omitempty"`
	// Shards > 1 registers the dataset for scatter-gather mining: /mine
	// runs the SON two-phase decomposition across this many sub-shards,
	// bit-identical to an unsharded mine (see RegisterOptions.Shards).
	Shards int `json:"shards,omitempty"`
	// WindowSize > 0 bounds retention to a sliding window of that many
	// transactions; a negative size is rejected.
	WindowSize int `json:"window_size,omitempty"`
}

func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	// Unknown fields are rejected so a misspelt or retired option fails
	// loudly instead of registering a dataset that silently ignores it.
	var req registerRequest
	if !decodeJSON(w, r, &req, true) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing dataset name"))
		return
	}
	opts := RegisterOptions{Shards: req.Shards}
	if req.WindowSize != 0 {
		// RegisterDatabase rejects a non-positive size with a 400.
		opts.Window = &WindowOptions{Size: req.WindowSize}
	}
	var (
		info DatasetInfo
		err  error
	)
	switch {
	case req.Profile != "" && req.Text != "":
		writeError(w, http.StatusBadRequest, fmt.Errorf("profile and text are mutually exclusive"))
		return
	case req.Profile != "":
		scale := req.Scale
		if scale == 0 {
			scale = 0.01
		}
		info, err = s.RegisterProfile(req.Name, req.Profile, scale, req.Seed, opts)
	case req.Text != "":
		info, err = s.RegisterUncertain(req.Name, strings.NewReader(req.Text), opts)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("need profile or text"))
		return
	}
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// ingestRequest is the POST /ingest body; transactions are item:prob lines.
// The whole array is applied under one snapshot swap — one version bump,
// one cache invalidation, one refresh kick — regardless of batch size. A
// missing or empty array is a 400, so a body in any other shape is never
// acknowledged as a successful no-op.
type ingestRequest struct {
	Dataset      string   `json:"dataset"`
	Transactions []string `json:"transactions"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	tr := s.startTrace(w, "POST /ingest")
	defer tr.Finish()
	t0 := time.Now()
	var req ingestRequest
	if !decodeJSON(w, r, &req, false) {
		return
	}
	if len(req.Transactions) == 0 {
		writeError(w, http.StatusBadRequest, errors.New(`ingest body needs a non-empty "transactions" array`))
		return
	}
	raw, err := parseTransactionLines(req.Transactions)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tr.Root().Record("parse", t0, time.Now(),
		[2]string{"transactions", strconv.Itoa(len(raw))})
	ctx := telemetry.ContextWithSpan(r.Context(), tr.Root())
	res, err := s.Ingest(ctx, req.Dataset, raw)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// mineRequestJSON is the POST /mine (and POST /explain) body.
type mineRequestJSON struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`
	core.Thresholds
	Workers   int  `json:"workers,omitempty"`
	TimeoutMS int  `json:"timeout_ms,omitempty"`
	NoCache   bool `json:"no_cache,omitempty"`
}

// request converts the body into the query it asks for.
func (b mineRequestJSON) request() MineRequest {
	return MineRequest{
		Dataset:    b.Dataset,
		Algorithm:  b.Algorithm,
		Thresholds: b.Thresholds,
		Workers:    b.Workers,
		Timeout:    time.Duration(b.TimeoutMS) * time.Millisecond,
		NoCache:    b.NoCache,
	}
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	tr := s.startTrace(w, "POST /mine")
	defer tr.Finish()
	t0 := time.Now()
	var req mineRequestJSON
	if !decodeJSON(w, r, &req, false) {
		return
	}
	tr.Root().Record("parse", t0, time.Now())
	ctx := telemetry.ContextWithSpan(r.Context(), tr.Root())
	resp, err := s.Mine(ctx, req.request())
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(headerCache, resp.Cache)
	w.Header().Set(headerVersion, strconv.FormatUint(resp.DatasetVersion, 10))
	w.Header().Set(headerElapsed, resp.Elapsed.String())
	// The body is exactly WriteJSON's document — bit-identical to
	// serializing the equivalent direct MineWith call.
	if err := resp.Results.WriteJSON(w); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

// handleExplain serves /explain: the query runs exactly as /mine would
// (cache, coalescing, backend selection — results stay bit-identical) and
// the response is the executed plan with its observed cost breakdown. GET
// takes the /subscribe-style query parameters (dataset, algo, min_esup /
// min_sup / pft or threshold, plus workers and no_cache); POST takes the
// /mine body.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	tr := s.startTrace(w, r.Method+" /explain")
	defer tr.Finish()
	var req MineRequest
	if r.Method == http.MethodPost {
		var body mineRequestJSON
		if !decodeJSON(w, r, &body, false) {
			return
		}
		req = body.request()
	} else {
		q := r.URL.Query()
		req.Dataset = q.Get("dataset")
		req.Algorithm = q.Get("algo")
		if req.Algorithm == "" {
			req.Algorithm = q.Get("algorithm")
		}
		if req.Dataset == "" || req.Algorithm == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("need dataset and algo parameters"))
			return
		}
		th, err := subscribeThresholds(q, req.Algorithm)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		req.Thresholds = th
		if v := q.Get("workers"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("parameter workers: %w", err))
				return
			}
			req.Workers = n
		}
		if v := q.Get("timeout_ms"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("parameter timeout_ms: %w", err))
				return
			}
			req.Timeout = time.Duration(n) * time.Millisecond
		}
		req.NoCache = q.Get("no_cache") == "true" || q.Get("no_cache") == "1"
	}
	ctx := r.Context()
	if tr != nil {
		ctx = telemetry.ContextWithSpan(ctx, tr.Root())
	}
	ex, err := s.Explain(ctx, req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

// handleWorkload serves GET /debug/workload: the rolling profile of the
// query mix, hottest group first.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.WorkloadProfile())
}

// handleDashboard serves GET /debug/dashboard: the dependency-free live
// HTML view of the serving state.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := obsq.RenderDashboard(w, s.dashboardData()); err != nil {
		// Headers are gone; drop the connection.
		return
	}
}

// parseTransactionLines parses item:prob lines with the same parser (and
// validation) as the text format ReadUncertain accepts; "#" comment lines
// are skipped there too, so they are skipped here.
func parseTransactionLines(lines []string) ([][]core.Unit, error) {
	out := make([][]core.Unit, 0, len(lines))
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		units, err := dataset.ParseUnits(line)
		if err != nil {
			return nil, fmt.Errorf("transaction %d: %w", i, err)
		}
		out = append(out, units)
	}
	return out, nil
}

// statusFor maps service errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, ErrDuplicateDataset):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, errFlightPanic):
		// A server-side crash, not a client mistake.
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

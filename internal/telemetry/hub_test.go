package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHubRingEviction: the trace ring keeps the last N completed traces,
// newest first; older ones are evicted.
func TestHubRingEviction(t *testing.T) {
	h := NewHub(HubConfig{TraceCapacity: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		tr := h.StartTrace("t")
		ids = append(ids, tr.ID())
		tr.Finish()
	}
	got := h.Traces()
	if len(got) != 3 {
		t.Fatalf("Traces() returned %d traces, want 3", len(got))
	}
	// Newest first: ids[4], ids[3], ids[2].
	for i, want := range []string{ids[4], ids[3], ids[2]} {
		if got[i].TraceID != want {
			t.Errorf("Traces()[%d] = %s, want %s", i, got[i].TraceID, want)
		}
	}
	if _, ok := h.Trace(ids[0]); ok {
		t.Errorf("evicted trace %s still retained", ids[0])
	}
	if _, ok := h.Trace(ids[4]); !ok {
		t.Errorf("latest trace %s not retained", ids[4])
	}
}

// TestHubRetentionDisabled: negative capacity disables the ring but traces
// still work.
func TestHubRetentionDisabled(t *testing.T) {
	h := NewHub(HubConfig{TraceCapacity: -1})
	tr := h.StartTrace("t")
	tr.Root().StartChild("child").End()
	td := tr.Finish()
	if td.TraceID == "" || len(td.Root.Children) != 1 {
		t.Errorf("disabled-retention trace malformed: %+v", td)
	}
	if got := h.Traces(); len(got) != 0 {
		t.Errorf("Traces() returned %d with retention disabled, want 0", len(got))
	}
}

// TestNilHub: a nil hub still hands out working (hubless) traces.
func TestNilHub(t *testing.T) {
	var h *Hub
	tr := h.StartTrace("t")
	tr.Root().StartChild("child").End()
	if td := tr.Finish(); len(td.Root.Children) != 1 {
		t.Errorf("nil-hub trace lost children: %+v", td)
	}
	if h.Traces() != nil {
		t.Error("nil hub retained traces")
	}
}

// TestFinishIdempotent: only the first Finish records into the ring.
func TestFinishIdempotent(t *testing.T) {
	h := NewHub(HubConfig{TraceCapacity: 4})
	tr := h.StartTrace("t")
	tr.Finish()
	tr.Finish()
	if got := len(h.Traces()); got != 1 {
		t.Errorf("double Finish recorded %d traces, want 1", got)
	}
}

// TestSlowLog: traces meeting the threshold emit one JSON record; fast ones
// do not.
func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	h := NewHub(HubConfig{
		TraceCapacity:    2,
		SlowLogThreshold: 5 * time.Millisecond,
		SlowLogger:       slog.New(slog.NewJSONHandler(&buf, nil)),
	})

	fast := h.StartTrace("fast")
	fast.Finish()
	if buf.Len() != 0 {
		t.Fatalf("fast trace logged: %q", buf.String())
	}

	slow := h.StartTrace("slow mine")
	slow.Root().StartChild("phase1").End()
	time.Sleep(10 * time.Millisecond)
	slow.Finish()

	line := buf.String()
	if line == "" {
		t.Fatal("slow trace not logged")
	}
	var doc struct {
		Msg        string   `json:"msg"`
		Name       string   `json:"name"`
		TraceID    string   `json:"trace_id"`
		DurationMS float64  `json:"duration_ms"`
		Root       SpanData `json:"root"`
	}
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("slow-log record is not JSON: %v\n%s", err, line)
	}
	if doc.Msg != "slow trace" || doc.Name != "slow mine" || doc.TraceID != slow.ID() || doc.DurationMS < 5 {
		t.Errorf("slow-log record fields: %+v", doc)
	}
	if _, ok := doc.Root.Find("phase1"); !ok {
		t.Error("slow-log record lost the span breakdown")
	}
	if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
		t.Errorf("slow log must be one line per trace: %q", line)
	}
}

// TestTracesHandler covers both /debug/traces routes: the summary list
// (newest first, span counts) and the single-trace detail, including the
// 404 for an unknown or evicted ID.
func TestTracesHandler(t *testing.T) {
	h := NewHub(HubConfig{TraceCapacity: 8})
	tr := h.StartTrace("POST /mine")
	tr.Root().StartChild("phase1").End()
	tr.Root().StartChild("phase2").End()
	tr.Finish()

	srv := httptest.NewServer(h.TracesHandler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var list []struct {
		TraceID string `json:"trace_id"`
		Name    string `json:"name"`
		Spans   int    `json:"spans"`
	}
	if err := json.NewDecoder(res.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].TraceID != tr.ID() || list[0].Name != "POST /mine" || list[0].Spans != 3 {
		t.Errorf("summary list: %+v", list)
	}

	res2, err := srv.Client().Get(srv.URL + "/debug/traces/" + tr.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var td TraceData
	if err := json.NewDecoder(res2.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	if _, ok := td.Root.Find("phase2"); !ok {
		t.Errorf("detail lost spans: %+v", td.Root)
	}

	res3, err := srv.Client().Get(srv.URL + "/debug/traces/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	res3.Body.Close()
	if res3.StatusCode != 404 {
		t.Errorf("unknown trace: status %d, want 404", res3.StatusCode)
	}
}

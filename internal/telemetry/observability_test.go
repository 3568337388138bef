package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// TestHistogramExemplar: a recorded exemplar is emitted as one comment line
// after the _count sample, then cleared; without one the exposition is
// byte-identical to the plain histogram (the format goldens elsewhere).
func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mine_seconds", "mine latency", nil, []float64{1, 5})

	var plain strings.Builder
	if err := r.WritePrometheus(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "exemplar") {
		t.Fatalf("exemplar line with no exemplar recorded:\n%s", plain.String())
	}

	h.ObserveExemplar(0.5, "aaaa")
	h.ObserveExemplar(2.5, "bbbb") // larger value wins the slot
	h.ObserveExemplar(1.5, "cccc")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := `# exemplar mine_seconds trace_id=bbbb value=2.5`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing %q:\n%s", want, out)
	}
	if i := strings.Index(out, "mine_seconds_count"); i < 0 || strings.Index(out, "# exemplar") < i {
		t.Errorf("exemplar line must follow _count:\n%s", out)
	}

	// The exemplar is consumed by exposition; counts persist.
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "exemplar") {
		t.Errorf("exemplar not cleared after exposition:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "mine_seconds_count 3") {
		t.Errorf("observations lost:\n%s", sb.String())
	}

	// Empty trace IDs never produce an exemplar line.
	h.ObserveExemplar(9, "")
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "exemplar") {
		t.Errorf("exemplar emitted for empty trace ID:\n%s", sb.String())
	}
}

// TestBuildInfoLabels: both labels are present and non-empty (the exact
// module version depends on the build).
func TestBuildInfoLabels(t *testing.T) {
	labels := BuildInfoLabels()
	if labels["go"] == "" || !strings.HasPrefix(labels["go"], "go") {
		t.Errorf("go label = %q", labels["go"])
	}
	if labels["version"] == "" {
		t.Errorf("version label empty")
	}
}

func TestParseLogLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"":      slog.LevelInfo,
		"WARN":  slog.LevelWarn,
		"error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Error("ParseLogLevel accepted an unknown level")
	}
}

// TestSlowLoggerStructured: with a SlowLogger configured, a slow trace
// becomes one structured record carrying the platform's shared keys and the
// span tree.
func TestSlowLoggerStructured(t *testing.T) {
	var buf bytes.Buffer
	h := NewHub(HubConfig{
		TraceCapacity:    2,
		SlowLogThreshold: time.Millisecond,
		SlowLogger:       NewLogger(&buf, "userve", slog.LevelInfo),
	})
	tr := h.StartTrace("POST /mine")
	tr.Root().SetAttr("dataset", "gazelle")
	tr.Root().SetAttr("algorithm", "UApriori")
	tr.Root().SetAttr("threshold", "min_esup=0.05")
	tr.Root().StartChild("phase1").End()
	time.Sleep(3 * time.Millisecond)
	tr.Finish()

	var rec struct {
		Level     string   `json:"level"`
		Msg       string   `json:"msg"`
		Service   string   `json:"service"`
		TraceID   string   `json:"trace_id"`
		Dataset   string   `json:"dataset"`
		Algo      string   `json:"algo"`
		Threshold string   `json:"threshold"`
		Root      SpanData `json:"root"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow record is not one JSON object: %v\n%s", err, buf.String())
	}
	if rec.Level != "WARN" || rec.Msg != "slow trace" || rec.Service != "userve" {
		t.Errorf("record envelope: %+v", rec)
	}
	if rec.TraceID != tr.ID() || rec.Dataset != "gazelle" || rec.Algo != "UApriori" || rec.Threshold != "min_esup=0.05" {
		t.Errorf("shared keys: %+v", rec)
	}
	if _, ok := rec.Root.Find("phase1"); !ok {
		t.Error("span tree lost from the slow record")
	}
}

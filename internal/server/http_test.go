package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/dataset"
)

// httpFixture boots the handler over a real listener with one registered
// dataset.
func httpFixture(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, testDB(t))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// getClient bounds every GET, so a /subscribe that wrongly opens its
// stream fails the test instead of hanging it.
var getClient = &http.Client{Timeout: 30 * time.Second}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := getClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := httpFixture(t)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

// TestHTTPMineBitIdentical is the acceptance criterion over the wire: a
// cached-hit /mine body equals the serialization of a direct MineWith call,
// byte for byte.
func TestHTTPMineBitIdentical(t *testing.T) {
	s, ts := httpFixture(t)
	th := core.Thresholds{MinESup: 0.1}
	req := mineRequestJSON{Dataset: "d", Algorithm: "UApriori", Thresholds: th}

	resp1, body1 := post(t, ts.URL+"/mine", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first mine: %d %s", resp1.StatusCode, body1)
	}
	if k := resp1.Header.Get(headerCache); k != CacheMiss {
		t.Fatalf("first mine: %s=%q, want %q", headerCache, k, CacheMiss)
	}
	resp2, body2 := post(t, ts.URL+"/mine", req)
	if k := resp2.Header.Get(headerCache); k != CacheHit {
		t.Fatalf("second mine: %s=%q, want %q", headerCache, k, CacheHit)
	}

	d, _ := s.reg.get("d")
	db, _ := d.snapshot()
	want := marshal(t, directMine(t, "UApriori", db, th))
	if !bytes.Equal(body1, want) || !bytes.Equal(body2, want) {
		t.Errorf("/mine bodies differ from direct MineWith serialization\nmiss: %s\nhit:  %s\nwant: %s", body1, body2, want)
	}
}

func TestHTTPRegisterMineIngestFlow(t *testing.T) {
	_, ts := httpFixture(t)

	// Register a generated profile.
	resp, body := post(t, ts.URL+"/datasets", registerRequest{Name: "g", Profile: "gazelle", Scale: 0.005, Seed: 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}

	// List shows both datasets.
	_, body = get(t, ts.URL+"/datasets")
	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 2 {
		t.Fatalf("datasets: %+v", list.Datasets)
	}

	// Mine the generated profile.
	resp, body = post(t, ts.URL+"/mine", mineRequestJSON{Dataset: "g", Algorithm: "UH-Mine", Thresholds: core.Thresholds{MinESup: 0.01}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %s", resp.StatusCode, body)
	}
	if v := resp.Header.Get(headerVersion); v != "0" {
		t.Fatalf("version header %q, want 0", v)
	}
	var doc struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) == 0 {
		t.Fatal("mine returned no results")
	}

	// Ingest bumps the version; the next mine sees it.
	resp, body = post(t, ts.URL+"/ingest", ingestRequest{Dataset: "g", Transactions: []string{"0:0.9 1:0.5", "2:1.0"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	var ing IngestResult
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Version != 1 || ing.Added != 2 {
		t.Fatalf("ingest result %+v", ing)
	}
	resp, _ = post(t, ts.URL+"/mine", mineRequestJSON{Dataset: "g", Algorithm: "UH-Mine", Thresholds: core.Thresholds{MinESup: 0.01}})
	if v := resp.Header.Get(headerVersion); v != "1" {
		t.Fatalf("post-ingest version header %q, want 1", v)
	}
	if k := resp.Header.Get(headerCache); k != CacheMiss {
		t.Fatalf("post-ingest cache header %q, want %q", k, CacheMiss)
	}

	// Stats reflect the traffic.
	_, body = get(t, ts.URL+"/stats")
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 || st.Datasets != 2 || st.Ingests != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := httpFixture(t)
	type errorCase struct {
		name   string
		path   string
		body   any
		status int
	}
	cases := []errorCase{
		{"unknown dataset", "/mine", mineRequestJSON{Dataset: "nope", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.1}}, http.StatusNotFound},
		{"unknown algorithm", "/mine", mineRequestJSON{Dataset: "d", Algorithm: "Nope", Thresholds: core.Thresholds{MinESup: 0.1}}, http.StatusBadRequest},
		{"bad thresholds", "/mine", mineRequestJSON{Dataset: "d", Algorithm: "UApriori"}, http.StatusBadRequest},
		{"duplicate dataset", "/datasets", registerRequest{Name: "d", Profile: "gazelle", Scale: 0.005}, http.StatusConflict},
		{"unknown profile", "/datasets", registerRequest{Name: "x", Profile: "nope"}, http.StatusBadRequest},
		{"missing source", "/datasets", registerRequest{Name: "x"}, http.StatusBadRequest},
		{"bad ingest unit", "/ingest", ingestRequest{Dataset: "d", Transactions: []string{"zzz"}}, http.StatusBadRequest},
		{"ingest unknown dataset", "/ingest", ingestRequest{Dataset: "nope", Transactions: []string{"0:0.5"}}, http.StatusNotFound},
		// A nil body sends a GET with the query in the path.
		{"explain unknown algorithm", "/explain?dataset=d&algo=Nope&min_esup=0.1", nil, http.StatusBadRequest},
		{"subscribe unknown algorithm", "/subscribe?dataset=d&algo=Nope&min_esup=0.1", nil, http.StatusBadRequest},
	}
	// A negative timeout_ms would escape Config.DefaultTimeout, and one past
	// maxTimeoutMS would wrap into a tiny or negative Duration: every route
	// that takes a timeout rejects both.
	for _, ms := range []int64{-1, -18446744073709, maxTimeoutMS + 1} {
		body := map[string]any{"dataset": "d", "algorithm": "UApriori", "min_esup": 0.1, "timeout_ms": ms}
		query := fmt.Sprintf("?dataset=d&algo=UApriori&min_esup=0.1&timeout_ms=%d", ms)
		cases = append(cases,
			errorCase{fmt.Sprintf("POST /mine timeout_ms=%d", ms), "/mine", body, http.StatusBadRequest},
			errorCase{fmt.Sprintf("POST /explain timeout_ms=%d", ms), "/explain", body, http.StatusBadRequest},
			errorCase{fmt.Sprintf("GET /explain timeout_ms=%d", ms), "/explain" + query, nil, http.StatusBadRequest},
			errorCase{fmt.Sprintf("GET /subscribe timeout_ms=%d", ms), "/subscribe" + query, nil, http.StatusBadRequest},
		)
	}
	for _, c := range cases {
		var resp *http.Response
		var body []byte
		if c.body == nil {
			resp, body = get(t, ts.URL+c.path)
		} else {
			resp, body = post(t, ts.URL+c.path, c.body)
		}
		if resp.StatusCode != c.status {
			t.Errorf("%s: HTTP %d (want %d): %s", c.name, resp.StatusCode, c.status, body)
		}
		if !strings.Contains(string(body), `"error"`) {
			t.Errorf("%s: no error field in %s", c.name, body)
		}
	}
}

// TestIngestParserParity: /ingest accepts exactly what the text-format
// reader accepts — zero probabilities rejected, "#" comment lines skipped.
func TestIngestParserParity(t *testing.T) {
	_, ts := httpFixture(t)
	resp, body := post(t, ts.URL+"/ingest", ingestRequest{Dataset: "d", Transactions: []string{"0:0"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero-probability unit: HTTP %d (want 400): %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/ingest", ingestRequest{Dataset: "d", Transactions: []string{"# comment", "0:0.5"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("comment line: HTTP %d: %s", resp.StatusCode, body)
	}
	var ing IngestResult
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Added != 1 {
		t.Errorf("added %d transactions, want 1 (comment skipped)", ing.Added)
	}
}

// TestIngestRejectsHugeItemID: an item id at dataset.MaxItems is refused
// with 400 before it reaches the dataset, so the next mine never sizes a
// per-item array from it. The dataset's version and universe stay put.
func TestIngestRejectsHugeItemID(t *testing.T) {
	s, ts := httpFixture(t)
	before, _ := s.Dataset("d")
	line := fmt.Sprintf("0:0.5 %d:1", dataset.MaxItems)
	resp, body := post(t, ts.URL+"/ingest", ingestRequest{Dataset: "d", Transactions: []string{line}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("item %d: HTTP %d (want 400): %s", dataset.MaxItems, resp.StatusCode, body)
	}
	after, _ := s.Dataset("d")
	if after.Version != before.Version || after.NumItems != before.NumItems {
		t.Fatalf("rejected ingest moved the dataset: version %d → %d, items %d → %d",
			before.Version, after.Version, before.NumItems, after.NumItems)
	}
}

// TestHTTPBodyTooLarge: oversized POST bodies are rejected with 413, not
// buffered into memory.
func TestHTTPBodyTooLarge(t *testing.T) {
	_, ts := httpFixture(t)
	huge := append([]byte(`{"name":"x","text":"`), bytes.Repeat([]byte("0:0.5 "), maxRequestBytes/6+1)...)
	huge = append(huge, []byte(`"}`)...)
	resp, err := http.Post(ts.URL+"/datasets", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
}

func TestHTTPWindowedRegister(t *testing.T) {
	_, ts := httpFixture(t)
	resp, body := post(t, ts.URL+"/datasets", registerRequest{
		Name: "w", Text: "0:0.9\n1:0.8\n0:0.7 1:0.6\n",
		WindowSize: 2,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var info DatasetInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Windowed || info.NumTrans != 2 {
		t.Fatalf("info %+v, want windowed with 2 retained transactions", info)
	}
}

// TestHTTPRegisterRejects: the register body rejects fields it does not
// declare (naming the field, so a client still sending a retired option
// learns why), a negative window size and a profile scale outside (0, 1]
// (the generator allocates scale × the published size up front),
// registering nothing in any case. The other bodies keep ignoring unknown
// fields.
func TestHTTPRegisterRejects(t *testing.T) {
	s, ts := httpFixture(t)
	text := "0:0.9\n1:0.8\n0:0.7 1:0.6\n"
	cases := []struct {
		name string
		body map[string]any
		want string
	}{
		{"unknown field", map[string]any{"name": "w", "text": text, "window_size": 2, "refresh_every": 4}, `refresh_every`},
		{"negative window", map[string]any{"name": "w", "text": text, "window_size": -1}, `window size -1`},
		{"huge scale", map[string]any{"name": "w", "profile": "connect", "scale": 1e300}, `outside (0, 1]`},
		{"scale above one", map[string]any{"name": "w", "profile": "connect", "scale": 2}, `outside (0, 1]`},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+"/datasets", c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Errorf("%s: HTTP %d %s, want 400 naming %q", c.name, resp.StatusCode, body, c.want)
		}
		if _, ok := s.Dataset("w"); ok {
			t.Fatalf("%s: dataset registered despite the 400", c.name)
		}
	}
	resp, body := post(t, ts.URL+"/ingest", map[string]any{"dataset": "d", "transactions": []string{"0:0.5"}, "extra": true})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("ingest with an unknown field: HTTP %d %s, want 200", resp.StatusCode, body)
	}
}

// FuzzIngestBody posts arbitrary bytes to /ingest on a server holding a
// small dataset. The handler must never panic and must answer 200, 400, 404
// or 413. On 200 the dataset grows by one transaction per line that is not
// a "#" comment, and its version moves only when that count is above 0.
func FuzzIngestBody(f *testing.F) {
	db := coretest.RandomDB(rand.New(rand.NewSource(3)), 20, 6, 0.6)
	for _, seed := range []string{
		`{"dataset":"d","transactions":["0:0.5 1:0.25","# comment",""]}`,
		`{"dataset":"d","transactions":["# only a comment"]}`,
		`{"dataset":"d","transactions":[]}`,
		`{"dataset":"nope","transactions":["0:0.5"]}`,
		`{"dataset":"d","transactions":["0:0.5 0:0.5"]}`,
		`{"dataset":"d","transactions":["1048576:1"]}`,
		`{"dataset":"d","transactions":["3:1"]} trailing`,
		`[1,2`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{})
		if _, err := s.RegisterDatabase("d", db, RegisterOptions{}); err != nil {
			t.Fatal(err)
		}
		before, _ := s.Dataset("d")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
		// A 200 means the handler decoded the body; decode it the same way.
		var req ingestRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("HTTP 200 for a body that does not decode: %v", err)
		}
		added := 0
		for _, line := range req.Transactions {
			if !strings.HasPrefix(strings.TrimSpace(line), "#") {
				added++
			}
		}
		after, _ := s.Dataset("d")
		if after.NumTrans != before.NumTrans+added {
			t.Fatalf("N %d → %d, want +%d", before.NumTrans, after.NumTrans, added)
		}
		if bumped := after.Version != before.Version; bumped != (added > 0) {
			t.Fatalf("version %d → %d with %d transactions added", before.Version, after.Version, added)
		}
	})
}

// FuzzMineBody posts arbitrary bytes to /mine and then /explain on a server
// holding a tiny dataset (24 transactions over 8 items). Neither handler may
// panic, and each answers 200, 400, 404, 413 or 422 — or 503 when the body
// set its own timeout_ms, whose expiry is the request's budget, not a
// decoder fault. A timeout_ms that is negative or overflows a Duration is
// always a 400. A 200 /mine body is byte-identical to WriteJSON of a
// direct mine at the decoded thresholds. (The /datasets body is left to a
// per-request work budget: a valid profile at scale 1 is real work.)
func FuzzMineBody(f *testing.F) {
	db := coretest.RandomDB(rand.New(rand.NewSource(4)), 24, 8, 0.5)
	for _, seed := range []string{
		`{"dataset":"d","algorithm":"UApriori","min_esup":0.1}`,
		`{"dataset":"d","algorithm":"DPB","min_sup":0.2,"pft":0.7,"no_cache":true}`,
		`{"dataset":"d","algorithm":"UH-Mine","min_esup":1e-300,"workers":-3}`,
		`{"dataset":"d","algorithm":"MCSampling","min_sup":0.3,"pft":0.5,"workers":9999999}`,
		`{"dataset":"nope","algorithm":"UApriori","min_esup":0.1}`,
		`{"dataset":"d","algorithm":"nope","min_esup":0.1}`,
		`{"dataset":"d","algorithm":"NDUApriori","min_sup":0.2,"pft":1}`,
		`{"dataset":"d","algorithm":"UApriori","min_esup":0.1} trailing`,
		`{"dataset":"d","algorithm":"UApriori","min_esup":"0.1"}`,
		`[1,2`,
		`{"dataset":"d","algorithm":"UApriori","min_esup":0.1,"timeout_ms":-1}`,
		`{"dataset":"d","algorithm":"UApriori","min_esup":0.1,"timeout_ms":-18446744073709}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{})
		if _, err := s.RegisterDatabase("d", db, RegisterOptions{}); err != nil {
			t.Fatal(err)
		}
		// The handlers decode the body this way. A timeout_ms outside
		// [0, maxTimeoutMS] must be a 400; a 503 is allowed only when the
		// decoded request carries its own timeout.
		var req mineRequestJSON
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil
		badTimeout := req.TimeoutMS < 0 || int64(req.TimeoutMS) > math.MaxInt64/int64(time.Millisecond)
		for _, path := range []string{"/mine", "/explain"} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if decoded && badTimeout && rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: timeout_ms %d: HTTP %d, want 400: %s", path, req.TimeoutMS, rec.Code, rec.Body)
			}
			switch rec.Code {
			case http.StatusOK:
				if !decoded {
					t.Fatalf("%s: HTTP 200 for a body that does not decode", path)
				}
			case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
				continue
			case http.StatusServiceUnavailable:
				if decoded && req.TimeoutMS > 0 {
					continue
				}
				t.Fatalf("%s: HTTP 503 without a request timeout: %s", path, rec.Body)
			default:
				t.Fatalf("%s: HTTP %d: %s", path, rec.Code, rec.Body)
			}
			if path != "/mine" {
				continue
			}
			want := marshal(t, directMine(t, req.Algorithm, db, req.Thresholds))
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("/mine body differs from a direct mine\ngot:  %s\nwant: %s", rec.Body.Bytes(), want)
			}
		}
	})
}

package obshttp

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"casa/internal/metrics"
)

func TestEndpointLabel(t *testing.T) {
	cases := map[string]string{
		"":                         "index",
		"/":                        "index",
		"/v1/seed":                 "v1_seed",
		"/v1/runs":                 "v1_runs",
		"/v1/runs/aabbccdd":        "v1_runs_id",
		"/v1/runs/aabbccdd/events": "v1_runs_id_events",
		"/v1/stats":                "v1_stats",
		"/metrics":                 "metrics",
		"/healthz":                 "healthz",
		"/debug/pprof/profile":     "debug_pprof",
		"/walltrace":               "walltrace",
		"/Weird//Path-%2e":         "weird_path_2e",
		"/...":                     "other",
	}
	for path, want := range cases {
		if got := EndpointLabel(path); got != want {
			t.Errorf("EndpointLabel(%q) = %q, want %q", path, got, want)
		}
	}
	// Every label must be a single valid metric-name segment: filing it
	// under http/<label>/requests must not panic.
	reg := metrics.New()
	for path := range cases {
		reg.Counter("http/" + EndpointLabel(path) + "/requests")
	}
}

func TestInstrumentMetricsAndAccessLog(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/seed", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-Casa-Run", "deadbeef01020304")
		fmt.Fprint(w, "report")
	})
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	})

	reg := metrics.New()
	var logBuf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logBuf, nil))
	srv := httptest.NewServer(Instrument(mux, reg, log))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/seed", "text/plain", strings.NewReader("@r\nACGT\n+\nIIII\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code %d", resp.StatusCode)
	}
	if resp2, err := http.Get(srv.URL + "/boom"); err != nil {
		t.Fatal(err)
	} else {
		resp2.Body.Close()
	}

	if got := reg.Counter("http/v1_seed/requests").Value(); got != 1 {
		t.Fatalf("http/v1_seed/requests = %d, want 1", got)
	}
	if got := reg.Counter("http/v1_seed/status_2xx").Value(); got != 1 {
		t.Fatalf("http/v1_seed/status_2xx = %d, want 1", got)
	}
	if got := reg.Counter("http/boom/status_5xx").Value(); got != 1 {
		t.Fatalf("http/boom/status_5xx = %d, want 1", got)
	}
	h := reg.Histogram("http/v1_seed/duration_us", metrics.PowerOfTwoBounds(30))
	if h.Count() != 1 {
		t.Fatalf("duration histogram count = %d, want 1", h.Count())
	}
	if got := reg.Counter("http/server/bytes_in").Value(); got < 10 {
		t.Fatalf("bytes_in = %d, want >= body size", got)
	}
	if got := reg.Counter("http/server/bytes_out").Value(); got < int64(len("report")) {
		t.Fatalf("bytes_out = %d, want >= %d", got, len("report"))
	}
	if got := reg.Gauge("http/server/in_flight").Value(); got != 0 {
		t.Fatalf("in_flight after requests settled = %g, want 0", got)
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "http request") {
		t.Fatalf("no access-log records:\n%s", logs)
	}
	if !strings.Contains(logs, "run_id=deadbeef01020304") {
		t.Fatalf("access log lacks the run_id:\n%s", logs)
	}
	if !strings.Contains(logs, "path=/v1/seed") || !strings.Contains(logs, "status=200") {
		t.Fatalf("access log lacks method/path/status fields:\n%s", logs)
	}
	if !strings.Contains(logs, "status=500") {
		t.Fatalf("access log lacks the 500 record:\n%s", logs)
	}
	if !strings.Contains(logs, "wall_us=") {
		t.Fatalf("access log lacks the wall duration:\n%s", logs)
	}
}

func TestInstrumentPreservesStreaming(t *testing.T) {
	// The wrapped writer must still upgrade to SSE (http.Flusher) and
	// count the streamed bytes.
	mux := http.NewServeMux()
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		es, err := newEventStream(w)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		es.Emit("progress", map[string]int{"n": 1})
	})
	reg := metrics.New()
	srv := httptest.NewServer(Instrument(mux, reg, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q: Flusher did not survive the wrapper", ct)
	}
	buf := make([]byte, 256)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "event: progress") {
		t.Fatalf("stream body %q", buf[:n])
	}
}

func TestInstrumentLabelCardinalityBounded(t *testing.T) {
	reg := metrics.New()
	h := Instrument(http.NotFoundHandler(), reg, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	for i := 0; i < maxEndpointLabels+32; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/path%04d", srv.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	distinct := 0
	var otherSeen bool
	for _, s := range reg.Snapshots() {
		if strings.HasSuffix(s.Name, "/requests") {
			distinct++
			if s.Name == "http/other/requests" {
				otherSeen = true
			}
		}
	}
	if distinct > maxEndpointLabels+1 {
		t.Fatalf("%d distinct endpoint families, want <= %d", distinct, maxEndpointLabels+1)
	}
	if !otherSeen {
		t.Fatal("overflow labels did not collapse into \"other\"")
	}
}

func TestInstrumentNilHalves(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := Instrument(inner, nil, nil); got.(http.HandlerFunc) == nil {
		t.Fatal("nil/nil should return next unchanged")
	}
	// Metrics-only and log-only halves both work.
	reg := metrics.New()
	srv := httptest.NewServer(Instrument(inner, reg, nil))
	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close()
	if got := reg.Counter("http/x/requests").Value(); got != 1 {
		t.Fatalf("metrics-only half recorded %d requests, want 1", got)
	}
	var buf bytes.Buffer
	srv2 := httptest.NewServer(Instrument(inner, nil, slog.New(slog.NewTextHandler(&buf, nil))))
	resp2, err := http.Get(srv2.URL + "/y")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	srv2.Close()
	if !strings.Contains(buf.String(), "path=/y") {
		t.Fatalf("log-only half wrote:\n%s", buf.String())
	}
}

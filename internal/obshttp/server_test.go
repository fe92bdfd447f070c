package obshttp

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"casa/internal/metrics"
	"casa/internal/progress"
	"casa/internal/trace"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := metrics.New()
	reg.Counter("obshttp_test/hits").Add(7)

	s := startRun(t, reg, progress.New("rid", "casa", 1, 10), nil)
	defer s.Close()
	base := "http://" + s.Addr()

	if code, body := get(t, base+"/metrics"); code != http.StatusOK || !strings.Contains(body, "obshttp_test") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}

	// /trace is unavailable until a finished stream is published.
	if code, _ := get(t, base+"/trace"); code != http.StatusServiceUnavailable {
		t.Fatalf("/trace before publish: code %d, want 503", code)
	}
	tr := trace.New(trace.PolicyAll, 0)
	b := tr.NewBuffer("casa")
	b.Emit(0, "exact", "exact", 0, 10)
	b.Emit(1, "exact", "exact", 0, 20)
	s.PublishTrace(tr.Spans())
	code, body := get(t, base+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace after publish: code %d", code)
	}
	spans, err := trace.ParseChrome([]byte(body))
	if err != nil {
		t.Fatalf("/trace body does not parse: %v", err)
	}
	if len(spans) != 2 {
		t.Fatalf("/trace returned %d spans, want 2", len(spans))
	}
	// The published stream replaced the buffers; a second fetch, after
	// the trace merged again, serves the same bytes.
	tr.Spans()
	if code, again := get(t, base+"/trace"); code != http.StatusOK || again != body {
		t.Fatalf("second /trace fetch: code %d, %d bytes differ from the first %d", code, len(again), len(body))
	}

	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: code %d", code)
	}
	if code, _ := get(t, base+"/no-such"); code != http.StatusNotFound {
		t.Fatalf("/no-such: code %d, want 404", code)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

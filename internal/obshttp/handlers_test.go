package obshttp

import (
	"bufio"
	"net/http"
	"strings"
	"testing"
	"time"

	"casa/internal/metrics"
	"casa/internal/progress"
	"casa/internal/trace"
)

// do issues one request with no body and returns the status code and the
// Allow header.
func do(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Allow")
}

// traceSpans returns a small published-trace fixture.
func traceSpans() []trace.Span {
	tr := trace.New(trace.PolicyAll, 0)
	tr.NewBuffer("casa").Emit(0, "exact", "exact", 0, 10)
	return tr.Spans()
}

// TestMethodMatrix drives every read-only endpoint of the sidecar with
// every relevant method: GET and HEAD pass through to the handler,
// everything else is 405 with an Allow header naming GET and HEAD.
func TestMethodMatrix(t *testing.T) {
	tr := progress.New("rid", "casa", 1, 10)
	wall := trace.NewWall(0)
	wall.Record("casa-smem", "phase", "load", time.Now(), time.Millisecond)
	s := startRun(t, metrics.New(), tr, wall)
	defer s.Close()
	s.PublishTrace(traceSpans())
	base := "http://" + s.Addr()

	// Per endpoint: the code GET must produce (HEAD must match it).
	endpoints := []struct {
		path    string
		getCode int
	}{
		{"/", http.StatusOK},
		{"/v1/runs", http.StatusOK},
		{"/v1/runs/rid", http.StatusOK},
		{"/v1/runs/rid/events", http.StatusOK}, // run finished below, so the stream terminates
		{"/metrics", http.StatusOK},
		{"/trace", http.StatusOK},
		{"/walltrace", http.StatusOK},
	}
	tr.Finish() // lets GET /v1/runs/rid/events return instead of streaming on
	for _, ep := range endpoints {
		for _, method := range []string{
			http.MethodGet, http.MethodHead, http.MethodPost,
			http.MethodPut, http.MethodDelete, http.MethodPatch,
		} {
			code, allow := do(t, method, base+ep.path)
			switch method {
			case http.MethodGet, http.MethodHead:
				if code != ep.getCode {
					t.Errorf("%s %s: code %d, want %d", method, ep.path, code, ep.getCode)
				}
			default:
				if code != http.StatusMethodNotAllowed {
					t.Errorf("%s %s: code %d, want 405", method, ep.path, code)
				}
				if !strings.Contains(allow, http.MethodGet) || !strings.Contains(allow, http.MethodHead) {
					t.Errorf("%s %s: Allow %q, want GET and HEAD listed", method, ep.path, allow)
				}
			}
		}
	}
}

// TestIndexAdvertisesEnabledEndpoints pins the index page: it lists what
// the mux serves right now, so /trace appears once a trace is published,
// /walltrace only with a wall recorder, and /metrics only with a
// registry (without one it is a 503, not a 404).
func TestIndexAdvertisesEnabledEndpoints(t *testing.T) {
	s := startRun(t, nil, progress.New("rid", "casa", 1, 10), nil)
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := get(t, base+"/")
	if code != http.StatusOK {
		t.Fatalf("index: code %d", code)
	}
	for _, absent := range []string{"/metrics", "/trace", "/walltrace"} {
		if strings.Contains(body, absent+"\n") {
			t.Errorf("bare index advertises %s, which would 503", absent)
		}
	}
	for _, present := range []string{"/v1/runs\n", "/v1/runs/{id}\n", "/v1/runs/{id}/events\n", "/debug/pprof/\n"} {
		if !strings.Contains(body, present) {
			t.Errorf("index does not list %q, which is always served", present)
		}
	}
	for _, path := range []string{"/metrics", "/trace", "/walltrace"} {
		if code, _ := get(t, base+path); code != http.StatusServiceUnavailable {
			t.Errorf("%s unconfigured: code %d, want 503", path, code)
		}
	}

	s.PublishTrace(traceSpans())
	if _, body = get(t, base+"/"); !strings.Contains(body, "GET  /trace\n") {
		t.Errorf("index misses /trace after it was published:\n%s", body)
	}

	w := startRun(t, nil, progress.New("rid", "casa", 1, 10), trace.NewWall(0))
	defer w.Close()
	if _, body = get(t, "http://"+w.Addr()+"/"); !strings.Contains(body, "GET  /walltrace\n") {
		t.Errorf("index misses /walltrace with a wall recorder:\n%s", body)
	}
}

// TestEventsAfterFinish pins the late-subscriber contract: a client
// connecting after the run finished gets one progress snapshot and the
// terminal done event immediately — no hang, then EOF — even with a
// shard-completion signal still pending.
func TestEventsAfterFinish(t *testing.T) {
	tr := progress.New("rid", "casa", 1, 20)
	tr.ShardDone(0, 20, 19)
	tr.Finish()
	s := startRun(t, nil, tr, nil)
	defer s.Close()

	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(eventsURL(s, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, bufio.NewScanner(resp.Body))
	if len(events) != 2 {
		t.Fatalf("late subscriber got %d events, want exactly progress + done", len(events))
	}
	if events[0].name != "progress" || events[1].name != "done" {
		t.Fatalf("late subscriber events: %s, %s; want progress, done", events[0].name, events[1].name)
	}
	if !events[1].snap.Done || events[1].snap.ReadsDone != 20 {
		t.Fatalf("terminal snapshot wrong: %+v", events[1].snap)
	}
}

// TestShutdownRacesEventsStream opens a stream and shuts the server down
// immediately — the shutdown must not deadlock against the handler's
// startup, whichever side wins the race.
func TestShutdownRacesEventsStream(t *testing.T) {
	for i := 0; i < 10; i++ {
		tr := progress.New("rid", "casa", 1, 0)
		s := startRun(t, nil, tr, nil)

		streamDone := make(chan struct{})
		go func() {
			defer close(streamDone)
			resp, err := http.Get(eventsURL(s, tr))
			if err != nil {
				return // shutdown won before the connection: fine
			}
			defer resp.Body.Close()
			readSSE(t, bufio.NewScanner(resp.Body))
		}()

		shutDone := make(chan error, 1)
		go func() { shutDone <- s.Close() }()
		select {
		case err := <-shutDone:
			if err != nil {
				t.Fatalf("iteration %d: shutdown: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: shutdown hung against a racing stream", i)
		}
		<-streamDone
	}
}

package obshttp

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"casa/internal/metrics"
	"casa/internal/progress"
	"casa/internal/trace"
)

// startRun starts a sidecar whose registry holds tr, as runcli starts it.
func startRun(t *testing.T, reg *metrics.Registry, tr *progress.Tracker, wall *trace.WallTrace) *Server {
	t.Helper()
	runs := progress.NewRegistry(1)
	if err := runs.Add(tr); err != nil {
		t.Fatal(err)
	}
	s, err := Start("127.0.0.1:0", reg, runs, wall)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// eventsURL is the event stream of the sidecar's run tr.
func eventsURL(s *Server, tr *progress.Tracker) string {
	return "http://" + s.Addr() + "/v1/runs/" + tr.RunID() + "/events"
}

// TestProgressEndpoint round-trips a snapshot through /v1/runs/{id},
// checks the 404 contract for a run the registry does not hold, and
// that the retired /progress path is gone.
func TestProgressEndpoint(t *testing.T) {
	tr := progress.New("runid42", "casa", 2, 100)
	s := startRun(t, nil, tr, nil)
	defer s.Close()
	base := "http://" + s.Addr()

	if code, _ := get(t, base+"/v1/runs/feedfacefeedface"); code != http.StatusNotFound {
		t.Fatalf("unknown run: code %d, want 404", code)
	}
	if code, _ := get(t, base+"/v1/runs/feedfacefeedface/events"); code != http.StatusNotFound {
		t.Fatalf("unknown run's events: code %d, want 404", code)
	}
	if code, _ := get(t, base+"/progress"); code != http.StatusNotFound {
		t.Fatalf("/progress: code %d, want 404", code)
	}

	tr.ShardDone(0, 25, 24)
	code, body := get(t, base+"/v1/runs/runid42")
	if code != http.StatusOK {
		t.Fatalf("/v1/runs/runid42: code %d body %q", code, body)
	}
	var snap progress.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/v1/runs/runid42 body does not parse: %v", err)
	}
	if snap.Schema != progress.SchemaVersion || snap.RunID != "runid42" || snap.ReadsDone != 25 || snap.Done {
		t.Fatalf("/v1/runs/runid42 snapshot wrong: %+v", snap)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	snap progress.Snapshot
}

// readSSE consumes the stream until EOF, parsing every event.
func readSSE(t *testing.T, body *bufio.Scanner) []sseEvent {
	t.Helper()
	var events []sseEvent
	var name string
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var snap progress.Snapshot
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
				t.Fatalf("SSE data line does not parse: %v (%q)", err, line)
			}
			events = append(events, sseEvent{name: name, snap: snap})
		case line == "":
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return events
}

// TestEventsStream drives a tracker while a client holds the run's event
// stream open: each shard completion is an event, so the stream delivers
// at least two distinct progress snapshots, ends with a terminal "done"
// event, and then closes.
func TestEventsStream(t *testing.T) {
	tr := progress.New("rid", "casa", 1, 50)
	s := startRun(t, nil, tr, nil)
	defer s.Close()

	resp, err := http.Get(eventsURL(s, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}

	go func() {
		for i := 0; i < 5; i++ {
			tr.ShardDone(0, 10, i*10+9)
			time.Sleep(15 * time.Millisecond)
		}
		tr.Finish()
	}()

	events := readSSE(t, bufio.NewScanner(resp.Body))
	if len(events) < 3 {
		t.Fatalf("stream delivered %d events, want at least initial + progress + done", len(events))
	}
	last := events[len(events)-1]
	if last.name != "done" || !last.snap.Done || last.snap.ReadsDone != 50 {
		t.Fatalf("terminal event wrong: %+v", last)
	}
	distinct := map[int64]bool{}
	for _, e := range events[:len(events)-1] {
		if e.name != "progress" {
			t.Fatalf("non-terminal event named %q", e.name)
		}
		distinct[e.snap.ReadsDone] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("progress events show %d distinct reads_done values, want >= 2", len(distinct))
	}
}

// TestEventsStreamEndsOnShutdown verifies graceful shutdown does not
// hang on an open SSE stream: the quit channel ends the handler and the
// client sees EOF.
func TestEventsStreamEndsOnShutdown(t *testing.T) {
	tr := progress.New("rid", "casa", 1, 0)
	s := startRun(t, nil, tr, nil)

	resp, err := http.Get(eventsURL(s, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	readSSE(t, bufio.NewScanner(resp.Body)) // must reach EOF
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung on the open SSE stream")
	}
}

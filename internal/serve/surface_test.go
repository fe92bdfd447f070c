package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"casa/internal/metrics"
	"casa/internal/obshttp"
	"casa/internal/progress"
	"casa/internal/trace"
)

// surface is one HTTP server under TestSurfaceMatrix: its base URL, the
// ID of its one live run, and finish, which ends that run.
type surface struct {
	name, base, id string
	finish         func(t *testing.T)
}

// sidecarSurface starts a CLI -http sidecar observing one live run, with
// a published cycle trace and a wall trace, as runcli starts it.
func sidecarSurface(t *testing.T) surface {
	reg := metrics.New()
	reg.Counter("surface/hits").Inc()
	tr := progress.New(progress.NewRunID(), "casa", 1, 10)
	runs := progress.NewRegistry(1)
	if err := runs.Add(tr); err != nil {
		t.Fatal(err)
	}
	wall := trace.NewWall(0)
	wall.Record("casa-smem", "phase", "load", time.Now(), time.Millisecond)
	s, err := obshttp.Start("127.0.0.1:0", reg, runs, wall)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	cycle := trace.New(trace.PolicyAll, 0)
	cycle.NewBuffer("casa").Emit(0, "exact", "exact", 0, 10)
	s.PublishTrace(cycle.Spans())
	return surface{name: "sidecar", base: "http://" + s.Addr(), id: tr.RunID(), finish: func(*testing.T) {
		tr.ShardDone(0, 10, 9)
		tr.Finish()
	}}
}

// serveSurface starts casa-serve's server with one seed request held
// mid-run by a blocking engine; finish releases it and waits for the
// report.
func serveSurface(t *testing.T) surface {
	be := &blockingEngine{release: make(chan struct{}, 16), started: make(chan struct{}, 16)}
	s, err := StartEngine("127.0.0.1:0", be, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(be.release)
		s.Close()
	})
	base := "http://" + s.Addr()
	posted := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/seed", "text/plain", strings.NewReader(string(fastqBatch(1))))
		if err != nil {
			posted <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		posted <- resp.StatusCode
	}()
	select {
	case <-be.started:
	case <-time.After(10 * time.Second):
		t.Fatal("seed request never started seeding")
	}
	// The handler registers the run just after queueing it.
	ids := s.Runs().IDs()
	for deadline := time.Now().Add(10 * time.Second); len(ids) == 0 && time.Now().Before(deadline); ids = s.Runs().IDs() {
		time.Sleep(time.Millisecond)
	}
	if len(ids) != 1 {
		t.Fatalf("runs %v, want one live run", ids)
	}
	return surface{name: "casa-serve", base: base, id: ids[0], finish: func(t *testing.T) {
		be.release <- struct{}{}
		if code := <-posted; code != http.StatusOK {
			t.Errorf("seed request: code %d", code)
		}
	}}
}

// httpGet returns a GET's status code and body.
func httpGet(t *testing.T, url string) (int, string) {
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

// TestSurfaceMatrix sends one request matrix to the CLI sidecar's mux
// and to casa-serve's: every run-observation path answers the same way
// on both, wrong methods get 405 with Allow, the retired /progress,
// /events and /debug/runtrace are 404, and a run's event stream ends
// with "done" once the run finishes.
func TestSurfaceMatrix(t *testing.T) {
	const (
		get, head, post = http.MethodGet, http.MethodHead, http.MethodPost
		sidecar, server = "sidecar", "casa-serve"
	)
	rows := []struct {
		method, path string
		code         int
		has          []string // substrings of the body ("{id}" is the run ID)
		only         string   // "" = both surfaces
	}{
		{method: get, path: "/", code: 200, has: []string{"GET  /v1/runs\n", "GET  /v1/runs/{id}\n", "GET  /v1/runs/{id}/events\n", "GET  /walltrace\n", "GET  /metrics\n", "/debug/pprof/\n"}},
		{method: get, path: "/", code: 200, has: []string{"GET  /trace\n"}, only: sidecar},
		{method: get, path: "/", code: 200, has: []string{"POST /v1/seed\n", "GET  /v1/stats\n", "GET  /healthz\n"}, only: server},
		{method: get, path: "/v1/runs", code: 200, has: []string{`"runs": [`, `"{id}"`}},
		{method: get, path: "/v1/runs/{id}", code: 200, has: []string{`"schema": "casa-progress/v1"`, `"run_id": "{id}"`, `"done": false`}},
		{method: get, path: "/v1/runs/feedfacefeedface", code: 404, has: []string{"unknown run"}},
		{method: get, path: "/v1/runs/feedfacefeedface/events", code: 404},
		{method: get, path: "/walltrace", code: 200, has: []string{`"schema": "casa-walltrace/v1"`}},
		{method: get, path: "/trace", code: 200, has: []string{`"schema": "casa-trace/v1"`}, only: sidecar},
		{method: get, path: "/trace", code: 404, only: server},
		{method: get, path: "/metrics", code: 200},
		{method: get, path: "/debug/pprof/cmdline", code: 200},
		{method: head, path: "/v1/runs/{id}", code: 200},
		{method: head, path: "/walltrace", code: 200},
		{method: get, path: "/progress", code: 404},
		{method: get, path: "/events", code: 404},
		{method: get, path: "/debug/runtrace", code: 404},
		{method: get, path: "/no-such", code: 404},
		{method: post, path: "/", code: 405},
		{method: post, path: "/v1/runs", code: 405},
		{method: http.MethodPut, path: "/v1/runs/{id}", code: 405},
		{method: http.MethodDelete, path: "/v1/runs/{id}/events", code: 405},
		{method: post, path: "/walltrace", code: 405},
		{method: http.MethodPatch, path: "/metrics", code: 405},
		{method: post, path: "/trace", code: 405, only: sidecar},
	}
	for _, start := range []func(*testing.T) surface{sidecarSurface, serveSurface} {
		s := start(t)
		t.Run(s.name, func(t *testing.T) {
			for _, row := range rows {
				if row.only != "" && row.only != s.name {
					continue
				}
				path := strings.ReplaceAll(row.path, "{id}", s.id)
				req, err := http.NewRequest(row.method, s.base+path, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != row.code {
					t.Errorf("%s %s: code %d, want %d (%q)", row.method, row.path, resp.StatusCode, row.code, body)
					continue
				}
				if row.code == http.StatusMethodNotAllowed && resp.Header.Get("Allow") != "GET, HEAD" {
					t.Errorf("%s %s: Allow %q, want \"GET, HEAD\"", row.method, row.path, resp.Header.Get("Allow"))
				}
				for _, want := range row.has {
					if row.path != "/" { // the index lists patterns
						want = strings.ReplaceAll(want, "{id}", s.id)
					}
					if !strings.Contains(string(body), want) {
						t.Errorf("%s %s: body lacks %q:\n%s", row.method, row.path, want, body)
					}
				}
			}

			// The run's event stream: a live snapshot at once, "done" with the
			// terminal snapshot once the run finishes, then EOF.
			resp, err := http.Get(s.base + "/v1/runs/" + s.id + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); resp.StatusCode != 200 || ct != "text/event-stream" {
				t.Fatalf("events: code %d content type %q", resp.StatusCode, ct)
			}
			sc := bufio.NewScanner(resp.Body)
			var names []string
			var last progress.Snapshot
			for sc.Scan() {
				line := sc.Text()
				if name, ok := strings.CutPrefix(line, "event: "); ok {
					names = append(names, name)
					if len(names) == 1 {
						s.finish(t)
					}
				}
				if data, ok := strings.CutPrefix(line, "data: "); ok {
					if err := json.Unmarshal([]byte(data), &last); err != nil {
						t.Fatalf("event data does not parse: %v", err)
					}
				}
			}
			if len(names) < 2 || names[0] != "progress" || names[len(names)-1] != "done" {
				t.Fatalf("events %v, want progress first and done last", names)
			}
			if !last.Done || last.RunID != s.id || last.ReadsDone != last.TotalReads {
				t.Fatalf("terminal snapshot %+v", last)
			}
			if code, body := httpGet(t, s.base+"/v1/runs/"+s.id); code != 200 || !strings.Contains(body, `"done": true`) {
				t.Fatalf("finished run's snapshot: code %d body %s", code, body)
			}
		})
	}
}

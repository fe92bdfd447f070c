package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"casa/internal/batch"
	"casa/internal/core"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/metrics"
	"casa/internal/seqio"
	_ "casa/internal/shard" // registers sharded:fmindex
	"casa/internal/smem"
	"casa/internal/trace"
)

// testRef returns a deterministic reference and a FASTQ batch of reads
// sampled from it.
func testRef(t *testing.T, bases, nReads, readLen int) (dna.Sequence, []byte, []dna.Sequence) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ref := make(dna.Sequence, bases)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	var fq bytes.Buffer
	var reads []dna.Sequence
	for i := 0; i < nReads; i++ {
		at := rng.Intn(bases - readLen)
		read := ref[at : at+readLen]
		reads = append(reads, read)
		fmt.Fprintf(&fq, "@r%d\n%s\n+\n%s\n", i, read, strings.Repeat("I", readLen))
	}
	return ref, fq.Bytes(), reads
}

func startTestServer(t *testing.T, ref dna.Sequence, cfg Config) *Server {
	t.Helper()
	s, err := Start("127.0.0.1:0", ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// postSeed submits a batch and decodes the report (also returning the
// raw bytes: *metrics.Registry serializes but does not deserialize, so
// byte-level comparisons go through the raw document).
func postSeed(t *testing.T, url string, body []byte) (int, *Report, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, raw
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report does not parse: %v (%s)", err, raw)
	}
	return resp.StatusCode, &rep, raw
}

// metricsJSON extracts and compacts the report's metrics object.
func metricsJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc struct {
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, doc.Metrics); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSeedMatchesOfflineRun pins the serving contract: a served batch
// reports the same modelled fields as running the registry engine
// directly over the same inputs — and two concurrent requests against
// one loaded reference both do.
func TestSeedMatchesOfflineRun(t *testing.T) {
	ref, fq, reads := testRef(t, 1<<14, 60, 80)
	cfg := Config{Engine: "casa", Workers: 4, EngineOptions: engine.Options{MinSMEM: 19}}
	s := startTestServer(t, ref, cfg)

	// The offline equivalent: same engine, same options, same pool shape.
	eng, err := engine.New("casa", ref, engine.Options{MinSMEM: 19})
	if err != nil {
		t.Fatal(err)
	}
	wantReg := metrics.New()
	res, done, err := batch.SeedEngineCtx(context.Background(), eng.Clone(),
		reads, batch.Options{Workers: 4, Metrics: wantReg})
	if err != nil || done != len(reads) {
		t.Fatalf("offline run: done %d err %v", done, err)
	}
	wantSMEMs := 0
	for _, ms := range eng.SMEMs(res) {
		wantSMEMs += len(ms)
	}
	wantMetrics, err := json.Marshal(wantReg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	reports := make([]*Report, 2)
	raws := make([][]byte, 2)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, rep, raw := postSeed(t, "http://"+s.Addr()+"/v1/seed", fq)
			if code != http.StatusOK {
				t.Errorf("request %d: code %d", i, code)
				return
			}
			reports[i], raws[i] = rep, raw
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for i, rep := range reports {
		if rep == nil {
			t.Fatalf("request %d: no report", i)
		}
		if rep.Schema != ReportSchema || rep.Engine != "casa" || rep.MinSMEM != 19 || rep.Workers != 4 {
			t.Fatalf("request %d header fields wrong: %+v", i, rep)
		}
		if rep.Reads != len(reads) || rep.SMEMs != wantSMEMs || rep.Interrupted {
			t.Fatalf("request %d: reads %d smems %d interrupted %v; want %d, %d, false",
				i, rep.Reads, rep.SMEMs, rep.Interrupted, len(reads), wantSMEMs)
		}
		if got := metricsJSON(t, raws[i]); !bytes.Equal(got, wantMetrics) {
			t.Fatalf("request %d: served metrics differ from the offline run's", i)
		}
		if seen[rep.RunID] {
			t.Fatalf("run ID %s reused across requests", rep.RunID)
		}
		seen[rep.RunID] = true
	}
}

// TestSeedResultsExtension checks ?include=smems returns per-read SMEM
// sets agreeing with a direct engine run.
func TestSeedResultsExtension(t *testing.T) {
	ref, fq, reads := testRef(t, 1<<13, 10, 60)
	s := startTestServer(t, ref, Config{Engine: "fmindex"})

	code, rep, _ := postSeed(t, "http://"+s.Addr()+"/v1/seed?include=smems", fq)
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if len(rep.Results) != len(reads) {
		t.Fatalf("results cover %d reads, want %d", len(rep.Results), len(reads))
	}
	eng, err := engine.New("fmindex", ref, engine.Options{MinSMEM: 19})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.SMEMs(eng.Reduce([]engine.Activity{eng.SeedTrace(reads, nil, 0)}))
	for i, rs := range rep.Results {
		if rs.Name != fmt.Sprintf("r%d", i) {
			t.Fatalf("result %d named %q", i, rs.Name)
		}
		got := make([]smem.Match, len(rs.SMEMs))
		for j, m := range rs.SMEMs {
			got[j] = smem.Match{Start: m.Start, End: m.End, Hits: m.Hits}
		}
		if !smem.SameIntervals(got, want[i]) {
			t.Fatalf("read %d: served SMEMs %v, engine says %v", i, got, want[i])
		}
	}
}

// TestSeedSSE drives the streaming response: progress events (the first
// immediately), then the terminal report event carrying casa-smem/v1.
func TestSeedSSE(t *testing.T) {
	ref, fq, reads := testRef(t, 1<<14, 40, 80)
	s := startTestServer(t, ref, Config{Engine: "casa", Workers: 2})

	req, err := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/seed", bytes.NewReader(fq))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if resp.Header.Get("X-Casa-Run") == "" {
		t.Fatal("no X-Casa-Run header on the stream")
	}

	var progressEvents int
	var report *Report
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				progressEvents++
			case "report":
				report = new(Report)
				if err := json.Unmarshal([]byte(data), report); err != nil {
					t.Fatalf("report event does not parse: %v", err)
				}
			default:
				t.Fatalf("unexpected event %q", event)
			}
		}
	}
	if progressEvents < 1 {
		t.Fatal("stream carried no progress events")
	}
	if report == nil {
		t.Fatal("stream ended without a report event")
	}
	if report.Schema != ReportSchema || report.Reads != len(reads) || report.Interrupted {
		t.Fatalf("terminal report wrong: %+v", report)
	}
}

// blockingEngine is a registry-shaped engine whose seeding blocks until
// released, for driving queue admission and cancellation determinism.
type blockingEngine struct {
	release chan struct{} // closed (or received from) to let a shard finish
	started chan struct{} // signalled once a shard begins seeding
}

// blockAct records how many reads its shard held.
type blockAct struct{ n int }

func (blockAct) PublishMetrics(*metrics.Registry) {}

type blockRes struct{ n int }

func (blockRes) PublishModelMetrics(*metrics.Registry) {}

func (e *blockingEngine) Name() string         { return "blocking" }
func (e *blockingEngine) Clone() engine.Engine { return e } // shared channels are the point
func (e *blockingEngine) SeedTrace(reads []dna.Sequence, _ *trace.Buffer, _ int) engine.Activity {
	select {
	case e.started <- struct{}{}:
	default:
	}
	<-e.release
	return blockAct{len(reads)}
}
func (e *blockingEngine) Reduce(acts []engine.Activity) engine.Result {
	n := 0
	for _, a := range acts {
		n += a.(blockAct).n
	}
	return blockRes{n}
}
func (e *blockingEngine) SMEMs(res engine.Result) [][]smem.Match {
	return make([][]smem.Match, res.(blockRes).n)
}
func (e *blockingEngine) Seeds(acts []engine.Activity) []engine.Seeds {
	return make([]engine.Seeds, e.Reduce(acts).(blockRes).n)
}

// fastqBatch builds a tiny FASTQ payload of n reads.
func fastqBatch(n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "@q%d\nACGTACGTACGT\n+\nIIIIIIIIIIII\n", i)
	}
	return b.Bytes()
}

// TestQueueBackpressure fills the queue behind a blocked run and checks
// the overflow request gets 429 + Retry-After, then that releasing the
// engine completes every admitted request.
func TestQueueBackpressure(t *testing.T) {
	be := &blockingEngine{release: make(chan struct{}), started: make(chan struct{}, 16)}
	s, err := StartEngine("127.0.0.1:0", be, Config{QueueDepth: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	url := "http://" + s.Addr() + "/v1/seed"

	type outcome struct {
		code int
		rep  *Report
	}
	results := make(chan outcome, 2)
	post := func() {
		code, rep, _ := postSeed(t, url, fastqBatch(3))
		results <- outcome{code, rep}
	}
	go post() // occupies the dispatcher
	select {
	case <-be.started:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never started seeding")
	}
	go post() // sits in the queue (depth 1)
	// The queued slot is taken asynchronously; wait until it shows up.
	deadline := time.After(10 * time.Second)
	for len(s.queue) == 0 {
		select {
		case <-deadline:
			t.Fatal("second request never queued")
		case <-time.After(time.Millisecond):
		}
	}

	resp, err := http.Post(url, "text/plain", bytes.NewReader(fastqBatch(3)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: code %d body %q, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}

	close(be.release)
	for i := 0; i < 2; i++ {
		select {
		case o := <-results:
			if o.code != http.StatusOK || o.rep == nil || o.rep.Reads != 3 {
				t.Fatalf("admitted request %d: code %d report %+v", i, o.code, o.rep)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("admitted request never completed after release")
		}
	}
}

// TestClientDisconnectFreesSlot cancels a streaming request mid-run and
// checks the dispatcher moves on: the next request is served by the same
// engine.
func TestClientDisconnectFreesSlot(t *testing.T) {
	be := &blockingEngine{release: make(chan struct{}, 16), started: make(chan struct{}, 16)}
	s, err := StartEngine("127.0.0.1:0", be, Config{QueueDepth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	url := "http://" + s.Addr() + "/v1/seed"

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(fastqBatch(1)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-be.started:
	case <-time.After(10 * time.Second):
		t.Fatal("streaming request never started seeding")
	}
	cancel() // client walks away mid-shard
	<-errc
	// The claimed shard must still drain (RunCtx semantics): release it.
	be.release <- struct{}{}

	// The slot is free: an ordinary request completes.
	done := make(chan *Report, 1)
	go func() {
		_, rep, _ := postSeed(t, url, fastqBatch(1))
		done <- rep
	}()
	select {
	case <-be.started:
		be.release <- struct{}{} // one read = one shard
	case <-time.After(10 * time.Second):
		t.Fatal("follow-up request never reached the engine: slot not freed")
	}
	select {
	case rep := <-done:
		if rep == nil || rep.Reads != 1 || rep.Interrupted {
			t.Fatalf("follow-up report wrong: %+v", rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follow-up request never completed")
	}
}

// TestRunsEndpoint checks run snapshots are addressable during and after
// a run, and unknown IDs 404.
func TestRunsEndpoint(t *testing.T) {
	ref, fq, reads := testRef(t, 1<<13, 20, 60)
	s := startTestServer(t, ref, Config{Engine: "casa"})
	base := "http://" + s.Addr()

	code, rep, _ := postSeed(t, base+"/v1/seed", fq)
	if code != http.StatusOK {
		t.Fatalf("seed: code %d", code)
	}
	resp, err := http.Get(base + "/v1/runs/" + rep.RunID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/runs/%s: code %d", rep.RunID, resp.StatusCode)
	}
	var snap struct {
		Schema    string `json:"schema"`
		RunID     string `json:"run_id"`
		ReadsDone int64  `json:"reads_done"`
		Done      bool   `json:"done"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != "casa-progress/v1" || snap.RunID != rep.RunID ||
		snap.ReadsDone != int64(len(reads)) || !snap.Done {
		t.Fatalf("terminal snapshot wrong: %+v", snap)
	}

	if resp, err := http.Get(base + "/v1/runs/deadbeef"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown run: code %d, want 404", resp.StatusCode)
		}
	}

	var runs struct {
		Runs []string `json:"runs"`
	}
	resp2, err := http.Get(base + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&runs); err != nil {
		t.Fatal(err)
	}
	if len(runs.Runs) != 1 || runs.Runs[0] != rep.RunID {
		t.Fatalf("run inventory %v, want [%s]", runs.Runs, rep.RunID)
	}
}

// TestSeedRejections covers the request-validation surface: bad methods,
// empty and malformed bodies, oversized batches, multipart extraction.
func TestSeedRejections(t *testing.T) {
	ref, _, _ := testRef(t, 1<<12, 1, 60)
	s := startTestServer(t, ref, Config{Engine: "fmindex", MaxBodyBytes: 256})
	url := "http://" + s.Addr() + "/v1/seed"

	if resp, err := http.Get(url); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/seed: code %d, want 405", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
			t.Fatalf("Allow %q, want POST", allow)
		}
	}
	for name, body := range map[string][]byte{
		"empty":     nil,
		"malformed": []byte("this is not a sequence format"),
	} {
		code, _, _ := postSeed(t, url, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s body: code %d, want 400", name, code)
		}
	}
	code, _, _ := postSeed(t, url, fastqBatch(64)) // > 256 bytes
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: code %d, want 413", code)
	}

	// Multipart upload (curl -F reads=@reads.fq).
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("reads", "reads.fq")
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(fastqBatch(2))
	mw.Close()
	resp, err := http.Post(url, mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge && resp.StatusCode != http.StatusOK {
		t.Fatalf("multipart: code %d", resp.StatusCode)
	}
}

// TestSeedRejectsReadPastShardOverlap: a sharded engine seeds exactly
// only reads up to its shard overlap, so a longer read is a 400 naming
// the read and the overlap, while a batch of reads that fit is seeded.
func TestSeedRejectsReadPastShardOverlap(t *testing.T) {
	rejectsReadsPast(t, Config{
		Engine:        "sharded:fmindex",
		EngineOptions: engine.Options{Shards: 2, ShardOverlap: 64},
	}, 64, "64-base shard overlap")
}

// TestSeedRejectsReadPastPartitionCut: casa cut into partitions seeds
// exactly only reads up to the partition overlap plus one.
func TestSeedRejectsReadPastPartitionCut(t *testing.T) {
	rejectsReadsPast(t, Config{Engine: "casa", EngineOptions: engine.Options{Partition: 1024}},
		core.DefaultPartitionOverlap+1, "casa partition cut")
}

// rejectsReadsPast starts a server with cfg over a 4 kbase reference and
// requires reads of limit bases to be seeded, and a read one base longer
// to be a 400 naming the read, its length and mention.
func rejectsReadsPast(t *testing.T, cfg Config, limit int, mention string) {
	t.Helper()
	ref, fits, _ := testRef(t, 1<<12, 4, limit)
	s := startTestServer(t, ref, cfg)
	url := "http://" + s.Addr() + "/v1/seed"
	if code, _, raw := postSeed(t, url, fits); code != http.StatusOK {
		t.Fatalf("reads at the limit: code %d (%s), want 200", code, raw)
	}
	long := fmt.Sprintf("@r0\n%s\n+\n%s\n@long\n%s\n+\n%s\n",
		ref[:limit], strings.Repeat("I", limit), ref[100:100+limit+1], strings.Repeat("I", limit+1))
	code, _, raw := postSeed(t, url, []byte(long))
	if code != http.StatusBadRequest {
		t.Fatalf("read past the limit: code %d, want 400", code)
	}
	for _, want := range []string{`read "long"`, fmt.Sprintf("%d bases", limit+1), mention} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("400 body %q does not mention %q", raw, want)
		}
	}
}

// TestDrainFinishesInFlight starts a run, shuts the server down while it
// is in flight, and checks Shutdown waits for the run and the client
// still receives its full report.
func TestDrainFinishesInFlight(t *testing.T) {
	be := &blockingEngine{release: make(chan struct{}), started: make(chan struct{}, 16)}
	s, err := StartEngine("127.0.0.1:0", be, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.Addr()

	done := make(chan *Report, 1)
	go func() {
		_, rep, _ := postSeed(t, url+"/v1/seed", fastqBatch(2))
		done <- rep
	}()
	select {
	case <-be.started:
	case <-time.After(10 * time.Second):
		t.Fatal("request never started seeding")
	}

	shut := make(chan error, 1)
	go func() { shut <- s.Close() }()
	// Draining: readiness flips and new work is refused.
	deadline := time.After(10 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			break // listener already closed: also an acceptable drain state
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		select {
		case <-deadline:
			t.Fatal("healthz never reported draining")
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case <-shut:
		t.Fatal("Shutdown returned while a run was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(be.release)
	select {
	case err := <-shut:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung after the run finished")
	}
	select {
	case rep := <-done:
		if rep == nil || rep.Reads != 2 {
			t.Fatalf("drained request report wrong: %+v", rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained request never answered")
	}
}

// TestParseReadsSniffsFormats covers the FASTA/FASTQ sniffing.
func TestParseReadsSniffsFormats(t *testing.T) {
	fa := ">a\nACGT\n>b\nGGGG\n"
	recs, err := parseReads(strings.NewReader(fa))
	if err != nil || len(recs) != 2 || recs[0].Name != "a" {
		t.Fatalf("FASTA: %v, %v", recs, err)
	}
	fq := "@a\nACGT\n+\nIIII\n"
	recs, err = parseReads(strings.NewReader(fq))
	if err != nil || len(recs) != 1 || len(recs[0].Qual) != 4 {
		t.Fatalf("FASTQ: %v, %v", recs, err)
	}
	if _, err := parseReads(strings.NewReader("")); err == nil {
		t.Fatal("empty body accepted")
	}
	if _, err := parseReads(strings.NewReader("ACGT")); err == nil {
		t.Fatal("headerless body accepted")
	}
	_ = seqio.Record{}
}

// TestIncludeRejectsUnknown pins the ?include= validation: a typo'd value
// is a 400 naming the supported set, not a silently thinner report.
func TestIncludeRejectsUnknown(t *testing.T) {
	ref, fq, _ := testRef(t, 1<<12, 2, 60)
	s := startTestServer(t, ref, Config{Engine: "fmindex"})
	url := "http://" + s.Addr() + "/v1/seed"

	code, _, raw := postSeed(t, url+"?include=smem", fq)
	if code != http.StatusBadRequest {
		t.Fatalf("?include=smem: code %d, want 400", code)
	}
	if !strings.Contains(string(raw), `"smem"`) || !strings.Contains(string(raw), "smems") {
		t.Fatalf("rejection %q names neither the bad value nor the supported set", raw)
	}
	// An empty value is a harmless no-op, not an error.
	if code, _, _ := postSeed(t, url+"?include=", fq); code != http.StatusOK {
		t.Fatalf("?include=: code %d, want 200", code)
	}
}

// TestRetryAfterSeconds pins the 429 hint derivation: queue occupancy
// times the median run, ceil'd to seconds and clamped to [1, 300], with
// a 1s fallback before any run has completed.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		queued int
		p50us  int64
		want   int
	}{
		{0, 0, 1},               // nothing observed yet: fallback
		{5, -1, 1},              // defensive: negative estimate
		{0, 400_000, 1},         // 1 running x 0.4s rounds up to 1s
		{2, 1_500_000, 5},       // (2+1) x 1.5s = 4.5s -> 5s
		{1, 1_000_000, 2},       // exact seconds stay exact
		{7, 3_600_000_000, 300}, // clamp: hours-long estimates cap at 300s
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.queued, c.p50us); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d) = %d, want %d", c.queued, c.p50us, got, c.want)
		}
	}
}

// TestStatsEndpoint seeds one batch and checks GET /v1/stats reflects it:
// schema, terminal run counts, populated latency quantiles and (after the
// middleware's deferred record lands) the per-endpoint http map.
func TestStatsEndpoint(t *testing.T) {
	ref, fq, reads := testRef(t, 1<<13, 10, 60)
	s := startTestServer(t, ref, Config{Engine: "casa"})
	base := "http://" + s.Addr()

	if code, _, _ := postSeed(t, base+"/v1/seed", fq); code != http.StatusOK {
		t.Fatalf("seed: code %d", code)
	}

	getStats := func() Stats {
		t.Helper()
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/stats: code %d", resp.StatusCode)
		}
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := getStats()
	if st.Schema != StatsSchema || st.Engine != "casa" {
		t.Fatalf("stats header wrong: %+v", st)
	}
	if st.RunsAccepted != 1 || st.RunsCompleted != 1 || st.RunsRejected != 0 {
		t.Fatalf("run counts wrong: %+v", st)
	}
	if st.ReadsSeeded != int64(len(reads)) {
		t.Fatalf("reads_seeded = %d, want %d", st.ReadsSeeded, len(reads))
	}
	if st.QueueCapacity != 8 || st.QueueDepth != 0 {
		t.Fatalf("queue state wrong: %+v", st)
	}
	if st.RunDuration.Count != 1 || st.RunDuration.P50us <= 0 || st.RunDuration.P99us < st.RunDuration.P50us {
		t.Fatalf("run_duration quantiles wrong: %+v", st.RunDuration)
	}
	if st.QueueWait.Count != 1 {
		t.Fatalf("queue_wait count = %d, want 1", st.QueueWait.Count)
	}
	if st.UptimeSeconds < 0 {
		t.Fatalf("uptime %f", st.UptimeSeconds)
	}
	if st.TraceSpans < 4 {
		t.Fatalf("trace_spans = %d, want the run's lifecycle chain", st.TraceSpans)
	}

	// The middleware records a request's histogram after its response is
	// written, so the seed request's entry may land a beat after the
	// client sees the report: poll for the http map.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if q, ok := getStats().HTTP["v1_seed"]; ok && q.Count >= 1 && q.P50us > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("http map never gained v1_seed: %+v", getStats().HTTP)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunTraceEndpoint checks /walltrace serves a Chrome trace with
// the lifecycle span chain of a completed run, named by its run ID.
func TestRunTraceEndpoint(t *testing.T) {
	ref, fq, _ := testRef(t, 1<<13, 5, 60)
	s := startTestServer(t, ref, Config{Engine: "casa"})
	base := "http://" + s.Addr()

	code, rep, _ := postSeed(t, base+"/v1/seed", fq)
	if code != http.StatusOK {
		t.Fatalf("seed: code %d", code)
	}

	type traceDoc struct {
		Events []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			Cat   string `json:"cat"` // lifecycle track of "X" span events
			TS    *int64 `json:"ts"`
			Dur   *int64 `json:"dur"`
		} `json:"traceEvents"`
		Other struct {
			Schema string `json:"schema"`
			Domain string `json:"domain"`
		} `json:"otherData"`
	}
	getTrace := func() traceDoc {
		t.Helper()
		resp, err := http.Get(base + "/walltrace")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /walltrace: code %d", resp.StatusCode)
		}
		var doc traceDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	doc := getTrace()
	if doc.Other.Schema != trace.WallSchemaVersion || doc.Other.Domain != "wall" {
		t.Fatalf("trace header wrong: %+v", doc.Other)
	}
	tracks := map[string]bool{}
	for _, ev := range doc.Events {
		if ev.Phase != "X" || ev.Name != rep.RunID {
			continue
		}
		tracks[ev.Cat] = true
		if ev.TS == nil || ev.Dur == nil || *ev.TS < 0 || *ev.Dur < 0 {
			t.Fatalf("span on %q has bad ts/dur: %+v", ev.Cat, ev)
		}
	}
	for _, want := range []string{"received", "parsed", "queued", "running"} {
		if !tracks[want] {
			t.Fatalf("run %s has no %q span (tracks %v)", rep.RunID, want, tracks)
		}
	}
	// The reporting span is emitted after the response is written, so it
	// may trail the client's read: poll for it.
	deadline := time.Now().Add(10 * time.Second)
	for !tracks["reporting"] {
		if time.Now().After(deadline) {
			t.Fatal("reporting span never appeared")
		}
		time.Sleep(5 * time.Millisecond)
		for _, ev := range getTrace().Events {
			if ev.Phase == "X" && ev.Name == rep.RunID {
				tracks[ev.Cat] = true
			}
		}
	}
}

// TestRunWallFolding pins the per-run pool profiling: a served run's
// batch-layer shard spans are nested into the lifecycle trace (casa-serve
// process, worker label as track, run ID prefixed to the name) and feed
// the lifetime utilization stats (worker_busy_us, run_imbalance).
func TestRunWallFolding(t *testing.T) {
	ref, fq, _ := testRef(t, 1<<13, 12, 60)
	s := startTestServer(t, ref, Config{Engine: "casa", Workers: 2})
	base := "http://" + s.Addr()

	code, rep, _ := postSeed(t, base+"/v1/seed", fq)
	if code != http.StatusOK {
		t.Fatalf("seed: code %d", code)
	}

	var shardSpans, hostSpans int
	for _, sp := range s.wall.Spans() {
		if !strings.HasPrefix(sp.Name, rep.RunID+" ") {
			continue
		}
		name := strings.TrimPrefix(sp.Name, rep.RunID+" ")
		if sp.Proc != wallProc {
			t.Fatalf("folded span %+v not on the %q process", sp, wallProc)
		}
		if _, _, _, ok := trace.ParseWallShardName(name); ok {
			shardSpans++
			if _, ok := trace.ParseWallWorkerProc(sp.Track); !ok {
				t.Fatalf("shard span %+v track is not a worker label", sp)
			}
		}
		if sp.Track == trace.WallHostProc {
			hostSpans++
		}
	}
	if shardSpans == 0 {
		t.Fatal("no shard spans folded into the lifecycle trace")
	}
	if hostSpans == 0 {
		t.Fatal("no host-phase (reduce/merge) spans folded into the lifecycle trace")
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.WorkerBusyUS <= 0 {
		t.Fatalf("worker_busy_us = %d, want > 0", st.WorkerBusyUS)
	}
	if st.RunImbalance.Count != 1 {
		t.Fatalf("run_imbalance count = %d, want 1", st.RunImbalance.Count)
	}
	// Permille ratio: max/mean >= 1 by construction, so >= 1000.
	if st.RunImbalance.P50us < 1000 {
		t.Fatalf("run_imbalance p50 = %d permille, want >= 1000", st.RunImbalance.P50us)
	}
}

// TestHealthzBuildInfo checks the readiness body carries the build
// identity without breaking status-code-only consumers.
func TestHealthzBuildInfo(t *testing.T) {
	ref, _, _ := testRef(t, 1<<12, 1, 60)
	s := startTestServer(t, ref, Config{Engine: "casa"})

	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: code %d", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
		Engine string `json:"engine"`
		Build  struct {
			Module    string `json:"module"`
			GoVersion string `json:"go_version"`
		} `json:"build_info"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Engine != "casa" {
		t.Fatalf("healthz body %+v", body)
	}
	if body.Build.Module != "casa" || body.Build.GoVersion == "" {
		t.Fatalf("healthz build info %+v", body.Build)
	}
}

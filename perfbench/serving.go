package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/seqio"
	"casa/internal/serve"
	_ "casa/internal/shard" // registers sharded:fmindex for engine.LoadIndex
	"casa/internal/trace"
)

// serve-sharded measures a one-worker server from one client on one
// connection. The end-to-end run is a closed loop: each request is sent
// when the previous answer arrives, so it measures per-request cost and
// capacity. On a shared 2-CPU host an open loop was not steady: between
// requests the CPUs idle, and waking them costs what the host's load
// decides, so the p90 of identical open-loop runs ranged from 10 to 37 ms.
// The traced run adds an open-loop window at serveRate, half the capacity
// the parent code showed (141 requests/s of 16 reads), for the queueing
// and generator-lateness metrics.
const (
	serveWorkers    = 1
	readsPerRequest = 16
	serveRate       = 70 // requests per second, traced open-loop window
	serveWarmup     = time.Second
	// backlogLimit is how long past its schedule an overloaded open loop
	// keeps sending; requests still unsent then count as failed.
	backlogLimit   = 5 * time.Second
	setupRepeats   = 5
	replayRequests = 300 // request bodies the traced replay seeds layer by layer
)

// requestBodies splits the bulk FASTQ into request bodies of
// readsPerRequest consecutive reads.
func requestBodies(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bodies [][]byte
	var cur bytes.Buffer
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	for line := 0; sc.Scan(); line++ {
		cur.Write(sc.Bytes())
		cur.WriteByte('\n')
		if line%4 == 3 {
			if n++; n == readsPerRequest {
				bodies = append(bodies, append([]byte(nil), cur.Bytes()...))
				cur.Reset()
				n = 0
			}
		}
	}
	return bodies, sc.Err()
}

// startServer loads the sharded index and starts serving it: the set-up a
// casa-serve -index process performs before it accepts requests.
func startServer(path string, log *slog.Logger) (*serve.Server, time.Duration, error) {
	t := time.Now()
	eng, err := loadIndex(path)
	if err != nil {
		return nil, 0, err
	}
	srv, err := serve.StartEngine("127.0.0.1:0", eng, serve.Config{
		Engine: eng.Name(), EngineOptions: engine.Options{MinSMEM: minSMEM}, Workers: serveWorkers, Log: log,
	})
	return srv, time.Since(t), err
}

// medianSetup starts the server setupRepeats times and keeps the last one.
func medianSetup(path string, log *slog.Logger) (*serve.Server, float64, error) {
	var setups []float64
	var srv *serve.Server
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.Close(); err != nil {
				return nil, 0, err
			}
			srv = nil
			runtime.GC()
		}
		s, d, err := startServer(path, log)
		if err != nil {
			return nil, 0, err
		}
		srv = s
		setups = append(setups, sec(d))
	}
	return srv, median(setups), nil
}

// reply is one request's answer as the generator saw it.
type reply struct {
	status int
	body   []byte
	runID  string
	err    error
}

// loadGen drives one server.
type loadGen struct {
	ctx    context.Context
	url    string
	client *http.Client
	bodies [][]byte
	next   int // next body to send
}

func newLoadGen(ctx context.Context, srv *serve.Server, bodies [][]byte) *loadGen {
	return &loadGen{
		ctx: ctx,
		url: "http://" + srv.Addr() + "/v1/seed?include=smems",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		bodies: bodies,
	}
}

// window is one load-generator run: the requests sent, in order, with
// their answers, and how many were due (for a closed loop, those sent).
type window struct {
	recs    []sendRecord
	replies []reply
	due     int
}

// run sends requests for length: back to back when rate is 0, else on an
// open-loop schedule of rate requests per second.
func (g *loadGen) run(length time.Duration, rate int) window {
	c := wallClock{t0: time.Now()}
	var replies []reply
	send := func(int) time.Duration {
		b := g.next % len(g.bodies)
		g.next++
		var r reply
		req, err := http.NewRequestWithContext(g.ctx, http.MethodPost, g.url, bytes.NewReader(g.bodies[b]))
		if err == nil {
			var resp *http.Response
			if resp, err = g.client.Do(req); err == nil {
				r.status, r.runID = resp.StatusCode, resp.Header.Get("X-Casa-Run")
				r.body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
		}
		r.err = err
		replies = append(replies, r)
		return c.now()
	}
	if rate == 0 {
		recs := closedLoop(c, length, send, func() bool { return g.ctx.Err() != nil })
		return window{recs, replies, len(recs)}
	}
	period := time.Second / time.Duration(rate)
	recs := openLoop(c, period, length, send, func() bool { return g.ctx.Err() != nil || c.now() > length+backlogLimit })
	return window{recs, replies, int((length + period - 1) / period)}
}

// ok reports whether request i was answered.
func (w window) ok(i int) bool {
	return w.replies[i].err == nil && w.replies[i].status == http.StatusOK
}

// served is the part of a casa-smem/v1 report the check reads.
type served struct {
	Reads   int `json:"reads"`
	Results []struct {
		Name  string `json:"name"`
		SMEMs []struct {
			Start int `json:"start"`
			End   int `json:"end"`
			Hits  int `json:"hits"`
		} `json:"smems"`
	} `json:"results"`
}

// checkReplies counts failed requests — unanswered, refused, erroring or
// never sent — and correct reads: every read's SMEMs, occurrence counts
// included, must equal the flat fmindex engine's.
func checkReplies(w window, want []expectation, t *tally) (correct int) {
	t.add(w.due-len(w.replies), true)
	for i, r := range w.replies {
		var rep served
		bad := !w.ok(i) || json.Unmarshal(r.body, &rep) != nil ||
			rep.Reads != readsPerRequest || len(rep.Results) != readsPerRequest
		t.add(1, bad)
		if bad {
			continue
		}
		for _, res := range rep.Results {
			i, ok := simIndex(res.Name)
			if !ok || i >= len(want) {
				continue
			}
			got := make([]smemT, len(res.SMEMs))
			for k, m := range res.SMEMs {
				got[k] = smemT{m.Start, m.End, m.Hits}
			}
			if sameSMEMs(got, want[i].smems, true) {
				correct++
			}
		}
	}
	return correct
}

// latencies returns due-time latencies in ms; a request that failed or was
// never sent counts as missing every latency limit.
func (w window) latencies() []float64 {
	out := make([]float64, w.due)
	for i := range out {
		out[i] = math.Inf(1)
		if i < len(w.recs) && w.ok(i) {
			out[i] = ms(w.recs[i].latency())
		}
	}
	return out
}

// goodput is the reads answered successfully per second of the schedule,
// from the first due time to the last response byte.
func (w window) goodput() float64 {
	reads := 0
	for i := range w.replies {
		if w.ok(i) {
			reads += readsPerRequest
		}
	}
	return float64(reads) / sec(w.recs[len(w.recs)-1].done-w.recs[0].due)
}

func discardLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func serveRun(ctx context.Context, e env) (outcome, error) {
	var o outcome
	want, err := loadExpected(e.in.expected)
	if err != nil {
		return o, err
	}
	bodies, err := requestBodies(e.in.bulk)
	if err != nil {
		return o, err
	}
	srv, setup, err := medianSetup(e.in.shardIdx, discardLog())
	if err != nil {
		return o, err
	}
	defer srv.Close()
	g := newLoadGen(ctx, srv, bodies)
	g.run(serveWarmup, 0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := g.run(e.seconds, 0)
	runtime.ReadMemStats(&m1)
	if err := ctx.Err(); err != nil {
		return o, err
	}
	lat := w.latencies()
	fmt.Fprintf(os.Stderr, "perfbench: %d requests, latency ms p50 %.2f p90 %.2f p99 %.2f max %.2f, %d GC cycles\n",
		len(lat), percentile(lat, 500), percentile(lat, 900), percentile(lat, 990), percentile(lat, 1000), m1.NumGC-m0.NumGC)
	correct := checkReplies(w, want, &o.t)
	o.correct = o.t.failed == 0 && correct == w.due*readsPerRequest
	o.set("setup_s", setup, "s")
	o.set("reads_per_s", w.goodput(), "reads/s")
	o.set("mem_mib", selfMaxRSSMiB(), "MiB")
	o.set("correct_frac", float64(correct)/float64(w.due*readsPerRequest), "frac")
	o.set("ok_frac", o.t.okFrac(), "frac")
	return o, setLatency(&o, [][]float64{w.latencies()})
}

// runLog captures the server's "run finished" records, which carry each
// run's time in the seeding pool, while on; the records also go to the
// wrapped handler, as they do when off.
type runLog struct {
	slog.Handler
	on   atomic.Bool
	mu   sync.Mutex
	runs map[string]time.Duration // run ID -> run time
}

func (h *runLog) Handle(ctx context.Context, r slog.Record) error {
	if h.on.Load() && r.Message == "run finished" {
		var id string
		var us int64
		r.Attrs(func(a slog.Attr) bool {
			switch a.Key {
			case "run_id":
				id = a.Value.String()
			case "run_us":
				us = a.Value.Int64()
			}
			return true
		})
		h.mu.Lock()
		h.runs[id] = time.Duration(us) * time.Microsecond
		h.mu.Unlock()
	}
	return h.Handler.Handle(ctx, r)
}

func serveTraced(ctx context.Context, e env) (outcome, error) {
	var o outcome
	want, err := loadExpected(e.in.expected)
	if err != nil {
		return o, err
	}
	bodies, err := requestBodies(e.in.bulk)
	if err != nil {
		return o, err
	}
	heap, err := heapOfLoad(e.in.shardIdx)
	if err != nil {
		return o, err
	}
	o.set("idxio.heap_mib", heap, "MiB")

	// Serving, on one server: an untraced and a traced closed-loop window,
	// then an open-loop window at serveRate.
	h := &runLog{Handler: slog.NewTextHandler(io.Discard, nil), runs: map[string]time.Duration{}}
	srv, _, err := startServer(e.in.shardIdx, slog.New(h))
	if err != nil {
		return o, err
	}
	defer srv.Close()
	g := newLoadGen(ctx, srv, bodies)
	g.run(serveWarmup, 0)
	wu := g.run(e.seconds, 0)
	h.on.Store(true)
	wt := g.run(e.seconds, 0)
	h.on.Store(false)
	wo := g.run(e.seconds, serveRate)
	if err := ctx.Err(); err != nil {
		return o, err
	}
	correct := 0
	for _, w := range []window{wu, wt, wo} {
		correct += checkReplies(w, want, &o.t)
	}
	o.correct = o.t.failed == 0 && correct == o.t.attempted*readsPerRequest
	o.set("trace.overhead_frac", percentile(wt.latencies(), 500)/percentile(wu.latencies(), 500)-1, "frac")
	open := wo.latencies()
	if p, ok := tailPermille(len(open), 990); !ok || p != 990 {
		return o, fmt.Errorf("%d open-loop requests are too few for a p99 with %d beyond", len(open), tailBeyond)
	}
	o.set("serve.open_latency_p50_ms", percentile(open, 500), "ms")
	o.set("serve.open_latency_p99_ms", percentile(open, 990), "ms")

	var st serve.Stats
	resp, err := http.Get("http://" + srv.Addr() + "/v1/stats")
	if err != nil {
		return o, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return o, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	o.set("serve.queue_wait_ms_p50", float64(st.QueueWait.P50us)/1000, "ms")
	o.set("serve.queue_wait_ms_p99", float64(st.QueueWait.P99us)/1000, "ms")
	o.set("serve.run_ms_p50", float64(st.RunDuration.P50us)/1000, "ms")
	o.set("serve.rejected", float64(st.RunsRejected), "count")

	var over, late []float64
	var kib float64
	h.mu.Lock()
	for i, r := range wt.replies {
		if run, ok := h.runs[r.runID]; ok {
			over = append(over, ms(wt.recs[i].done-wt.recs[i].sent-run))
		}
		kib += float64(len(r.body)) / 1024
	}
	h.mu.Unlock()
	for _, r := range wo.recs {
		late = append(late, ms(r.late()))
	}
	if len(over) != len(wt.replies) {
		return o, fmt.Errorf("the server logged %d of %d traced runs", len(over), len(wt.replies))
	}
	o.set("serve.overhead_ms_p50", percentile(over, 500), "ms")
	o.set("serve.report_kib", kib/float64(len(wt.replies)), "KiB")
	o.set("serve.gen_late_ms_p99", percentile(late, 990), "ms")

	// The replay: the server's per-request layers, each timed over the same
	// request bodies, then the shard engine's inner flat FM-indexes alone.
	s := spans{}
	t0 := time.Now()
	t := t0
	eng, err := loadIndex(e.in.shardIdx)
	s.since("idxio", t)
	if err != nil {
		return o, err
	}
	n := min(replayRequests, len(bodies))
	batches := make([][]dna.Sequence, n)
	t = time.Now()
	for i := range batches {
		if batches[i], err = serveParse(bodies[i]); err != nil {
			return o, err
		}
	}
	s.since("seqio", t)
	wall := trace.NewWall(0)
	t = time.Now()
	for _, reads := range batches {
		batch.SeedEngine(eng, reads, batch.Options{Workers: serveWorkers, Wall: wall})
	}
	s.since("shard", t)
	u, ok := eng.(engine.Unwrapper)
	var inners []engine.Engine
	if ok {
		inners, ok = u.Unwrap().([]engine.Engine)
	}
	if !ok {
		return o, fmt.Errorf("%s does not expose its inner engines", eng.Name())
	}
	t = time.Now()
	for _, in := range inners {
		for _, reads := range batches {
			batch.SeedEngine(in, reads, batch.Options{Workers: serveWorkers})
		}
	}
	s.since("fmindex", t)
	replay := time.Since(t0)
	if _, err := poolStats(&o, wall, serveWorkers, n, s["shard"]); err != nil {
		return o, err
	}
	bodyBytes := 0
	for _, b := range bodies[:n] {
		bodyBytes += len(b)
	}
	o.set("seqio.parse_s", sec(s["seqio"]), "s")
	o.set("seqio.mib_per_s", float64(bodyBytes)/(1<<20)/sec(s["seqio"]), "MiB/s")
	o.set("idxio.load_s", sec(s["idxio"]), "s")
	o.set("idxio.load_mib_per_s", fileMiB(e.in.shardIdx)/sec(s["idxio"]), "MiB/s")
	o.set("shard.seed_s", sec(s["shard"]), "s")
	o.set("fmindex.seed_s", sec(s["fmindex"]), "s")
	o.set("shard.merge_frac", 1-float64(s["fmindex"])/float64(s["shard"]), "frac")
	return o, setUnattributed(&o, s, replay)
}

// serveParse parses one request body the way the server does.
func serveParse(body []byte) ([]dna.Sequence, error) {
	recs, err := seqio.ReadFastq(bufio.NewReaderSize(bytes.NewReader(body), 1<<16))
	if err != nil {
		return nil, err
	}
	out := make([]dna.Sequence, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out, nil
}

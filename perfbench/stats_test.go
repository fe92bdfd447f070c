package main

import (
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestTailPermilleLeavesTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= 5000; n++ {
		p, ok := tailPermille(n, 990)
		if n <= tailBeyond {
			if ok {
				t.Fatalf("n=%d: got p%d, want none", n, p)
			}
			continue
		}
		if !ok {
			t.Fatalf("n=%d: no percentile", n)
		}
		if beyond := n - rankOf(p, n); beyond < tailBeyond {
			t.Fatalf("n=%d p=%d: %d samples beyond, want >= %d", n, p, beyond, tailBeyond)
		}
		if p < 990 && n-rankOf(p+1, n) >= tailBeyond {
			t.Fatalf("n=%d: p=%d is not the highest percentile with %d beyond", n, p, tailBeyond)
		}
	}
}

func TestTailPermilleNames(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{1000, "latency_p99_ms"},
		{5000, "latency_p99_ms"},
		{999, "latency_p98.9_ms"},
		{100, "latency_p90_ms"},
		{11, "latency_p9_ms"},
	} {
		p, ok := tailPermille(c.n, 990)
		if got := percentileName("latency", p, "_ms"); !ok || got != c.want {
			t.Errorf("n=%d: got %q (ok=%v), want %q", c.n, got, ok, c.want)
		}
		if !nameRE.MatchString(c.want) {
			t.Errorf("%q is not a valid metric name", c.want)
		}
	}
}

func TestTailPermilleLimit(t *testing.T) {
	if p, ok := tailPermille(1000, e2eTail); !ok || p != 900 {
		t.Errorf("n=1000 limit %d: got %d, %v", e2eTail, p, ok)
	}
	if p, ok := tailPermille(50, e2eTail); !ok || p != 800 {
		t.Errorf("n=50 limit %d: got %d, %v; want p80, the highest with ten beyond", e2eTail, p, ok)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 500); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 990); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// fakeClock advances only when the generator sleeps or a send takes time.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }
func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	c := &fakeClock{}
	const period = 10 * time.Millisecond
	// Request 1 stalls for 35 ms; the others take 2 ms.
	service := []time.Duration{2, 35, 2, 2, 2, 2}
	recs := openLoop(c, period, 6*period, func(i int) time.Duration {
		c.t += service[i] * time.Millisecond
		return c.t
	}, func() bool { return false })
	if len(recs) != 6 {
		t.Fatalf("sent %d requests, want 6", len(recs))
	}
	want := []struct{ late, latency time.Duration }{
		{0, 2}, {0, 35}, {25, 27}, {17, 19}, {9, 11}, {1, 3},
	}
	for i, w := range want {
		if got := recs[i].late(); got != w.late*time.Millisecond {
			t.Errorf("request %d: late %v, want %v", i, got, w.late*time.Millisecond)
		}
		if got := recs[i].latency(); got != w.latency*time.Millisecond {
			t.Errorf("request %d: latency %v, want %v", i, got, w.latency*time.Millisecond)
		}
		if recs[i].due != time.Duration(i)*period {
			t.Errorf("request %d: due %v, want %v", i, recs[i].due, time.Duration(i)*period)
		}
	}
}

func TestOpenLoopStops(t *testing.T) {
	c := &fakeClock{}
	recs := openLoop(c, time.Millisecond, time.Second, func(int) time.Duration {
		c.t += 100 * time.Millisecond
		return c.t
	}, func() bool { return c.t > 300*time.Millisecond })
	if len(recs) != 4 {
		t.Fatalf("sent %d requests after the stop condition held, want 4", len(recs))
	}
}

func TestClosedLoopSendsBackToBack(t *testing.T) {
	c := &fakeClock{}
	recs := closedLoop(c, 10*time.Millisecond, func(int) time.Duration {
		c.t += 3 * time.Millisecond
		return c.t
	}, func() bool { return false })
	if len(recs) != 4 {
		t.Fatalf("sent %d requests in 10 ms of 3 ms each, want 4", len(recs))
	}
	for i, r := range recs {
		if r.late() != 0 || r.latency() != 3*time.Millisecond || r.sent != time.Duration(3*i)*time.Millisecond {
			t.Errorf("request %d: %+v, want sent at %d ms, 3 ms latency, not late", i, r, 3*i)
		}
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	tl.add(90, false)
	tl.add(10, true)
	if tl.attempted != 100 || tl.failed != 10 {
		t.Fatalf("tally = %+v", tl)
	}
	if got := tl.okFrac(); got != 0.9 {
		t.Errorf("okFrac = %v, want 0.9", got)
	}
}

func TestCheckRepliesCountsRefusedErrorsAndUnsent(t *testing.T) {
	body := func(names ...string) []byte {
		var sb strings.Builder
		sb.WriteString(`{"reads":16,"results":[`)
		for i, n := range names {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(`{"name":"` + n + `","smems":[{"start":0,"end":99,"hits":1}]}`)
		}
		sb.WriteString(`]}`)
		return []byte(sb.String())
	}
	var names []string
	for i := 0; i < readsPerRequest; i++ {
		names = append(names, "sim_"+string(rune('0'+i%10))+"_pos0_revfalse_err0")
	}
	want := make([]expectation, 10)
	for i := range want {
		want[i].smems = []smemT{{0, 99, 1}}
	}
	w := window{
		recs: make([]sendRecord, 4),
		replies: []reply{
			{status: http.StatusOK, body: body(names...)},
			{status: http.StatusTooManyRequests},
			{err: errors.New("connection reset")},
			{status: http.StatusOK, body: []byte("{")},
		},
		due: 6,
	}
	var tl tally
	correct := checkReplies(w, want, &tl)
	if tl.attempted != 6 || tl.failed != 5 {
		t.Errorf("tally = %+v, want 6 attempted, 5 failed", tl)
	}
	if correct != readsPerRequest {
		t.Errorf("correct reads = %d, want %d", correct, readsPerRequest)
	}
	lat := w.latencies()
	if len(lat) != 6 || math.IsInf(lat[0], 0) || !math.IsInf(lat[1], 1) || !math.IsInf(lat[5], 1) {
		t.Errorf("latencies = %v: want finite only for the answered request", lat)
	}
}

func TestValidateMetricNames(t *testing.T) {
	for _, name := range []string{"setup_s", "serve.queue_wait_ms_p99", "latency_p98.9_ms", "9lives", "a-b"} {
		if !nameRE.MatchString(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "a b", "a/b", "a:b", strings.Repeat("a", 65)} {
		if nameRE.MatchString(name) {
			t.Errorf("%q accepted", name)
		}
	}
	declared := []specMetric{{"setup_s", "s"}, {"reads_per_s", "reads/s"}}
	ok := map[string]metric{"setup_s": {1.5, "s"}, "reads_per_s": {100, "reads/s"}}
	if err := validate(ok, declared); err != nil {
		t.Errorf("valid metrics rejected: %v", err)
	}
	for name, m := range map[string]map[string]metric{
		"missing":    {"setup_s": {1.5, "s"}},
		"undeclared": {"setup_s": {1.5, "s"}, "reads_per_s": {1, "reads/s"}, "extra": {1, "s"}},
		"wrong unit": {"setup_s": {1.5, "ms"}, "reads_per_s": {1, "reads/s"}},
		"infinite":   {"setup_s": {math.Inf(1), "s"}, "reads_per_s": {1, "reads/s"}},
	} {
		if err := validate(m, declared); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := validate(ok, []specMetric{{"bad name", "s"}}); err == nil {
		t.Error("an invalid declared name was accepted")
	}
}

func TestSimNames(t *testing.T) {
	if i, ok := simIndex("sim_1234_pos99_revtrue_err0"); !ok || i != 1234 {
		t.Errorf("simIndex = %d, %v", i, ok)
	}
	if _, ok := simIndex("pair_1/1_pos99_revtrue_err0"); ok {
		t.Error("simIndex accepted a pair name")
	}
	pos, rev, ok := simOrigin("pair_7/2_pos4030806_revtrue_err1")
	if !ok || pos != 4030806 || !rev {
		t.Errorf("simOrigin = %d, %v, %v", pos, rev, ok)
	}
}

func TestBulkCheckAllowsOnlyPrepassRetirements(t *testing.T) {
	want := []expectation{
		{smems: []smemT{{0, 100, 1}}},
		{smems: []smemT{{3, 25, 2}}, rcExact: true},
		{smems: []smemT{{3, 25, 2}}},
	}
	out := "sim_0_pos5_revfalse_err0\t1 SMEMs\t[0,100]x1\n" +
		"sim_1_pos9_revtrue_err0\t0 SMEMs\n" +
		"\n3 reads, 1 SMEMs via casa\n"
	reads, matching, explained, err := bulkCheck([]byte(out), want)
	if err != nil || reads != 2 || matching != 1 || !explained {
		t.Errorf("got %d reads, %d matching, explained %v, err %v; want 2, 1, true, nil", reads, matching, explained, err)
	}
	_, _, explained, err = bulkCheck([]byte(out+"sim_2_pos7_revtrue_err1\t0 SMEMs\n"), want)
	if err != nil || explained {
		t.Errorf("an empty answer for a read whose reverse complement is not in the reference was accepted (err %v)", err)
	}
}

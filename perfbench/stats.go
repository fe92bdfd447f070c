package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tailPermille returns the highest percentile, in tenths of a percent and
// at most limit, that leaves at least tailBeyond of n samples strictly
// above its nearest-rank value. ok is false when n is too small for any.
func tailPermille(n, limit int) (permille int, ok bool) {
	if n <= tailBeyond {
		return 0, false
	}
	// Largest p with n - ceil(p*n/1000) >= tailBeyond.
	p := 1000 * (n - tailBeyond) / n
	for p > 0 && n-rankOf(p, n) < tailBeyond {
		p--
	}
	return min(p, limit), p > 0
}

// rankOf is the 1-based nearest rank of the permille-th percentile of n
// samples: ceil(permille*n/1000), at least 1.
func rankOf(permille, n int) int {
	return max(1, (permille*n+999)/1000)
}

// percentileName names a percentile metric, such as "latency_p90_ms" or,
// for a run too short for p90, "latency_p80_ms".
func percentileName(prefix string, permille int, suffix string) string {
	return prefix + "_p" + strconv.FormatFloat(float64(permille)/10, 'f', -1, 64) + suffix
}

// percentile returns the nearest-rank permille-th percentile of xs.
func percentile(xs []float64, permille int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(permille, len(s))-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tally counts the operations a workload attempted and those that failed:
// errors, refusals (HTTP 429), non-zero exits and wrong-sized answers.
type tally struct {
	attempted int
	failed    int
}

// add records n operations, failed when bad.
func (t *tally) add(n int, bad bool) {
	t.attempted += n
	if bad {
		t.failed += n
	}
}

// okFrac is the share of attempted operations that did not fail.
func (t tally) okFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// sendRecord is one open-loop request, timed on the generator's clock
// (offsets from the start of the schedule).
type sendRecord struct {
	due, sent, done time.Duration
}

// latency is measured from the time the request was due, not the time it
// was sent, so a stall is charged to every request queued behind it.
func (r sendRecord) latency() time.Duration { return r.done - r.due }

// late is how far behind its schedule the generator sent the request.
func (r sendRecord) late() time.Duration { return max(0, r.sent-r.due) }

// clock abstracts the generator's time source so its pacing is testable.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// openLoop sends request i at start+i*period for every i whose due time
// falls before length, on one connection: a request due while the previous
// one is still in flight is sent as soon as it returns, and its latency
// still counts from its due time. send reports the time its answer's last
// byte arrived. stop, when it returns true, ends the loop early.
func openLoop(c clock, period, length time.Duration, send func(i int) time.Duration, stop func() bool) []sendRecord {
	var recs []sendRecord
	for i := 0; ; i++ {
		due := time.Duration(i) * period
		if due >= length || stop() {
			return recs
		}
		c.sleepUntil(due)
		sent := c.now()
		done := send(i)
		recs = append(recs, sendRecord{due: due, sent: sent, done: done})
	}
}

// closedLoop sends each request as soon as the previous one has been
// answered, from one client, until length has passed or stop returns true.
// A request is due when it is sent.
func closedLoop(c clock, length time.Duration, send func(i int) time.Duration, stop func() bool) []sendRecord {
	var recs []sendRecord
	for i := 0; c.now() < length && !stop(); i++ {
		sent := c.now()
		recs = append(recs, sendRecord{due: sent, sent: sent, done: send(i)})
	}
	return recs
}

// wallClock is the real generator clock, anchored at its creation.
type wallClock struct{ t0 time.Time }

func (w wallClock) now() time.Duration { return time.Since(w.t0) }

func (w wallClock) sleepUntil(t time.Duration) {
	if d := t - w.now(); d > 0 {
		time.Sleep(d)
	}
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// spec is the part of BENCHMARK.json the benchmark checks its output
// against, so the declared metric names and units have one source.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// validate checks that the metrics are exactly the declared ones, with
// their declared units, valid names and finite values.
func validate(m map[string]metric, declared []specMetric) error {
	want := map[string]string{}
	for _, d := range declared {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("declared metric %q has an invalid name or unit %q", d.Name, d.Unit)
		}
		want[d.Name] = d.Unit
	}
	for name, v := range m {
		unit, ok := want[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %q is not declared", name)
		case v.Unit != unit:
			return fmt.Errorf("metric %q has unit %q, declared %q", name, v.Unit, unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %q is %v", name, v.Value)
		}
	}
	for name := range want {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("declared metric %q was not measured", name)
		}
	}
	return nil
}

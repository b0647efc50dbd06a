package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRefusesP99BelowThousandSamples(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted; fewer than 10 samples lie beyond it")
	}
	xs = append(xs, 1000)
	p99, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	if math.Abs(p99-990.5) > 0.05 {
		t.Fatalf("p99 of 1..1000 = %v, want 990.5", p99)
	}
	if p50, err := percentile(xs, 0.50); err != nil || math.Abs(p50-500.5) > 0.05 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500.5", p50, err)
	}
	// One failure in the tail puts p99 above any limit; p50 ignores it.
	xs[999] = failed
	if p99, _ := percentile(xs, 0.99); !math.IsInf(p99, 1) {
		t.Fatalf("p99 with a failed sample = %v, want +Inf", p99)
	}
	if p50, _ := percentile(xs, 0.50); math.IsInf(p50, 0) || math.IsNaN(p50) {
		t.Fatalf("p50 with one failed sample = %v, want finite", p50)
	}
}

// The order statistic at rank 990 jumps eightfold when a sparse tail
// loses one slow sample; the Harrell-Davis p99 must move far less.
func TestPercentileSmoothsSparseTail(t *testing.T) {
	tail := func(slow int) []float64 {
		xs := make([]float64, 1000)
		for i := range xs {
			xs[i] = 5
			if i >= len(xs)-slow {
				xs[i] = 40
			}
		}
		return xs
	}
	with11, err := percentile(tail(11), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	with10, _ := percentile(tail(10), 0.99)
	if with10 >= with11 || with11/with10 > 2 {
		t.Fatalf("p99 went from %.2f (11 slow samples) to %.2f (10): want a drop of under 2x", with11, with10)
	}
}

// A handler that stalls 100 ms on the first request must inflate the
// latency of the requests scheduled behind it: open-loop latency runs
// from the scheduled send, not from when the request got a connection.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(100 * time.Millisecond)
		}
		_ = json.NewEncoder(w).Encode(answer{Measure: "variance", OK: true})
	}))
	defer srv.Close()
	cl := newClient(srv.URL, 1)
	defer cl.close()

	offsets := make([]time.Duration, 5)
	for i := range offsets {
		offsets[i] = time.Duration(i) * 10 * time.Millisecond
	}
	errs := make([]error, len(offsets))
	p := openLoop(offsets, func(i int) {
		_, errs[i] = cl.predict([]byte(`{}`), "t")
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if p.lat[0] < 100 {
		t.Fatalf("stalled request took %.1f ms, want >= 100", p.lat[0])
	}
	// Request i was due at 10i ms and could not start before the stalled
	// one finished at >= 100 ms.
	for i := 1; i < len(offsets); i++ {
		if min := 100 - 10*float64(i); p.lat[i] < min {
			t.Errorf("request %d queued behind the stall measured %.1f ms, want >= %.0f", i, p.lat[i], min)
		}
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "router", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "replica", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "replica", Start: 30, End: 60}, // overlaps 3
		{ID: 5, Parent: 2, Name: "replica", Start: 80, End: 95}, // runs past its parent
		{ID: 6, Parent: 3, Name: "decode", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - 80,       // minus the router
		2: 80 - (40 + 10), // minus [20,60] and the clipped [80,90]
		3: 30 - 10,        // minus its decode
		4: 30, 5: 15, 6: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %d, want %d", id, self[id], w)
		}
	}
	st := newSpanStats(spans, func(span) bool { return true })
	if got := st.medianSelfUS("replica"); got != 20.0/1e3 {
		t.Errorf("median replica self time = %v us, want 0.02", got)
	}
}

// A server that answers with a measure other than the reference's counts
// as a failure: against ok_ratio, and above any latency limit.
func TestWrongMeasureCountsAsFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(answer{Measure: "schutz", OK: true})
	}))
	defer srv.Close()
	cl := newClient(srv.URL, 1)
	defer cl.close()

	want := []answer{{Measure: "schutz", OK: true}, {Measure: "variance", OK: true}}
	got := make([]answer, len(want))
	errs := make([]error, len(want))
	p := closedLoop(len(want), 1, func(i int) { got[i], errs[i] = cl.predict([]byte(`{}`), "t") })
	good := checkAnswers(got, errs, want)
	if !good[0] || good[1] {
		t.Fatalf("check = %v, want [true false]", good)
	}
	if bad := markFailures(p.lat, good); bad != 1 {
		t.Fatalf("%d failures counted, want 1", bad)
	}
	if !math.IsInf(p.lat[1], 1) || math.IsInf(p.lat[0], 1) {
		t.Fatalf("latencies %v: only the wrong answer should read as +Inf", p.lat)
	}
}

// The metric registry and BENCHMARK.json must name the same metrics with
// the same units, and every listed workload must exist here.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		json []def
		reg  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.reg) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the registry %d", c.name, len(c.json), len(c.reg))
		}
		for i, d := range c.json {
			if d.Name != c.reg[i].name || d.Unit != c.reg[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), registry %s (%s)", c.name, i, d.Name, d.Unit, c.reg[i].name, c.reg[i].unit)
			}
		}
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not defined here", w.Name)
		}
	}
}

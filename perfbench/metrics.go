package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// p99 needs at least 1,000 samples, so that ten of them exceed it.
const minBeyond = 10

// failed is the latency recorded for a request that failed or answered
// wrongly: above any limit, so it lands in the tail.
var failed = math.Inf(1)

// percentile returns the Harrell-Davis estimate of the q-quantile of
// samples: the mean of the order statistics weighted by a
// Beta((n+1)q, (n+1)(1-q)) distribution. Near the tail it is much steadier
// than the single order statistic at rank qn, which can fall into a gap
// between sparse tail samples. A failed sample (+Inf) with any weight
// makes the estimate +Inf. It refuses a quantile that fewer than
// minBeyond samples lie beyond.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.3g of no samples", q)
	}
	if float64(n)*(1-q) < minBeyond-1e-9 {
		return 0, fmt.Errorf("percentile %.3g needs %d samples beyond it, %d samples give %.1f",
			q, minBeyond, n, float64(n)*(1-q))
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	pdf := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp(lab - la - lb + (a-1)*math.Log(x) + (b-1)*math.Log1p(-x))
	}
	var est, total float64
	for i, x := range s {
		lo, hi := float64(i)/float64(n), float64(i+1)/float64(n)
		w := (hi - lo) / 6 * (pdf(lo) + 4*pdf((lo+hi)/2) + pdf(hi)) // Simpson's rule
		if w == 0 {
			continue
		}
		est += w * x
		total += w
	}
	return est / total, nil
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// metricDef names one metric BENCHMARK.json declares, with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every untraced run
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"heap_live_mb", "MiB"},
	{"train_s", "s"},
	{"train_cpu_s", "s"},
	{"ok_ratio", "ratio"},
}

// perLayer are the traced run's metrics. Every traced run reports all of
// them; a workload that does not reach a layer reports its metrics as 0
// and names them on its "absent" line.
var perLayer = []metricDef{
	{"snapshot.decode_us", "us"},
	{"snapshot.decode_allocs", "count"},
	{"engine.profile_us", "us"},
	{"engine.profile_allocs", "count"},
	{"knn.predict_us", "us"},
	{"knn.distance_evals_per_req", "count"},
	{"knn.index.visited_per_req", "count"},
	{"knn.index.pruned_share", "ratio"},
	{"knn.abstain_share", "ratio"},
	{"distance.display_calls_per_req", "count"},
	{"distance.treeedit_calls_per_req", "count"},
	{"distance.abandon_share", "ratio"},
	{"distance.memo_hit_share", "ratio"},
	{"distance.memo_entries_per_req", "count"},
	{"serve.handler_us", "us"},
	{"serve.self_us", "us"},
	{"serve.encode_us", "us"},
	{"net.roundtrip_us", "us"},
	{"runtime.alloc_kb_per_req", "KiB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_1k_req", "count"},
	{"offline.ref.execute_s", "s"},
	{"offline.ref.score_s", "s"},
	{"offline.ref.rank_s", "s"},
	{"offline.norm.score_s", "s"},
	{"offline.norm.relative_s", "s"},
	{"offline.training_set_ms", "ms"},
	{"knn.index_build_ms", "ms"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.bytes", "B"},
	{"snapshot.load_ms", "ms"},
	{"simulate.generate_s", "s"},
	{"runtime.alloc_mb", "MiB"},
	{"ring.calls_per_req", "count"},
	{"ring.replica_us", "us"},
	{"ring.router_self_us", "us"},
	{"ring.hop_bytes_per_req", "B"},
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finite keeps the result line valid JSON: a percentile that landed on a
// failed request (+Inf) is reported as a huge finite number. Such a run
// is never correct, so the value is never compared.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat32
	}
	return v
}

// buildResult collects the named metrics from values, in defs order, and
// fails when any is missing: a run reports all of its metrics or none.
func buildResult(defs []metricDef, values map[string]float64, attempted, failedOps int, correct bool) (result, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failedOps, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: finite(v), Unit: d.unit}
	}
	return r, nil
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // finite() leaves nothing json cannot encode
	}
	return string(b)
}

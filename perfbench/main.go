// Command perfbench is the repository's benchmark. It builds a seeded
// simulator fixture, drives the analysis, training and serving stack
// through the modules' public functions, checks every answer, and prints
// each metric BENCHMARK.json names. Run it from the repository root:
//
//	python3 perfbench/run.py --workload serve-novel --seed 1 --seconds 40 --trace 0
//
// Every timed phase runs a fixed number of requests, never a fixed
// duration, so state that grows per request grows the same in every run.
// With --trace 1 the run records spans around its calls into each layer,
// reads the program's obs counters per phase, and reports the per-layer
// metrics instead of the end-to-end ones. METRICS.md defines them all.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
)

const (
	kindServe = "serve"
	kindRing  = "ring"
	kindTrain = "train"

	// nominalSeconds is the --seconds value the base request counts are
	// sized for.
	nominalSeconds = 40
	// minSamples is the fewest latency samples a percentile is taken
	// over: ten lie beyond a p99 of 1,000.
	minSamples = 1000
)

// workload is one traffic mix; BENCHMARK.json records why each exists.
type workload struct {
	name string
	kind string
	// rate is the open loop's offered load, requests per second: about a
	// third of the closed-loop capacity of the commit that defined it.
	rate float64
	// open and closed are the per-round request counts at nominalSeconds;
	// for train, closed is the check's predictions per method.
	open, closed int
	// rounds is how many times a run sets the workload up from scratch
	// and measures it. The latency percentiles pool the rounds' samples
	// and every other end-to-end metric is the median over the rounds, so
	// a burst of CPU steal on the host spoils one round, not the run.
	rounds int
}

var workloads = []workload{
	{name: "serve-novel", kind: kindServe, rate: 125, open: 1000, closed: 600, rounds: 3},
	{name: "ring-novel", kind: kindRing, rate: 50, open: 500, closed: 350, rounds: 3},
	{name: "train", kind: kindTrain, closed: 250, rounds: 4},
}

// counts scales the per-round request counts to a run of the given
// length, keeping a run's pooled percentile samples at minSamples or
// more. They depend on nothing else, so two commits always run the same
// requests.
func (w workload) counts(seconds int) (open, closed int) {
	scale := float64(seconds) / nominalSeconds
	open = int(math.Round(float64(w.open) * scale))
	closed = int(math.Round(float64(w.closed) * scale))
	if w.kind == kindTrain {
		// The check's calls are train's latency samples.
		per := w.rounds * len(trainMethods)
		return 0, max(closed, (minSamples+per-1)/per)
	}
	least := (minSamples + w.rounds - 1) / w.rounds
	return max(open, least), max(closed, least)
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string
	workDir  string
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	digest            string
	notes             []string
	samples           string
	values            map[string]float64
	// perRound holds each end-to-end metric's value in every round;
	// the latency percentiles, taken over the pooled samples, have none.
	perRound map[string][]float64
	// absent names the per-layer metrics the workload does not reach;
	// the traced run reports them as 0.
	absent []string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", nominalSeconds, "nominal measured time; request counts scale with it")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for snapshots, spans and results")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	var w workload
	for _, c := range workloads {
		if c.name == o.workload {
			w = c
		}
	}
	if w.name == "" {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seed == 0 {
		return errors.New("--seed must be positive")
	}
	if o.seconds < 1 {
		return errors.New("--seconds must be positive")
	}
	o.workDir = filepath.Join(o.outDir, "work")
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	rec := newRecord(w, o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, o.seed, o.seconds, btoi(o.trace))

	var out *outcome
	var err error
	if w.kind == kindTrain {
		out, err = runTrain(w, o, rec, tr)
	} else {
		out, err = runServing(w, o, rec, tr)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("record: %s\n", recJSON)

	e2ePath := filepath.Join(o.outDir, "e2e-"+w.name+".json")
	printMetrics("end-to-end", endToEnd, out.values)
	fmt.Printf("samples: %s\n", out.samples)
	for _, d := range endToEnd {
		if xs := out.perRound[d.name]; len(xs) > 0 {
			fmt.Printf("  rounds %-24s %s\n", d.name, strings.Trim(fmt.Sprintf("%.4g", xs), "[]"))
		}
	}
	fmt.Printf("check: %d/%d operations correct; answer digest %s\n", out.attempted-out.failed, out.attempted, out.digest)
	for _, n := range out.notes {
		fmt.Printf("check: %s\n", n)
	}
	correct := out.failed == 0

	defs := endToEnd
	if o.trace {
		defs = perLayer
		printMetrics("per-layer", perLayer, out.values)
		if len(out.absent) > 0 {
			fmt.Printf("absent (reported as 0, this workload does not reach the layer): %s\n", strings.Join(out.absent, ", "))
		}
		printOverhead(e2ePath, out.values)
		spansPath := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		spans := tr.snapshot()
		if err := writeSpans(spansPath, spans); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(spans), spansPath)
	} else if err := saveE2E(e2ePath, out.values); err != nil {
		return err
	}

	res, err := buildResult(defs, out.values, out.attempted, out.failed, correct)
	if err != nil {
		return err
	}
	fmt.Println(res.line())
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printMetrics(title string, defs []metricDef, v map[string]float64) {
	fmt.Printf("%s metrics:\n", title)
	for _, d := range defs {
		if x, ok := v[d.name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", d.name, x, d.unit)
		}
	}
}

// saveE2E keeps the untraced run's end-to-end metrics, so a later traced
// run of the same workload can state its overhead.
func saveE2E(path string, v map[string]float64) error {
	e2e := map[string]float64{}
	for _, d := range endToEnd {
		e2e[d.name] = finite(v[d.name])
	}
	b, err := json.Marshal(e2e)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printOverhead compares the traced run's end-to-end numbers with the
// last untraced run of the same workload in this checkout.
func printOverhead(path string, v map[string]float64) {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Println("tracing overhead: unknown, no untraced run of this workload has been recorded here yet")
		return
	}
	var base map[string]float64
	if err := json.Unmarshal(b, &base); err != nil {
		fmt.Printf("tracing overhead: unknown, %s is unreadable: %v\n", path, err)
		return
	}
	var parts []string
	for _, d := range endToEnd {
		if d.name == "ok_ratio" || base[d.name] == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %+.1f%%", d.name, 100*(v[d.name]/base[d.name]-1)))
	}
	fmt.Printf("tracing overhead (traced vs last untraced run): %s\n", strings.Join(parts, ", "))
}

// digest is an FNV-64a hash of every answer in request order, failures
// included, so two runs on one seed can be compared at a glance.
func digest(as []answer, errs []error) string {
	h := fnv.New64a()
	for i, a := range as {
		if errs[i] != nil {
			fmt.Fprintf(h, "error;")
			continue
		}
		fmt.Fprintf(h, "%s|%t|%t;", a.Measure, a.OK, a.Fallback)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// firstErrors describes up to three failed operations; wrong(i) says
// what operation i answered instead of the reference.
func firstErrors(errs []error, good []bool, wrong func(i int) string) []string {
	var out []string
	for i, g := range good {
		if g {
			continue
		}
		msg := "wrong answer: " + wrong(i)
		if errs[i] != nil {
			msg = errs[i].Error()
		}
		out = append(out, fmt.Sprintf("operation %d failed: %s", i, msg))
		if len(out) == 3 {
			break
		}
	}
	return out
}

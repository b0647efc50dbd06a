package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/netlog"
	"repro/internal/session"
)

// fixtureRows is the packet-row count of each simulated dataset. The
// simulator otherwise runs at the paper's size and with its own fixed
// seeds (56 analysts, 454 sessions); 64 rows keep generation, and so
// set-up, at a few seconds. The log is the same in every run, and so are
// the requests drawn from it: the workload seed orders them and times
// their arrivals.
const fixtureRows = 64

// fixture is one generated session log and the contexts the workloads
// send.
type fixture struct {
	fw  *repro.Framework
	gen time.Duration
}

func generate() (*fixture, error) {
	t0 := time.Now()
	fw, err := repro.GenerateBenchmark(repro.SimulatorConfig{DatasetConfig: netlog.Config{Rows: fixtureRows}})
	if err != nil {
		return nil, fmt.Errorf("generate fixture: %w", err)
	}
	return &fixture{fw: fw, gen: time.Since(t0)}, nil
}

// contexts returns the n-contexts of every state that has a next action,
// from unsuccessful sessions (held out: never trained on) or successful
// ones, in repository order.
func (f *fixture) contexts(n int, successful bool) []*repro.NContext {
	var out []*repro.NContext
	for _, s := range f.fw.Repo.Sessions() {
		if s.Successful != successful {
			continue
		}
		for t := 0; t < s.Steps(); t++ {
			st, err := s.StateAt(t)
			if err == nil {
				out = append(out, session.Extract(st, n))
			}
		}
	}
	return out
}

// distinctContent counts contexts with distinct content fingerprints:
// held-out states of different sessions can share their content.
func distinctContent(cs []*repro.NContext) int {
	seen := map[string]bool{}
	for _, c := range cs {
		seen[c.Fingerprint()] = true
	}
	return len(seen)
}

// pickSeed seeds pick's random streams; it never changes.
const pickSeed = 0x1da

// pick returns n contexts of cs, at most all of them, chosen by a fixed
// random stream: the same ones in every run, whatever its seed; callers
// order them by the workload seed. When the seed chose the states, which
// ones were sent moved the latency tail and the CPU cost per request
// between seeds by more than the host's noise.
func pick(cs []*repro.NContext, n int, stream uint64) []*repro.NContext {
	return shuffled(cs, rand.New(rand.NewPCG(pickSeed, stream)))[:min(n, len(cs))]
}

// shuffled returns a seeded permutation of cs.
func shuffled(cs []*repro.NContext, rng *rand.Rand) []*repro.NContext {
	out := append([]*repro.NContext(nil), cs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// body is the /v1/predict request for one context.
func body(c *repro.NContext) ([]byte, error) {
	return json.Marshal(map[string]any{"context": repro.EncodeWireContext(c)})
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is a reading of the Go runtime's own counters.
type rtSample struct {
	allocBytes, gcCycles     uint64
	gcCPU, totalCPU, idleCPU float64
	cpu                      time.Duration
	at                       time.Time
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return rtSample{
		allocBytes: ms[0].Value.Uint64(),
		gcCycles:   ms[1].Value.Uint64(),
		gcCPU:      ms[2].Value.Float64(),
		totalCPU:   ms[3].Value.Float64(),
		idleCPU:    ms[4].Value.Float64(),
		cpu:        cpuTime(),
		at:         time.Now(),
	}
}

// rtDelta is what the runtime did between two readings.
type rtDelta struct {
	allocBytes, gcCycles uint64
	// gcShare is the share of the busy CPU time the GC used.
	gcShare float64
	cpu     time.Duration
	wall    time.Duration
}

func (a rtSample) to(b rtSample) rtDelta {
	d := rtDelta{
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
		cpu:        b.cpu - a.cpu,
		wall:       b.at.Sub(a.at),
	}
	if busy := (b.totalCPU - a.totalCPU) - (b.idleCPU - a.idleCPU); busy > 0 {
		d.gcShare = (b.gcCPU - a.gcCPU) / busy
	}
	return d
}

// liveHeapMiB forces a collection and returns the heap it found live.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// mallocs is the process's cumulative heap allocation count, exact at the
// cost of a stop-the-world read; only the traced run's probes use it.
func mallocs() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.Mallocs)
}

// record describes the machine and inputs of one run.
type record struct {
	Workload    string         `json:"workload"`
	Seed        uint64         `json:"seed"`
	Trace       bool           `json:"trace"`
	Seconds     int            `json:"seconds"`
	NumCPU      int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GOGC        string         `json:"gogc"`
	GoVersion   string         `json:"go_version"`
	CPUModel    string         `json:"cpu_model"`
	LoadAvg1    string         `json:"loadavg_1m_at_start"`
	Fixture     map[string]int `json:"fixture"`
	Requests    map[string]int `json:"requests"`
	OfferedRate float64        `json:"offered_rps,omitempty"`
}

func newRecord(w workload, o options) *record {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default (100)"
	}
	return &record{
		Workload:   w.name,
		Seed:       o.seed,
		Trace:      o.trace,
		Seconds:    o.seconds,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LoadAvg1:   loadAvg1(),
		Fixture:    map[string]int{"rows_per_dataset": fixtureRows},
		Requests:   map[string]int{},
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg1() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	if f := strings.Fields(string(b)); len(f) > 0 {
		return f[0]
	}
	return "unknown"
}

// describeFixture adds the log's sizes to the record.
func (r *record) describeFixture(f *fixture, heldOut []*repro.NContext, trainingSize int) {
	analysts := map[string]bool{}
	sessions := f.fw.Repo.Sessions()
	successful := 0
	for _, s := range sessions {
		analysts[s.Analyst] = true
		if s.Successful {
			successful++
		}
	}
	r.Fixture["analysts"] = len(analysts)
	r.Fixture["sessions"] = len(sessions)
	r.Fixture["successful_sessions"] = successful
	r.Fixture["held_out_states"] = len(heldOut)
	r.Fixture["held_out_distinct_content"] = distinctContent(heldOut)
	r.Fixture["training_contexts"] = trainingSize
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/session"
	"repro/internal/snapshot"
)

const (
	// warmRequests is the untimed warm-up, sent with contexts of
	// successful (trained-on) sessions, so no held-out context is used.
	warmRequests = 64
	// probeRequests is how many served bodies the traced run replays
	// in-process, layer by layer.
	probeRequests = 200
	// ringNodes is the ring's node count: 3 shards x 2 replicas on 3
	// nodes, so every node serves two shards.
	ringNodes = 3
	// inFlightCap is every server's admission bound: well above what the
	// open loop ever queues, so no request is shed.
	inFlightCap = 64
)

// servingEnv is a set-up serving workload: the fixture, the trained
// model, the servers answering on loopback, and the request bodies.
type servingEnv struct {
	fx      *fixture
	trained *repro.Predictor
	path    string
	cl      *client
	stop    func()

	plan   [][]*repro.NContext // every round's timed contexts
	sent   []*repro.NContext   // context of this round's timed request i
	bodies [][]byte            // body of this round's timed request i

	setup, train, trainCPU, save, load time.Duration
	trainAllocMiB                      float64
	snapBytes                          int64
}

// setupServing builds one serving workload from scratch; everything in it
// counts as set-up time.
func setupServing(w workload, o options, rep int, tr *tracer) (env *servingEnv, err error) {
	t0 := time.Now()
	root := tr.begin("setup", "", 0)
	defer tr.end(root, 0)
	fx, err := generate()
	if err != nil {
		return nil, err
	}
	tr.record("simulate.generate", root, t0, time.Now())
	env = &servingEnv{fx: fx}

	// Collect generation's garbage first, so the timed training span does
	// not pay for it.
	runtime.GC()
	rt0 := readRuntime()
	err = tr.step("offline.analyze", root, func() error {
		return fx.fw.RunOfflineAnalysisContext(context.Background(), repro.AnalysisOptions{SkipReference: true})
	})
	if err != nil {
		return nil, err
	}
	cfg := repro.DefaultPredictorConfig(repro.Normalized)
	err = tr.step("train.predictor", root, func() (err error) {
		env.trained, err = fx.fw.TrainPredictor(repro.DefaultMeasureSet(), repro.Normalized, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	env.path = filepath.Join(o.workDir, fmt.Sprintf("%s-%d.snap", w.name, rep))
	ts := time.Now()
	if err := tr.step("snapshot.save", root, func() error { return env.trained.Save(env.path) }); err != nil {
		return nil, err
	}
	env.save = time.Since(ts)
	if w.kind == kindRing {
		// The ring serves the linear scan (see startServers); the
		// reference must too.
		env.trained.SetIndexing(false)
	}
	d := rt0.to(readRuntime())
	env.train, env.trainCPU, env.trainAllocMiB = d.wall, d.cpu, float64(d.allocBytes)/(1<<20)
	if fi, err := os.Stat(env.path); err == nil {
		env.snapBytes = fi.Size()
	}

	tl := time.Now()
	var served *repro.Predictor
	err = tr.step("snapshot.load", root, func() (err error) {
		served, err = repro.LoadPredictor(env.path)
		return err
	})
	if err != nil {
		return nil, err
	}
	env.load = time.Since(tl)

	base, stop, err := startServers(w.kind, served, env.path, tr)
	if err != nil {
		return nil, err
	}
	env.stop = stop
	env.cl = newClient(base, runtime.NumCPU())
	defer func() {
		if err != nil {
			env.close()
		}
	}()

	if err := env.prepareBodies(w, o, rep, cfg.N); err != nil {
		return nil, err
	}
	if err := env.warmUp(o.seed, cfg.N); err != nil {
		return nil, err
	}
	env.setup = time.Since(t0)
	return env, nil
}

// plan picks every round's timed contexts: the same held-out states in
// every run (see pick), the open loop's and the closed loop's each in a
// seeded order of their own per round. No round sends a state twice.
func plan(pool []*repro.NContext, w workload, o options) ([][]*repro.NContext, error) {
	open, closed := w.counts(o.seconds)
	total := open + closed
	if len(pool) < total {
		return nil, fmt.Errorf("fixture has %d held-out states, %s sends %d distinct ones per round", len(pool), w.name, total)
	}
	set := pick(pool, total, 1)
	rng := rand.New(rand.NewPCG(o.seed, 1))
	out := make([][]*repro.NContext, w.rounds)
	for r := range out {
		out[r] = append([]*repro.NContext(nil), set...)
		for _, part := range [][]*repro.NContext{out[r][:open], out[r][open:]} {
			rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
		}
	}
	return out, nil
}

// prepareBodies encodes this round's planned requests.
func (e *servingEnv) prepareBodies(w workload, o options, rep, n int) error {
	p, err := plan(e.fx.contexts(n, false), w, o)
	if err != nil {
		return err
	}
	e.plan, e.sent = p, p[rep]
	e.bodies = make([][]byte, len(e.sent))
	for i, c := range e.sent {
		b, err := body(c)
		if err != nil {
			return err
		}
		e.bodies[i] = b
	}
	return nil
}

// warmUp sends the untimed warm-up requests; each must be answered.
func (e *servingEnv) warmUp(seed uint64, n int) error {
	warm := shuffled(pick(e.fx.contexts(n, true), warmRequests, 2), rand.New(rand.NewPCG(seed, 2)))
	errs := make([]error, len(warm))
	closedLoop(len(warm), runtime.NumCPU(), func(i int) {
		b, err := body(warm[i])
		if err == nil {
			_, err = e.cl.predict(b, fmt.Sprintf("w%d", i))
		}
		errs[i] = err
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (e *servingEnv) close() {
	if e.cl != nil {
		e.cl.close()
	}
	if e.stop != nil {
		e.stop()
	}
	if e.path != "" {
		_ = os.Remove(e.path) // scratch snapshot inside the build directory
	}
}

// startServers serves the loaded model on loopback: one serve.Server, or
// three ring replicas behind a router. It returns the URL the client
// targets and a function that stops every server and waits for it.
func startServers(kind string, p *repro.Predictor, path string, tr *tracer) (string, func(), error) {
	var hs []*httpServer
	stopAll := func() {
		for _, h := range hs {
			h.stop()
		}
	}
	if kind != kindRing {
		srv := p.NewServer(repro.ServeOptions{MaxInFlight: inFlightCap})
		h, err := listen(tr.wrap("serve.handler", srv.Handler(), false))
		if err != nil {
			return "", nil, err
		}
		return h.url, h.stop, nil
	}

	// Ring: 3 shards x 2 replicas on 3 nodes, plus the router. The
	// replicas search their shards by linear scan: the per-shard metric
	// indexes miss some nearest neighbours the scan finds, so with them
	// the ring's answers differ from single-process PredictAll. The scan
	// is the answer the program documents as exact. The listeners exist
	// before the spec, since their addresses are in it.
	p.SetIndexing(false)
	lns := make([]net.Listener, ringNodes)
	spec := &repro.RingSpec{Shards: 3, Replicas: 2}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return "", nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		spec.Nodes = append(spec.Nodes, repro.RingNode{Name: fmt.Sprintf("n%d", i), Addr: "http://" + ln.Addr().String()})
	}
	for i, n := range spec.Nodes {
		srv, err := p.NewShardServer(spec, n.Name, repro.ServeOptions{MaxInFlight: inFlightCap})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			stopAll()
			return "", nil, err
		}
		hs = append(hs, serveOn(lns[i], tr.wrap("ring.replica", srv.Handler(), false)))
	}
	rt, err := repro.NewRingRouter(path, spec, repro.RingRouterOptions{MaxInFlight: inFlightCap})
	if err != nil {
		stopAll()
		return "", nil, err
	}
	h, err := listen(tr.wrap("serve.router", rt.Handler(), true))
	if err != nil {
		stopAll()
		return "", nil, err
	}
	hs = append(hs, h)
	// The router's health prober and repair loop, at their default
	// intervals, as Router.RunListener would run them.
	bgCtx, cancel := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		probe, repair := time.NewTicker(500*time.Millisecond), time.NewTicker(5*time.Second)
		defer probe.Stop()
		defer repair.Stop()
		for {
			select {
			case <-bgCtx.Done():
				return
			case <-probe.C:
				rt.ProbeOnce(bgCtx)
			case <-repair.C:
				rt.RepairOnce(bgCtx)
			}
		}
	}()
	return h.url, func() { cancel(); bg.Wait(); stopAll() }, nil
}

// httpServer is one loopback HTTP server and the goroutine serving it.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return serveOn(ln, h), nil
}

func serveOn(ln net.Listener, h http.Handler) *httpServer {
	s := &httpServer{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // always ErrServerClosed after stop
	}()
	return s
}

func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // the benchmark's own servers; nothing to drain
	<-s.done
}

// round is what one set-up-and-measure round of a serving workload saw.
type round struct {
	answers    []answer
	errs       []error
	open, shut phase // open loop, closed loop
	// all spans both loops, shut the closed loop alone.
	all, rt rtDelta
	before  obs.Snapshot
	after   obs.Snapshot
	heap    float64
}

// measure runs the timed phases against a set-up workload: the open loop
// at the workload's rate, the closed loop, then a forced GC and the heap
// reading.
func (e *servingEnv) measure(w workload, o options, rep int, tr *tracer) round {
	open, closed := w.counts(o.seconds)
	r := round{answers: make([]answer, open+closed), errs: make([]error, open+closed)}
	send := func(i int, req string) {
		id := tr.begin("client.request", req, 0)
		tr.nest(req, id)
		r.answers[i], r.errs[i] = e.cl.predict(e.bodies[i], req)
		tr.end(id, int64(len(e.bodies[i])))
	}
	offsets := arrivals(open, w.rate, rand.New(rand.NewPCG(o.seed, 3)))
	runtime.GC() // every round's loops start from a collected heap
	r0 := readRuntime()
	r.open = openLoop(offsets, func(i int) { send(i, fmt.Sprintf("o%d.%d", rep, i)) })
	if tr != nil {
		r.before = obs.Default.Snapshot()
	}
	r1 := readRuntime()
	r.shut = closedLoop(closed, runtime.NumCPU(), func(i int) { send(open+i, fmt.Sprintf("c%d.%d", rep, i)) })
	r2 := readRuntime()
	r.all, r.rt = r0.to(r2), r1.to(r2)
	if tr != nil {
		r.after = obs.Default.Snapshot()
	}
	r.heap = liveHeapMiB()
	return r
}

// runServing runs serve-novel or ring-novel in rounds, each setting the
// workload up from scratch (a fresh server that has seen none of the timed
// contexts) and measuring it.
func runServing(w workload, o options, rec *record, tr *tracer) (*outcome, error) {
	open, closed := w.counts(o.seconds)
	per := map[string][]float64{}
	var reference map[stateKey]answer
	var model string
	out := &outcome{values: map[string]float64{}}
	var answers []answer
	var errs []error
	var lags, openLat, closedLat []float64
	var shut rtDelta
	var before, after obs.Snapshot
	var probeSpans []string
	for rep := 0; rep < w.rounds; rep++ {
		env, err := setupServing(w, o, rep, tr)
		if err != nil {
			return nil, err
		}
		r := env.measure(w, o, rep, tr)
		sum, err := fileDigest(env.path)
		if err != nil {
			env.close()
			return nil, err
		}
		if rep == 0 {
			// The reference: in-process PredictAll over the original,
			// never-serialized contexts. Every round regenerates the same
			// log and trains the same model, as the snapshot bytes show.
			reference = expected(env.trained, env.plan)
			model = sum
			heldOut := env.fx.contexts(env.trained.Config().N, false)
			rec.describeFixture(env.fx, heldOut, env.trained.TrainingSize())
		} else if sum != model {
			env.close()
			return nil, fmt.Errorf("round %d trained a different model (snapshot %s, round 0 %s)", rep, sum, model)
		}
		if tr != nil && rep == w.rounds-1 {
			if probeSpans, err = probe(env.path, env.bodies, w.kind != kindRing, tr); err == nil {
				err = traceSetup(out.values, env, tr)
			}
			if err != nil {
				env.close()
				return nil, err
			}
		}
		env.close()

		want := make([]answer, len(env.sent))
		for i, c := range env.sent {
			want[i] = reference[keyOf(c)]
		}
		good := checkAnswers(r.answers, r.errs, want)
		badOpen := markFailures(r.open.lat, good[:open])
		badClosed := markFailures(r.shut.lat, good[open:])
		out.attempted += open + closed
		out.failed += badOpen + badClosed
		sent := env.sent
		out.notes = append(out.notes, firstErrors(r.errs, good, func(i int) string {
			return fmt.Sprintf("round %d: context %s@%d got %+v, in-process PredictAll %+v", rep, sent[i].SessionID, sent[i].T, r.answers[i], want[i])
		})...)
		per["setup_s"] = append(per["setup_s"], env.setup.Seconds())
		per["heap_live_mb"] = append(per["heap_live_mb"], r.heap)
		per["train_s"] = append(per["train_s"], env.train.Seconds())
		per["train_cpu_s"] = append(per["train_cpu_s"], env.trainCPU.Seconds())
		per["simulate.generate_s"] = append(per["simulate.generate_s"], env.fx.gen.Seconds())
		per["snapshot.save_ms"] = append(per["snapshot.save_ms"], ms(env.save))
		per["snapshot.load_ms"] = append(per["snapshot.load_ms"], ms(env.load))
		per["runtime.alloc_mb"] = append(per["runtime.alloc_mb"], env.trainAllocMiB)
		per["throughput_rps"] = append(per["throughput_rps"], float64(closed-badClosed)/r.shut.wall.Seconds())
		per["cpu_ms_per_req"] = append(per["cpu_ms_per_req"], ms(r.all.cpu)/float64(open+closed))

		answers = append(answers, r.answers...)
		errs = append(errs, r.errs...)
		lags = append(lags, r.open.lag...)
		openLat = append(openLat, r.open.lat...)
		closedLat = append(closedLat, r.shut.lat...)
		shut.cpu += r.rt.cpu
		shut.allocBytes += r.rt.allocBytes
		shut.gcCycles += r.rt.gcCycles
		shut.gcShare += r.rt.gcShare / float64(w.rounds)
		before, after = addCounters(before, r.before), addCounters(after, r.after)
	}
	out.digest = digest(answers, errs)
	rec.Requests["rounds"] = w.rounds
	rec.Requests["warm_up_per_round"] = warmRequests
	rec.Requests["open_loop_per_round"] = open
	rec.Requests["closed_loop_per_round"] = closed
	rec.Requests["clients"] = runtime.NumCPU()
	rec.OfferedRate = w.rate
	lagP99, err := percentile(lags, 0.99)
	if err != nil {
		return nil, err
	}
	openP99, err := percentile(openLat, 0.99)
	if err != nil {
		return nil, err
	}
	v := out.values
	for _, d := range endToEnd {
		v[d.name] = median(per[d.name])
	}
	out.perRound = per
	v["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
	if v["latency_p50_ms"], err = percentile(openLat, 0.50); err != nil {
		return nil, err
	}
	if v["latency_p99_ms"], err = percentile(closedLat, 0.99); err != nil {
		return nil, err
	}
	out.samples = fmt.Sprintf("%d rounds, each set up from scratch; per round %d open-loop requests at %.0f/s offered, then %d closed-loop requests by %d clients; "+
		"latency_p50_ms over the %d open-loop samples, latency_p99_ms over the %d closed-loop samples, the other metrics the median over rounds; "+
		"not gated: open-loop p99 %.3f ms, open-loop generator lag p99 %.3f ms",
		w.rounds, open, w.rate, closed, runtime.NumCPU(), len(openLat), len(closedLat), openP99, lagP99)
	if tr == nil {
		return out, nil
	}

	// Traced run: per-layer metrics.
	for _, k := range []string{"simulate.generate_s", "snapshot.save_ms", "snapshot.load_ms", "runtime.alloc_mb"} {
		v[k] = median(per[k])
	}
	reqs := w.rounds * closed
	v["runtime.alloc_kb_per_req"] = float64(shut.allocBytes) / 1024 / float64(reqs)
	v["runtime.gc_cpu_share"] = shut.gcShare
	v["runtime.gc_cycles_per_1k_req"] = float64(shut.gcCycles) * 1000 / float64(reqs)
	counterValues(v, before, after, reqs)
	abstain := 0
	for i, a := range answers {
		if i%(open+closed) >= open && !a.OK {
			abstain++
		}
	}
	v["knn.abstain_share"] = float64(abstain) / float64(reqs)
	out.absent = layerValues(v, w.kind, tr.snapshot(), 'o', probeSpans, w.rounds*(open+closed))
	return out, nil
}

// traceSetup reports the set-up layers of the last round: the training
// layers, the snapshot size, and the analysis's Table-3 costs. Set-up
// skips the reference pass, so it is timed here by one more analysis of
// the same log with the pass on, as train runs it.
func traceSetup(v map[string]float64, env *servingEnv, tr *tracer) error {
	bt, ib, err := trainProbe(tr, env.fx.fw.Analysis, env.trained, env.path)
	if err != nil {
		return err
	}
	v["offline.training_set_ms"], v["knn.index_build_ms"] = bt, ib
	v["snapshot.bytes"] = float64(env.snapBytes)
	fw := repro.NewFramework(env.fx.fw.Repo)
	err = tr.step("offline.analyze", 0, func() error {
		return fw.RunOfflineAnalysisContext(context.Background(), repro.AnalysisOptions{RefLimit: trainRefLimit})
	})
	if err != nil {
		return err
	}
	offlineValues(v, fw.Analysis)
	return nil
}

// addCounters sums two obs snapshots' counters and gauges.
func addCounters(a, b obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{Counters: map[string]uint64{}, Gauges: map[string]int64{}}
	for _, s := range []obs.Snapshot{a, b} {
		for k, x := range s.Counters {
			out.Counters[k] += x
		}
		for k, x := range s.Gauges {
			out.Gauges[k] += x
		}
	}
	return out
}

// fileDigest is the FNV-64a hash of a file's bytes.
func fileDigest(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// stateKey names a held-out state across rounds, whose fixtures are
// separate but identical.
type stateKey struct {
	session string
	t       int
}

func keyOf(c *repro.NContext) stateKey { return stateKey{c.SessionID, c.T} }

// expected is in-process PredictAll over the original contexts of every
// round's plan, each distinct state predicted once.
func expected(p *repro.Predictor, plan [][]*repro.NContext) map[stateKey]answer {
	seen := map[stateKey]bool{}
	var uniq []*repro.NContext
	for _, sent := range plan {
		for _, c := range sent {
			if k := keyOf(c); !seen[k] {
				seen[k] = true
				uniq = append(uniq, c)
			}
		}
	}
	out := make(map[stateKey]answer, len(uniq))
	for i, pr := range p.PredictAll(uniq) {
		out[keyOf(uniq[i])] = answer{Measure: pr.MeasureName, OK: pr.OK, Fallback: pr.Fallback}
	}
	return out
}

// probe replays served bodies in-process, one layer call at a time, on a
// separately loaded copy of the served model (so the served model's memo
// is untouched), with its metric index on or off as served: decode,
// display profiles, kNN predict, response encode. It returns the names of
// the probe spans.
func probe(path string, bodies [][]byte, indexed bool, tr *tracer) ([]string, error) {
	clf, _, err := repro.SnapshotReloader(path)()
	if err != nil {
		return nil, err
	}
	if !indexed {
		clf.DisableIndex()
	}
	n := min(probeRequests, len(bodies))
	for i := 0; i < n; i++ {
		req := fmt.Sprintf("p%d", i)
		root := tr.begin("probe", req, 0)
		var wc struct {
			Context *snapshot.WireContext `json:"context"`
		}
		var ctx *session.Context
		err := tr.measured("snapshot.decode", req, root, func() (err error) {
			if err = json.Unmarshal(bodies[i], &wc); err != nil {
				return err
			}
			ctx, err = snapshot.DecodeContext(wc.Context, nil)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("probe decode: %w", err)
		}
		_ = tr.measured("engine.profile", req, root, func() error {
			for _, d := range displays(ctx) {
				d.GetProfile()
			}
			return nil
		})
		var pred knn.Prediction
		err = tr.measured("knn.predict", req, root, func() (err error) {
			pred, err = clf.PredictCtx(context.Background(), ctx)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("probe predict: %w", err)
		}
		_ = tr.measured("serve.encode", req, root, func() error {
			var buf bytes.Buffer
			return json.NewEncoder(&buf).Encode(answer{Measure: pred.Label, OK: pred.Covered, Fallback: pred.Fallback})
		})
		tr.end(root, 0)
	}
	return []string{"snapshot.decode", "engine.profile", "knn.predict", "serve.encode"}, nil
}

// displays lists a context's node displays.
func displays(c *session.Context) []*engine.Display {
	var out []*engine.Display
	var walk func(n *session.CtxNode)
	walk = func(n *session.CtxNode) {
		if n == nil {
			return
		}
		if n.Display != nil {
			out = append(out, n.Display)
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(c.Root)
	return out
}

// trainProbe times the two training layers the facade's TrainPredictor
// runs inside one call: the labelled training set, then the kNN model and
// its metric index. It repeats the facade's steps with the trained
// predictor's own config, and checks that they rebuild what the facade
// built: the same training-set size and the same index bytes as the
// snapshot saved at path. It returns both times in ms.
func trainProbe(tr *tracer, a *offline.Analysis, trained *repro.Predictor, path string) (buildMS, indexMS float64, err error) {
	cfg, m := trained.Config(), trained.Method()
	root := tr.begin("train.probe", "", 0)
	defer tr.end(root, 0)
	t0 := time.Now()
	var samples []*offline.Sample
	_ = tr.step("offline.training_set", root, func() error {
		samples = offline.BuildTrainingSet(a, trained.MeasureSet(), offline.TrainingOptions{
			N: cfg.N, Method: m, ThetaI: cfg.ThetaI, SuccessfulOnly: true,
		})
		return nil
	})
	buildMS = ms(time.Since(t0))
	if len(samples) != trained.TrainingSize() {
		return 0, 0, fmt.Errorf("train probe: %v training set has %d samples, TrainPredictor's %d", m, len(samples), trained.TrainingSize())
	}
	t1 := time.Now()
	var clf *knn.Classifier
	_ = tr.step("knn.index_build", root, func() error {
		clf = knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{
			K: cfg.K, ThetaDelta: cfg.ThetaDelta, Workers: cfg.Workers, Fallback: cfg.Fallback,
		})
		clf.BuildIndex()
		return nil
	})
	indexMS = ms(time.Since(t1))
	got, err := json.Marshal(clf.Index().Encode())
	if err != nil {
		return 0, 0, err
	}
	_, secs, err := snapshot.LoadSections(path)
	if err != nil {
		return 0, 0, err
	}
	for _, sec := range secs {
		if sec.Kind == snapshot.SectionKNNIndex {
			if !bytes.Equal(sec.Payload, got) {
				return 0, 0, fmt.Errorf("train probe: the %v index differs from the one TrainPredictor saved", m)
			}
			return buildMS, indexMS, nil
		}
	}
	return 0, 0, fmt.Errorf("train probe: %s has no index section", path)
}

// offlineValues reports the analysis's Table-3 component costs.
func offlineValues(v map[string]float64, a *offline.Analysis) {
	v["offline.ref.execute_s"] = a.RefTimings.ActionExecution.Seconds()
	v["offline.ref.score_s"] = a.RefTimings.CalcInterestingness.Seconds()
	v["offline.ref.rank_s"] = a.RefTimings.CalcRelative.Seconds()
	v["offline.norm.score_s"] = a.NormTimings.CalcInterestingness.Seconds()
	v["offline.norm.relative_s"] = a.NormTimings.CalcRelative.Seconds()
}

// counterValues turns deltas of the program's obs counters over the
// closed loop into per-request counts and shares.
func counterValues(v map[string]float64, before, after obs.Snapshot, reqs int) {
	c := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	per := func(name string) float64 { return c(name) / float64(reqs) }
	share := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["knn.distance_evals_per_req"] = per("knn.distance_evals")
	v["knn.index.visited_per_req"] = per("knn.index.visited")
	v["knn.index.pruned_share"] = share(c("knn.index.pruned"), c("knn.index.pruned")+c("knn.index.visited"))
	v["distance.display_calls_per_req"] = per("distance.display.calls")
	v["distance.treeedit_calls_per_req"] = per("distance.treeedit.calls")
	v["distance.abandon_share"] = share(c("distance.treeedit.early_abandon"), c("distance.treeedit.bounded_calls"))
	v["distance.memo_hit_share"] = share(c("distance.memo.hits"), c("distance.memo.hits")+c("distance.memo.misses"))
	v["distance.memo_entries_per_req"] = float64(after.Gauges["distance.memo.size"]-before.Gauges["distance.memo.size"]) / float64(reqs)
}

// layerValues derives the span-based per-layer metrics of a run. Times
// are medians over the quiescent probes and the requests of one phase
// (the open loop, where the servers are lightly loaded, on the serving
// workloads); counts cover every timed request. It reports the metrics of
// layers the workload does not reach as 0 and returns their names.
func layerValues(v map[string]float64, kind string, spans []span, phase byte, probes []string, reqs int) (absent []string) {
	st := newSpanStats(spans, func(s span) bool { return s.Req != "" && (s.Req[0] == phase || s.Req[0] == 'p') })
	v["snapshot.decode_us"] = st.medianUS("snapshot.decode")
	v["snapshot.decode_allocs"] = st.medianOf("snapshot.decode", func(s span) float64 { return float64(s.Allocs) })
	v["engine.profile_us"] = st.medianUS("engine.profile")
	v["engine.profile_allocs"] = st.medianOf("engine.profile", func(s span) float64 { return float64(s.Allocs) })
	v["knn.predict_us"] = st.medianUS("knn.predict")
	v["serve.encode_us"] = st.medianUS("serve.encode")
	v["net.roundtrip_us"] = st.medianSelfUS("client.request")
	if kind != kindRing {
		h := st.medianUS("serve.handler")
		v["serve.handler_us"] = h
		v["serve.self_us"] = h
		for _, p := range probes {
			v["serve.self_us"] -= st.medianUS(p)
		}
		absent = []string{"ring.calls_per_req", "ring.replica_us", "ring.router_self_us", "ring.hop_bytes_per_req"}
		for _, k := range absent {
			v[k] = 0
		}
		return absent
	}
	// The router is the ring's handler; its own time is ring.router_self_us.
	v["serve.handler_us"], v["serve.self_us"] = 0, 0
	v["ring.replica_us"] = st.medianOf("ring.replica", func(s span) float64 { return float64(s.dur()) / 1e3 })
	v["ring.router_self_us"] = st.medianSelfUS("serve.router")
	var calls, bytes int
	for _, s := range spans {
		if s.Name == "ring.replica" && timedRequest(s.Req) {
			calls++
			bytes += int(s.Bytes)
		}
	}
	v["ring.calls_per_req"] = float64(calls) / float64(reqs)
	v["ring.hop_bytes_per_req"] = float64(bytes) / float64(reqs)
	return []string{"serve.handler_us", "serve.self_us"}
}

// timedRequest reports whether a request id belongs to a timed phase.
func timedRequest(req string) bool {
	return strings.HasPrefix(req, "o") || strings.HasPrefix(req, "c")
}

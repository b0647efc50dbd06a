package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/obs"
)

// trainRefLimit caps each action's reference set in the timed analysis:
// the reference pass runs, at a size that keeps a run within bounds.
const trainRefLimit = 40

var trainMethods = []repro.Method{repro.ReferenceBased, repro.Normalized}

// trainRound is what one round of the train workload measured.
type trainRound struct {
	fx      *fixture
	trained []*repro.Predictor
	paths   []string
	sums    []string
	asked   [][]*repro.NContext // the check's contexts, per method
	bodies  [][]byte            // the last method's check bodies
	got     []answer
	errs    []error
	lat     []float64

	setup               time.Duration
	saves, loads, sizes []float64
	train, check        rtDelta
	checkWall           time.Duration
	before, after       obs.Snapshot
	heap                float64
}

// trainOnce runs one round: generation (set-up); then, timed, analysis
// with both methods and the reference pass on, the default predictor per
// method and its Save; then the check, which reloads each snapshot,
// serves it on loopback and sends it held-out contexts from one client
// per CPU. The caller removes the round's snapshots.
func trainOnce(o options, rep, checks int, tr *tracer) (*trainRound, error) {
	r := &trainRound{}
	t0 := time.Now()
	fx, err := generate()
	if err != nil {
		return r, err
	}
	tr.record("simulate.generate", 0, t0, time.Now())
	r.fx = fx
	r.setup = time.Since(t0)

	runtime.GC() // the timed span does not pay for generation's garbage
	root := tr.begin("train", "", 0)
	r0 := readRuntime()
	err = tr.step("offline.analyze", root, func() error {
		return fx.fw.RunOfflineAnalysisContext(context.Background(), repro.AnalysisOptions{RefLimit: trainRefLimit})
	})
	if err != nil {
		return r, err
	}
	for _, m := range trainMethods {
		var p *repro.Predictor
		err := tr.step("train.predictor", root, func() (err error) {
			p, err = fx.fw.TrainPredictor(repro.DefaultMeasureSet(), m, repro.DefaultPredictorConfig(m))
			return err
		})
		if err != nil {
			return r, err
		}
		path := filepath.Join(o.workDir, fmt.Sprintf("train-%v-%d.snap", m, rep))
		r.trained, r.paths = append(r.trained, p), append(r.paths, path)
		ts := time.Now()
		if err := tr.step("snapshot.save", root, func() error { return p.Save(path) }); err != nil {
			return r, err
		}
		r.saves = append(r.saves, ms(time.Since(ts)))
	}
	r.train = r0.to(readRuntime())
	tr.end(root, 0)

	if tr != nil {
		r.before = obs.Default.Snapshot()
	}
	for i, m := range trainMethods {
		fi, err := os.Stat(r.paths[i])
		if err != nil {
			return r, err
		}
		r.sizes = append(r.sizes, float64(fi.Size()))
		sum, err := fileDigest(r.paths[i])
		if err != nil {
			return r, err
		}
		r.sums = append(r.sums, sum)
		// Encode the whole held-out pool, so the display profiles that
		// encoding builds, and with them the live heap, do not depend on
		// which contexts the seed picks.
		pool := fx.contexts(r.trained[i].Config().N, false)
		if len(pool) < checks {
			return r, fmt.Errorf("fixture has %d held-out states, the check needs %d", len(pool), checks)
		}
		encoded := make(map[*repro.NContext][]byte, len(pool))
		for _, c := range pool {
			if encoded[c], err = body(c); err != nil {
				return r, err
			}
		}
		cs := shuffled(pick(pool, checks, uint64(10+i)), rand.New(rand.NewPCG(o.seed, uint64(10+i))))
		r.asked = append(r.asked, cs)
		bodies := make([][]byte, len(cs))
		for j, c := range cs {
			bodies[j] = encoded[c]
		}
		tl := time.Now()
		var loaded *repro.Predictor
		err = tr.step("snapshot.load", 0, func() (err error) {
			loaded, err = repro.LoadPredictor(r.paths[i])
			return err
		})
		if err != nil {
			return r, err
		}
		r.loads = append(r.loads, ms(time.Since(tl)))
		base, stop, err := startServers(kindServe, loaded, r.paths[i], tr)
		if err != nil {
			return r, err
		}
		cl := newClient(base, runtime.NumCPU())
		got := make([]answer, checks)
		errs := make([]error, checks)
		c0 := readRuntime()
		p := closedLoop(checks, runtime.NumCPU(), func(j int) {
			req := fmt.Sprintf("c%d.%v.%d", rep, m, j)
			id := tr.begin("client.request", req, 0)
			tr.nest(req, id)
			got[j], errs[j] = cl.predict(bodies[j], req)
			tr.end(id, int64(len(bodies[j])))
		})
		d := c0.to(readRuntime())
		if i == len(trainMethods)-1 {
			// Read the heap while the last check's server still runs: a
			// stopped server's connection goroutines exit in their own time
			// and, until they do, keep its model and memo live.
			r.heap = liveHeapMiB()
		}
		cl.close()
		stop()
		r.check.cpu += d.cpu
		r.check.allocBytes += d.allocBytes
		r.check.gcCycles += d.gcCycles
		r.checkWall += p.wall
		r.lat = append(r.lat, p.lat...)
		r.got = append(r.got, got...)
		r.errs = append(r.errs, errs...)
		r.bodies = bodies
	}
	if tr != nil {
		r.after = obs.Default.Snapshot()
	}
	return r, nil
}

func (r *trainRound) removeSnapshots() {
	for _, p := range r.paths {
		_ = os.Remove(p) // scratch snapshots inside the build directory
	}
}

// runTrain runs the train workload in rounds, each from generation.
func runTrain(w workload, o options, rec *record, tr *tracer) (*outcome, error) {
	_, checks := w.counts(o.seconds)
	per := map[string][]float64{}
	out := &outcome{values: map[string]float64{}}
	var want, got []answer
	var lat []float64
	var models []string
	var errs []error
	var last *trainRound
	var check rtDelta
	var before, after obs.Snapshot
	var probeSpans []string
	var trainSetMS, indexMS float64
	for rep := 0; rep < w.rounds; rep++ {
		r, err := trainOnce(o, rep, checks, tr)
		if err == nil && tr != nil && rep == w.rounds-1 {
			// Replay the last round's Normalized check bodies layer by
			// layer, as the serving workloads do, and split each
			// predictor's training into its layers.
			probeSpans, err = probe(r.paths[len(r.paths)-1], r.bodies, true, tr)
			for i := 0; err == nil && i < len(trainMethods); i++ {
				var b, x float64
				b, x, err = trainProbe(tr, r.fx.fw.Analysis, r.trained[i], r.paths[i])
				trainSetMS, indexMS = trainSetMS+b, indexMS+x
			}
		}
		r.removeSnapshots()
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			// The reference: the in-memory predictors' PredictAll over the
			// same contexts. Later rounds train the same models, as their
			// snapshot bytes show.
			for i, cs := range r.asked {
				for _, pr := range r.trained[i].PredictAll(cs) {
					want = append(want, answer{Measure: pr.MeasureName, OK: pr.OK, Fallback: pr.Fallback})
				}
			}
			models = r.sums
			heldOut := r.fx.contexts(r.trained[1].Config().N, false)
			rec.describeFixture(r.fx, heldOut, r.trained[1].TrainingSize())
			rec.Fixture["training_contexts_reference"] = r.trained[0].TrainingSize()
		}
		for i := range models {
			if r.sums[i] != models[i] {
				return nil, fmt.Errorf("round %d trained a different %v model", rep, trainMethods[i])
			}
		}
		good := checkAnswers(r.got, r.errs, want)
		bad := markFailures(r.lat, good)
		n := len(r.got)
		out.attempted += n
		out.failed += bad
		asked := append(append([]*repro.NContext(nil), r.asked[0]...), r.asked[1]...)
		out.notes = append(out.notes, firstErrors(r.errs, good, func(i int) string {
			return fmt.Sprintf("round %d: context %s@%d served %+v, in-memory %+v", rep, asked[i].SessionID, asked[i].T, r.got[i], want[i])
		})...)
		lat = append(lat, r.lat...)
		add := func(k string, x ...float64) { per[k] = append(per[k], x...) }
		add("setup_s", r.setup.Seconds())
		add("throughput_rps", float64(n-bad)/r.checkWall.Seconds())
		add("cpu_ms_per_req", ms(r.check.cpu)/float64(n))
		add("heap_live_mb", r.heap)
		add("train_s", r.train.wall.Seconds())
		add("train_cpu_s", r.train.cpu.Seconds())
		add("simulate.generate_s", r.fx.gen.Seconds())
		add("runtime.alloc_mb", float64(r.train.allocBytes)/(1<<20))
		add("runtime.gc_cpu_share", r.train.gcShare)
		add("snapshot.save_ms", r.saves...)
		add("snapshot.load_ms", r.loads...)
		add("snapshot.bytes", r.sizes...)
		got = append(got, r.got...)
		errs = append(errs, r.errs...)
		check.allocBytes += r.check.allocBytes
		check.gcCycles += r.check.gcCycles
		before, after = addCounters(before, r.before), addCounters(after, r.after)
		if rep == w.rounds-1 {
			last = r // earlier rounds are dropped, so no round's heap holds another's
		}
	}
	out.digest = digest(got, errs)
	rec.Fixture["ref_limit"] = trainRefLimit
	rec.Requests["rounds"] = w.rounds
	rec.Requests["check_predictions_per_method_per_round"] = checks
	rec.Requests["clients"] = runtime.NumCPU()
	out.samples = fmt.Sprintf("%d rounds, each from generation; per round one analysis, %d predictors and their saves, then %d closed-loop requests to the reloaded snapshots by %d clients; "+
		"the latency percentiles over the %d check samples, the other metrics the median over rounds",
		w.rounds, len(trainMethods), checks*len(trainMethods), runtime.NumCPU(), len(lat))
	v := out.values
	for _, d := range endToEnd {
		v[d.name] = median(per[d.name])
	}
	out.perRound = per
	v["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
	var err error
	if v["latency_p50_ms"], err = percentile(lat, 0.50); err != nil {
		return nil, err
	}
	if v["latency_p99_ms"], err = percentile(lat, 0.99); err != nil {
		return nil, err
	}
	if tr == nil {
		return out, nil
	}

	for _, k := range []string{"simulate.generate_s", "runtime.alloc_mb", "runtime.gc_cpu_share", "snapshot.save_ms", "snapshot.load_ms", "snapshot.bytes"} {
		v[k] = median(per[k])
	}
	offlineValues(v, last.fx.fw.Analysis)
	v["offline.training_set_ms"], v["knn.index_build_ms"] = trainSetMS, indexMS
	n := len(got)
	v["runtime.alloc_kb_per_req"] = float64(check.allocBytes) / 1024 / float64(n)
	v["runtime.gc_cycles_per_1k_req"] = float64(check.gcCycles) * 1000 / float64(n)
	counterValues(v, before, after, n)
	abstain := 0
	for _, g := range got {
		if !g.OK {
			abstain++
		}
	}
	v["knn.abstain_share"] = float64(abstain) / float64(n)
	out.absent = layerValues(v, kindTrain, tr.snapshot(), 'c', probeSpans, n)
	return out, nil
}

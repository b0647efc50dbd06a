package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/faults"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/ring"
	"repro/internal/snapshot"
)

// Router is the fan-out tier of the replicated sharded serving layer
// (DESIGN.md §11). It owns no training data: each predict request is
// scattered to every shard's replica group as a candidates call, the
// per-shard ungated top-k lists are merged, and the θ_δ gate + vote +
// fallback run router-side over the merged list — bit-identical to a
// single-process scan of the undivided model (see knn.Candidates for the
// proof sketch).
//
// Availability is layered (the ring rungs of the degradation ladder):
//
//  1. Replica failover: a failed replica call moves to the shard's next
//     replica immediately — no sleeping, same request.
//  2. Last-ditch ejected replicas: when every routable replica of a
//     shard failed, the router tries even Ejected ones — a wrong health
//     opinion must degrade latency, never correctness.
//  3. Prior-label degradation: only when a whole shard stays
//     unanswerable does the router fall back to the model's prior label
//     (or 503 when the model has none).
//
// Health is observed two ways: passively from routing outcomes and
// actively by a /readyz prober (ring.Checker holds the state machine).
// A repair loop compares every replica's snapshot checksum against the
// router's own and pushes the router's snapshot to stale nodes — the
// self-healing path that re-converges a replica restored from an old
// disk image.
//
// The router is the shared front (front.go) with a scatter → merge →
// vote backend, a ring-aware readiness check, and the prober and repair
// loops as its background work.
type Router struct {
	*front
	ring    *ring.Ring
	checker *ring.Checker
	httpc   *http.Client
	// hedge paces hedged replica requests; nil means hedging is off.
	hedge *hedgePacer

	info      ModelInfo
	cfg       knn.Config
	modelPath string
	loadedAt  time.Time

	// healthRound and repairSweep key the ring.health / ring.repair fault
	// probes: including a monotonic round in the key re-rolls the
	// deterministic injection each cycle, so an armed site perturbs rounds
	// without permanently wedging one node.
	healthRound atomic.Uint64
	repairSweep atomic.Uint64
}

// Ring-tier telemetry (the counters the chaos suite and the CI ring
// smoke assert on).
var (
	mRouteFailover    = obs.C("ring.route_failover")
	mShardUnavailable = obs.C("ring.shard_unavailable")
	mStaleReplica     = obs.C("ring.stale_replica")
	mRepairs          = obs.C("ring.repairs")
	mRepairFailed     = obs.C("ring.repair_failed")
)

// The router's fixed timings.
const (
	// probeInterval spaces active health-probe rounds.
	probeInterval = 500 * time.Millisecond
	// repairInterval spaces repair sweeps.
	repairInterval = 5 * time.Second
	// replicaTimeout bounds one replica call.
	replicaTimeout = 5 * time.Second
	// hedgeDelayCeil caps the hedge pacing delay so a shard whose p95 has
	// drifted high still hedges usefully.
	hedgeDelayCeil = replicaTimeout / 2
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// MaxInFlight, MaxBatch, ShutdownGrace, RetryAfter, AdaptiveInFlight,
	// LatencyTarget and TraceRing mean exactly what they do in Options.
	MaxInFlight      int
	MaxBatch         int
	ShutdownGrace    time.Duration
	RetryAfter       time.Duration
	AdaptiveInFlight bool
	LatencyTarget    time.Duration
	TraceRing        int

	// HedgeFraction enables hedged replica requests: after a per-shard
	// pacing delay, a slow shard call gets ONE backup request to the next
	// replica in health order, capped so fired hedges never exceed this
	// fraction of shard calls. <=0 disables hedging.
	HedgeFraction float64
	// HedgeDelayFloor is the minimum time a shard call must run before a
	// hedge may fire (and the pacing delay used until the shard's latency
	// window warms up). <=0 means 5ms.
	HedgeDelayFloor time.Duration

	// Info describes the model the router merges for (served on
	// /v1/model with Role "router"). Info.Checksum is the reference the
	// repair loop compares replicas against; Info.Prior is the last-rung
	// degradation answer.
	Info ModelInfo
	// Cfg carries the gate/vote/fallback hyper-parameters the router-side
	// merge applies; it must come from the same snapshot the replicas
	// serve (NewRingRouter loads both from one file).
	Cfg knn.Config

	// ModelPath is the router's local snapshot file — the bytes the
	// repair loop pushes to stale replicas. Empty disables repair pushes
	// (staleness is still detected and counted).
	ModelPath string
}

func (o RouterOptions) front() frontOptions {
	return frontOptions{
		MaxInFlight: o.MaxInFlight, AdaptiveInFlight: o.AdaptiveInFlight, LatencyTarget: o.LatencyTarget,
		MaxBatch: o.MaxBatch, ShutdownGrace: o.ShutdownGrace, RetryAfter: o.RetryAfter, TraceRing: o.TraceRing,
	}
}

// NewRouter builds a router over a resolved ring.
func NewRouter(r *ring.Ring, opts RouterOptions) *Router {
	rt := &Router{
		ring:      r,
		httpc:     &http.Client{},
		info:      opts.Info,
		cfg:       opts.Cfg,
		modelPath: opts.ModelPath,
		loadedAt:  time.Now(),
	}
	if opts.HedgeFraction > 0 {
		floor := opts.HedgeDelayFloor
		if floor <= 0 {
			floor = 5 * time.Millisecond
		}
		rt.hedge = newHedgePacer(opts.HedgeFraction, floor, hedgeDelayCeil)
	}
	rt.checker = ring.NewChecker(r, ring.CheckerOptions{
		Interval:     probeInterval,
		ProbeTimeout: replicaTimeout,
		Probe:        rt.probeReplica,
	})
	rt.front = newFront(opts.front(), tier{
		decode: rt.decode,
		status: rt.status,
		ready:  rt.shardsReady,
		loops: []func(context.Context){
			every(probeInterval, rt.ProbeOnce),
			every(repairInterval, func(ctx context.Context) { rt.RepairOnce(ctx) }),
		},
	})
	rt.mux.HandleFunc("/v1/ring", rt.handleRing)
	return rt
}

// Checker exposes the router's health view (tests and /v1/ring).
func (rt *Router) Checker() *ring.Checker { return rt.checker }

// shardsReady is the router's readiness check: ready only while every
// shard retains at least one Healthy replica. A load balancer therefore
// stops sending a router traffic it could only answer from the prior
// label.
func (rt *Router) shardsReady() error {
	if bad := rt.checker.UnhealthyShards(); len(bad) > 0 {
		return fmt.Errorf("shards without a healthy replica: %v", bad)
	}
	return nil
}

func (rt *Router) status() ModelStatus {
	return ModelStatus{
		ModelInfo:  rt.info,
		Generation: 1,
		LoadedAt:   rt.loadedAt,
		Build:      buildinfo.Get(),
		Role:       "router",
	}
}

// ringStatus is the GET /v1/ring response: the resolved topology plus
// this router's health opinion of it.
type ringStatus struct {
	Spec            ring.Spec           `json:"spec"`
	States          map[string]string   `json:"states"`
	Groups          map[string][]string `json:"groups"`
	UnhealthyShards []int               `json:"unhealthy_shards"`
	// Latency is each node's windowed latency view (EWMA and p95, in
	// milliseconds) from real routed requests — the evidence behind any
	// "degraded" state above.
	Latency map[string]nodeLatency `json:"latency,omitempty"`
}

type nodeLatency struct {
	EwmaMs  float64 `json:"ewma_ms"`
	P95Ms   float64 `json:"p95_ms"`
	Samples int     `json:"samples"`
}

func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	st := ringStatus{
		Spec:            rt.ring.Spec(),
		States:          make(map[string]string),
		Groups:          make(map[string][]string),
		UnhealthyShards: []int{},
	}
	st.Latency = make(map[string]nodeLatency)
	for name, s := range rt.checker.States() {
		st.States[name] = s.String()
		if ewma, p95, n := rt.checker.Latency(name); n > 0 {
			st.Latency[name] = nodeLatency{
				EwmaMs:  float64(ewma) / float64(time.Millisecond),
				P95Ms:   float64(p95) / float64(time.Millisecond),
				Samples: n,
			}
		}
	}
	for sh := 0; sh < rt.ring.Shards(); sh++ {
		names := []string{}
		for _, n := range rt.ring.ReplicaGroup(sh) {
			names = append(names, n.Name)
		}
		st.Groups[strconv.Itoa(sh)] = names
	}
	if bad := rt.checker.UnhealthyShards(); bad != nil {
		st.UnhealthyShards = bad
	}
	writeJSON(w, http.StatusOK, st)
}

// decode forwards the wire form untouched: the router never decodes the
// query contexts, it routes them to the replicas that do.
func (rt *Router) decode(wire []*snapshot.WireContext) (answer, error) {
	return func(ctx context.Context, tr *obs.Trace) ([]knn.Prediction, error) {
		return rt.route(ctx, wire, tr)
	}, nil
}

// route is the scatter-gather predict path: every shard's candidates in
// parallel, then the merge and the gate + vote + fallback the whole
// model would apply.
func (rt *Router) route(ctx context.Context, wire []*snapshot.WireContext, tr *obs.Trace) ([]knn.Prediction, error) {
	// Scatter: every shard in parallel; within a shard, replicas in the
	// checker's preference order, then last-ditch ejected ones.
	base := wireKey(wire)
	shards := rt.ring.Shards()
	lists := make([][][]knn.Candidate, shards)
	var failed atomic.Int32
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			res, err := rt.shardCandidates(ctx, sh, base, wire, tr)
			if err != nil {
				if obs.On() {
					mShardUnavailable.Inc()
				}
				tr.Rung("ring.shard_unavailable")
				failed.Add(1)
				return
			}
			lists[sh] = res
		}(sh)
	}
	wg.Wait()

	// Budget exhaustion mid-scatter is its own outcome (504, retryable),
	// not a shard loss: the shard may be fine — the caller's budget was
	// not — and answering the prior here would trade a truthful timeout
	// for a made-up prediction.
	if failed.Load() > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return nil, errBudgetExhausted
	}

	out := make([]knn.Prediction, len(wire))
	if failed.Load() > 0 {
		// Last rung: a shard's candidates are gone, so an exact merge is
		// impossible. Answer the model's prior for every query rather
		// than failing the request; 503 only when there is no prior.
		if rt.info.Prior == "" {
			return nil, &httpError{code: http.StatusServiceUnavailable, retry: true,
				err: errors.New("shard unavailable and model has no prior label")}
		}
		tr.Rung("ring.prior")
		for i := range out {
			out[i] = knn.Prediction{Label: rt.info.Prior, Covered: true, Fallback: true}
		}
		return out, nil
	}

	// Gather: merge the per-shard top-k per query and reproduce the
	// gate + vote + fallback exactly as the whole model would.
	perShard := make([][]knn.Candidate, shards)
	for qi := range wire {
		for sh := 0; sh < shards; sh++ {
			perShard[sh] = lists[sh][qi]
		}
		merged := knn.MergeCandidates(rt.cfg.K, perShard...)
		out[qi] = knn.PredictFromCandidates(merged, rt.cfg, rt.info.Prior)
		tr.AddCandidates(len(merged))
	}
	return out, nil
}

// shardOutcome is one replica attempt's result, as seen by the shard
// call's select loop.
type shardOutcome struct {
	idx     int
	n       ring.Node
	res     *candidatesResponse
	err     error
	elapsed time.Duration
}

// shardCandidates asks one shard's replicas for the batch's candidate
// lists, walking the failover ladder: preference order first, then the
// ejected last-ditch, two sweeps total (the ring.route fault key
// re-rolls per attempt, so a deterministic injected hop fault is
// transient across the retry). Failover is sequential — a failed
// attempt launches the next. Hedging is the one concurrency exception:
// with a pacer configured, an attempt that outlives the shard's pacing
// delay gets a single backup launched in parallel, and whichever answers
// first wins; the loser is cancelled, its elapsed time feeding the gray
// detector as a censored lower bound but never the failure machine (the
// node did not fail — the router stopped waiting).
func (rt *Router) shardCandidates(ctx context.Context, shard int, base string, wire []*snapshot.WireContext, tr *obs.Trace) ([][]knn.Candidate, error) {
	order := rt.checker.Order(shard)
	tried := make(map[string]bool, len(order))
	for _, n := range order {
		tried[n.Name] = true
	}
	// Last-ditch: a wrong health opinion must cost latency, not
	// correctness — ejected replicas are still tried before the prior
	// rung gets a say.
	for _, n := range rt.ring.ReplicaGroup(shard) {
		if !tried[n.Name] {
			order = append(order, n)
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("shard %d unavailable: no replicas", shard)
	}
	const sweeps = 2
	plan := make([]ring.Node, 0, len(order)*sweeps)
	for sweep := 0; sweep < sweeps; sweep++ {
		plan = append(plan, order...)
	}
	if rt.hedge != nil {
		rt.hedge.startCall()
	}

	// outc is buffered to the whole plan so an attempt finishing after
	// this function returned (a cancelled loser, a late success) can
	// always deliver its outcome and exit — no goroutine leaks, ever.
	outc := make(chan shardOutcome, len(plan))
	cancels := make([]context.CancelFunc, len(plan))
	abandoned := make([]*atomic.Bool, len(plan))
	defer func() {
		for _, cancel := range cancels {
			if cancel != nil {
				cancel()
			}
		}
	}()
	launch := func(i int) {
		actx, cancel := context.WithCancel(ctx)
		cancels[i] = cancel
		flag := &atomic.Bool{}
		abandoned[i] = flag
		n := plan[i]
		go func() {
			t0 := time.Now()
			res, err := rt.callCandidates(actx, n, shard, base, i, wire, tr)
			elapsed := time.Since(t0)
			if err != nil && flag.Load() {
				// Cancelled loser of a won race: feed the gray detector
				// (the elapsed time is a lower bound on how slow the node
				// really was), count the cancel, exit. Not a failure.
				rt.checker.ReportLatency(n.Name, elapsed)
				if obs.On() {
					mHedgeCancelled.Inc()
				}
				return
			}
			outc <- shardOutcome{idx: i, n: n, res: res, err: err, elapsed: elapsed}
		}()
	}

	launch(0)
	next, pending := 1, 1
	hedgeIdx := -1
	var hedgeC <-chan time.Time
	if rt.hedge != nil && next < len(plan) {
		t := time.NewTimer(rt.hedge.delay(shard))
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	for pending > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if next < len(plan) && rt.hedge.tryHedge() {
				if obs.On() {
					mHedgeFired.Inc()
				}
				tr.Rung("ring.hedge")
				hedgeIdx = next
				launch(next)
				next++
				pending++
			}
		case o := <-outc:
			pending--
			if o.err != nil {
				rt.checker.ReportFailure(o.n.Name)
				tr.Hop(fmt.Sprintf("shard%d→%s fail", shard, o.n.Name))
				lastErr = o.err
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				if next < len(plan) {
					if obs.On() {
						mRouteFailover.Inc()
					}
					tr.Rung("ring.failover")
					launch(next)
					next++
					pending++
				}
				continue
			}
			// Winner. Report health and latency, settle the hedge race,
			// cancel everything still in flight.
			rt.checker.ReportSuccess(o.n.Name)
			rt.checker.ReportLatency(o.n.Name, o.elapsed)
			if rt.hedge != nil {
				rt.hedge.observeWin(shard, o.elapsed)
			}
			if o.idx == hedgeIdx {
				if obs.On() {
					mHedgeWon.Inc()
				}
				tr.Rung("ring.hedge_won")
			}
			for j, cancel := range cancels {
				if j != o.idx && cancel != nil {
					abandoned[j].Store(true)
					cancel()
				}
			}
			hop := fmt.Sprintf("shard%d→%s ok", shard, o.n.Name)
			if o.res.Checksum != "" && rt.info.Checksum != "" && o.res.Checksum != rt.info.Checksum {
				// The answer still merges — same topology, possibly older
				// labels — but the staleness is surfaced and the repair loop
				// will converge the node.
				if obs.On() {
					mStaleReplica.Inc()
				}
				tr.Rung("ring.stale")
				hop = fmt.Sprintf("shard%d→%s stale", shard, o.n.Name)
			}
			tr.Hop(hop)
			return o.res.Results, nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("shard %d has no replicas", shard)
	}
	return nil, fmt.Errorf("shard %d unavailable: %w", shard, lastErr)
}

// callCandidates performs one replica candidates call behind the
// ring.route fault probe. The probe key is (query content, batch size,
// shard, replica) with the failover position as the attempt re-roll —
// deterministic across runs, independent across replicas, so an armed
// site exercises failover without any replica pair failing together
// systematically.
func (rt *Router) callCandidates(ctx context.Context, n ring.Node, shard int, base string, attempt int, wire []*snapshot.WireContext, tr *obs.Trace) (res *candidatesResponse, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, pipeline.Recovered(faults.SiteRingRoute, r)
		}
	}()
	if faults.Enabled() {
		key := faults.Key(fmt.Sprintf("%s/s%d@%s", base, shard, n.Name), attempt)
		if ferr := faults.Inject(faults.SiteRingRoute, key, faults.KindAll); ferr != nil {
			tr.FaultSite(faults.SiteRingRoute)
			return nil, ferr
		}
	}
	body, err := json.Marshal(candidatesRequest{Shard: shard, Contexts: wire})
	if err != nil {
		return nil, err
	}
	raw, err := rt.callReplica(ctx, n, "/v1/knn/candidates", body, "application/json", tr)
	if err != nil {
		return nil, err
	}
	var cr candidatesResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		return nil, fmt.Errorf("%s: decode candidates: %w", n.Name, err)
	}
	if len(cr.Results) != len(wire) {
		return nil, fmt.Errorf("%s: %d results for %d queries", n.Name, len(cr.Results), len(wire))
	}
	return &cr, nil
}

// callReplica sends one request to replica n — a POST of body as
// contentType, or a GET when body is nil — bounded by replicaTimeout,
// and returns the answer's body. Any status but 200 is an error.
func (rt *Router) callReplica(ctx context.Context, n ring.Node, path string, body []byte, contentType string, tr *obs.Trace) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, replicaTimeout)
	defer cancel()
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, n.Addr+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	// Forward the remaining budget (the tighter of the caller's deadline
	// and replicaTimeout) so the replica can fast-fail work it cannot
	// finish in time.
	stampDeadline(req, ctx)
	if id := tr.ID(); id != "" {
		// Propagate the request's correlation ID across the hop so the
		// replica's trace log stitches to the router's.
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", n.Name, path, resp.Status, firstLine(raw))
	}
	return raw, nil
}

// firstLine trims a response body to its first line for error messages.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// probeReplica is the active health check: GET /readyz behind the
// ring.health fault probe. The probe key includes the round counter so a
// deterministic injection perturbs some rounds of some nodes instead of
// permanently condemning one node.
func (rt *Router) probeReplica(ctx context.Context, n ring.Node) error {
	if faults.Enabled() {
		key := n.Name + "/round:" + strconv.FormatUint(rt.healthRound.Load(), 10)
		if err := injectSiteGuarded(faults.SiteRingHealth, key); err != nil {
			return err
		}
	}
	_, err := rt.callReplica(ctx, n, "/readyz", nil, "", nil)
	return err
}

// ProbeOnce drives one active health-probe round (tests and the startup
// path use it; RunListener's prober loop calls it in production).
func (rt *Router) ProbeOnce(ctx context.Context) {
	rt.healthRound.Add(1)
	rt.checker.ProbeOnce(ctx)
}

// RepairOnce runs one repair sweep: every node's /v1/model checksum is
// compared against the router's reference; stale nodes get the router's
// snapshot pushed (verified server-side, written atomically, then
// hot-reloaded). Returns the number of successful repairs. Unreachable
// nodes are skipped — convergence is the health prober's signal to wait
// for, not the repair loop's to force.
func (rt *Router) RepairOnce(ctx context.Context) int {
	if rt.info.Checksum == "" {
		return 0
	}
	sweep := rt.repairSweep.Add(1)
	repaired := 0
	for _, n := range rt.ring.Nodes() {
		if ctx.Err() != nil {
			return repaired
		}
		st, err := rt.fetchModel(ctx, n)
		if err != nil || st.Checksum == "" || st.Checksum == rt.info.Checksum {
			continue
		}
		if obs.On() {
			mStaleReplica.Inc()
		}
		if rt.modelPath == "" {
			continue
		}
		if err := rt.pushSnapshot(ctx, n, sweep); err != nil {
			if obs.On() {
				mRepairFailed.Inc()
			}
			continue
		}
		if obs.On() {
			mRepairs.Inc()
		}
		repaired++
	}
	return repaired
}

// fetchModel reads a replica's /v1/model status.
func (rt *Router) fetchModel(ctx context.Context, n ring.Node) (ModelStatus, error) {
	var st ModelStatus
	raw, err := rt.callReplica(ctx, n, "/v1/model", nil, "", nil)
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	return st, err
}

// pushSnapshot sends the router's snapshot file to one stale replica,
// behind the ring.repair fault probe (keyed by node and sweep so an
// armed site fails some pushes — which the next sweep retries — rather
// than wedging repair for one node forever).
func (rt *Router) pushSnapshot(ctx context.Context, n ring.Node, sweep uint64) error {
	if faults.Enabled() {
		key := n.Name + "/sweep:" + strconv.FormatUint(sweep, 10)
		if err := injectSiteGuarded(faults.SiteRingRepair, key); err != nil {
			return err
		}
	}
	blob, err := os.ReadFile(rt.modelPath)
	if err != nil {
		return err
	}
	_, err = rt.callReplica(ctx, n, "/v1/admin/snapshot", blob, "application/octet-stream", nil)
	return err
}

// Package serve is the HTTP prediction server over a trained I-kNN
// classifier: it answers single and batch measure predictions for JSON
// wire contexts (internal/snapshot's self-contained form), with the
// operational envelope a long-running process needs — health/readiness
// probes, bounded in-flight concurrency with explicit load-shedding,
// request telemetry through internal/obs, deterministic fault-injection
// sites for chaos coverage, graceful drain on context cancellation, and
// hot model reload without dropping in-flight requests.
//
// The standalone Server and the ring Router (router.go) are one serving
// front (front.go) with different backends: admission, limits, readiness,
// tracing, the common routes and the graceful drain exist once.
//
// Degradation under load is deliberate and layered (DESIGN.md §8): when
// more requests are in flight than the configured bound, new prediction
// requests are rejected immediately with 503 + Retry-After instead of
// queueing without bound; health endpoints never shed, so orchestrators
// keep seeing the process as alive-but-saturated. The Retry-After value
// is computed from the current occupancy, not hardcoded, so a barely
// saturated server invites a quick retry while a drowning one pushes
// clients further out. During shutdown the readiness probe flips to 503
// first, so load balancers drain the instance while in-flight requests
// complete.
//
// Model reload (DESIGN.md §9) is load-validate-swap: the Reloader builds
// a candidate classifier off to the side, a self-test probes it against
// its own training contexts, and only then does an atomic pointer swap
// publish it. Requests already executing keep the model they started
// with; a failed load leaves the old model serving and bumps a counter.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
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
	"repro/internal/session"
	"repro/internal/snapshot"
)

// Request telemetry: the covered/abstain/fallback split mirrors the
// classifier's own counters but is attributed to the serving layer, so the
// -v snapshot and the -telemetry expvar page show what HTTP traffic (as
// opposed to in-process batches) experienced.
var (
	mRequests     = obs.C("serve.requests")
	mRejected     = obs.C("serve.rejected")
	mErrors       = obs.C("serve.errors")
	mPredictions  = obs.C("serve.predictions")
	mAbstain      = obs.C("serve.abstain")
	mFallback     = obs.C("serve.fallback")
	mReloads      = obs.C("serve.reloads")
	mReloadFailed = obs.C("serve.reload_failed")
	gGeneration   = obs.G("serve.model_generation")
	hLatency      = obs.H("serve.latency")
	stServe       = obs.S("serve.predict")
	stDecode      = obs.S("serve.decode")
	stEncode      = obs.S("serve.encode")
)

// ModelInfo describes the loaded model on /v1/model.
type ModelInfo struct {
	Method       string   `json:"method"`
	Measures     []string `json:"measures"`
	N            int      `json:"n"`
	K            int      `json:"k"`
	ThetaDelta   float64  `json:"theta_delta"`
	ThetaI       float64  `json:"theta_i"`
	Fallback     string   `json:"fallback"`
	TrainingSize int      `json:"training_size"`
	// Prior is the training set's most common label — the answer a
	// degraded client falls back to when the server is unreachable.
	Prior string `json:"prior,omitempty"`
	// Checksum is the FNV-64a hash of the snapshot file the model was
	// loaded from (snapshot.FileChecksum), empty when the model did not
	// come from a file. The ring repair loop compares this value across
	// replicas to detect stale snapshots (DESIGN.md §11).
	Checksum string `json:"checksum,omitempty"`
}

// ModelStatus is the /v1/model response: the model description plus its
// reload provenance and the build serving it.
type ModelStatus struct {
	ModelInfo
	// Generation counts model swaps: 1 for the model the server started
	// with, +1 per successful reload.
	Generation uint64 `json:"generation"`
	// LoadedAt is when this generation went live.
	LoadedAt time.Time `json:"loaded_at"`
	// Build identifies the binary answering, so a client error report can
	// name the exact server build it talked to.
	Build buildinfo.Info `json:"build"`
	// Role distinguishes ring members: "replica" for a shard-serving
	// node, "router" for the fan-out tier, empty for a standalone server.
	Role string `json:"role,omitempty"`
	// Shards lists the ring shards this replica serves candidates for
	// (nil for standalone servers and routers).
	Shards []int `json:"shards,omitempty"`
}

// Reloader builds a replacement model for hot reload — typically by
// re-reading a snapshot file (see repro.SnapshotReloader). It runs off
// the request path; an error (or panic) leaves the current model
// serving.
type Reloader func() (*knn.Classifier, ModelInfo, error)

// ErrDraining rejects a reload that races a graceful shutdown: the swap
// would never serve a request and the drain deadline must not wait on a
// model load.
var ErrDraining = errors.New("serve: draining; reload rejected")

// ErrNoReloader reports a reload request against a server constructed
// without a Reloader.
var ErrNoReloader = errors.New("serve: no reloader configured")

// Options bounds the server's resource envelope.
type Options struct {
	// MaxInFlight caps concurrently served prediction requests; excess
	// requests are shed with 503 + Retry-After. <1 sizes the bound like a
	// worker pool: one slot per CPU (see parallel.Workers).
	MaxInFlight int
	// AdaptiveInFlight turns the fixed MaxInFlight bound into the AIMD
	// ceiling of a latency-driven concurrency limiter floating in
	// [1, MaxInFlight] (see limiter.go). Off, admission is exactly the
	// fixed semaphore it always was.
	AdaptiveInFlight bool
	// LatencyTarget is the per-request latency the adaptive limiter
	// steers toward; EWMA above it cuts the ceiling, at/below it grows
	// the ceiling. <=0 means 50ms. Ignored without AdaptiveInFlight.
	LatencyTarget time.Duration
	// MaxBatch caps the contexts accepted by one batch request
	// (413 beyond it). <1 means 1024.
	MaxBatch int
	// ShutdownGrace bounds the graceful drain on Run cancellation. <=0
	// means 10s.
	ShutdownGrace time.Duration
	// RetryAfter scales the Retry-After hint on shed requests: a fully
	// saturated server advertises this long, lighter saturation
	// proportionally less (never below 1s). <=0 means 1s.
	RetryAfter time.Duration
	// Reloader, when set, enables hot model reload via Server.Reload
	// (wired to SIGHUP and POST /v1/admin/reload by cmd/idarepro).
	Reloader Reloader
	// TraceRing caps the completed-request traces kept for
	// GET /v1/admin/trace. <1 means 128.
	TraceRing int
	// Ring, with NodeName, makes this server a ring replica: it builds
	// per-shard classifiers for the shards the ring places on NodeName
	// and serves their candidate sets on POST /v1/knn/candidates.
	Ring *ring.Ring
	// NodeName is this process's identity in the ring spec.
	NodeName string
	// ModelPath, when set, enables POST /v1/admin/snapshot: the repair
	// loop pushes a verified snapshot here (atomic write) and the server
	// hot-reloads it. Requires Reloader.
	ModelPath string
}

func (o Options) front() frontOptions {
	return frontOptions{
		MaxInFlight: o.MaxInFlight, AdaptiveInFlight: o.AdaptiveInFlight, LatencyTarget: o.LatencyTarget,
		MaxBatch: o.MaxBatch, ShutdownGrace: o.ShutdownGrace, RetryAfter: o.RetryAfter, TraceRing: o.TraceRing,
	}
}

// activeModel is the immutable unit of hot reload: classifier, its
// description, and reload provenance, swapped atomically as one value so
// /v1/model never describes a classifier other than the one serving.
type activeModel struct {
	clf      *knn.Classifier
	info     ModelInfo
	gen      uint64
	loadedAt time.Time
	// shards holds this replica's per-shard classifiers (nil when the
	// server is not a ring member), rebuilt on every reload so candidate
	// answers always come from the generation /v1/model reports.
	shards map[int]*shardModel
	role   string
}

func (a *activeModel) status() ModelStatus {
	st := ModelStatus{ModelInfo: a.info, Generation: a.gen, LoadedAt: a.loadedAt, Build: buildinfo.Get(), Role: a.role}
	if len(a.shards) > 0 {
		st.Shards = make([]int, 0, len(a.shards))
		for sh := range a.shards {
			st.Shards = append(st.Shards, sh)
		}
		sort.Ints(st.Shards)
	}
	return st
}

// Server serves predictions from a trained classifier: the shared
// front (front.go) with a decode → PredictAllCtx backend, plus hot
// reload and, as a ring replica, candidates and snapshot push.
type Server struct {
	*front
	cur atomic.Pointer[activeModel]

	reloader  Reloader
	ring      *ring.Ring
	node      string
	modelPath string

	// reloadMu serializes Reload calls; the swap itself is the atomic
	// pointer store, so the request path never takes this lock.
	reloadMu sync.Mutex
}

// New builds a server. The classifier must be fully constructed; the
// server never mutates it.
func New(clf *knn.Classifier, info ModelInfo, opts Options) *Server {
	s := &Server{reloader: opts.Reloader, ring: opts.Ring, node: opts.NodeName, modelPath: opts.ModelPath}
	if s.node != "" {
		// Pre-register this node's gray-failure chaos site so its
		// injection counter exports a stable series from startup.
		faults.RegisterSite(faults.SiteServeSlow + "." + s.node)
	}
	s.cur.Store(s.buildActive(clf, info, 1))
	if obs.On() {
		gGeneration.Set(1)
	}
	s.front = newFront(opts.front(), tier{decode: s.decode, status: s.Status})
	s.mux.HandleFunc("/v1/knn/candidates", s.handleCandidates)
	s.mux.HandleFunc("/v1/admin/reload", s.handleReload)
	s.mux.HandleFunc("/v1/admin/snapshot", s.handleSnapshotPush)
	return s
}

// buildActive assembles one immutable model unit, including the
// per-shard classifiers when this server is a ring replica.
func (s *Server) buildActive(clf *knn.Classifier, info ModelInfo, gen uint64) *activeModel {
	am := &activeModel{clf: clf, info: info, gen: gen, loadedAt: time.Now()}
	if s.ring != nil && s.node != "" {
		am.role = "replica"
		am.shards = buildShards(clf, s.ring, s.node)
	}
	return am
}

// Status reports the live model's description and generation.
func (s *Server) Status() ModelStatus { return s.cur.Load().status() }

// Reload swaps in a fresh model from the configured Reloader:
// load, validate (checksum verification happens inside the reloader's
// snapshot read; a self-test probe here), then an atomic pointer swap.
// In-flight requests finish on the model they started with. Any failure
// — load error, injected fault, panic, self-test rejection — leaves the
// previous model serving and returns the error. A draining server
// rejects reloads with ErrDraining.
func (s *Server) Reload() (ModelStatus, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if !s.isReady() {
		return ModelStatus{}, ErrDraining
	}
	if s.reloader == nil {
		return ModelStatus{}, ErrNoReloader
	}
	prev := s.cur.Load()
	gen := prev.gen + 1
	clf, info, err := s.loadGuarded(gen)
	if err == nil {
		err = selfTest(clf)
	}
	if err != nil {
		if obs.On() {
			mReloadFailed.Inc()
		}
		return ModelStatus{}, fmt.Errorf("serve: reload (generation %d kept): %w", prev.gen, err)
	}
	next := s.buildActive(clf, info, gen)
	s.cur.Store(next)
	if obs.On() {
		mReloads.Inc()
		gGeneration.Set(int64(gen))
	}
	return next.status(), nil
}

// loadGuarded runs the reloader under the serve.reload fault site with
// panic isolation: a reloader that panics (or an injected fault) is an
// ordinary failed reload, never a crashed server.
func (s *Server) loadGuarded(gen uint64) (clf *knn.Classifier, info ModelInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			clf, info, err = nil, ModelInfo{}, pipeline.Recovered(faults.SiteServeReload, r)
		}
	}()
	if err := faults.Inject(faults.SiteServeReload, "gen:"+strconv.FormatUint(gen, 10), faults.KindAll); err != nil {
		return nil, ModelInfo{}, err
	}
	return s.reloader()
}

// selfTest validates a candidate model before it may serve traffic: it
// must exist, carry training samples, and survive predicting a few of
// its own training contexts. A model that panics on its own data would
// 500 every request — better to reject the swap.
func selfTest(clf *knn.Classifier) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("self-test: %v", pipeline.Recovered("serve.selftest", r))
		}
	}()
	if clf == nil {
		return errors.New("self-test: reloader returned a nil classifier")
	}
	samples := clf.Samples()
	if len(samples) == 0 {
		return errors.New("self-test: model has no training samples")
	}
	for i := 0; i < len(samples) && i < 3; i++ {
		clf.Predict(samples[i].Context)
	}
	return nil
}

// handleReload is the POST /v1/admin/reload endpoint.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	code, body := s.reload()
	writeJSON(w, code, body)
}

// reload runs Reload and names its HTTP answer: 200 with the new
// ModelStatus on success, 409 while draining, 501 without a reloader,
// 500 on a failed load (old model still serving).
func (s *Server) reload() (int, any) {
	st, err := s.Reload()
	switch {
	case errors.Is(err, ErrDraining):
		return http.StatusConflict, errorResponse{Error: err.Error()}
	case errors.Is(err, ErrNoReloader):
		return http.StatusNotImplemented, errorResponse{Error: err.Error()}
	case err != nil:
		return http.StatusInternalServerError, errorResponse{Error: err.Error()}
	}
	return http.StatusOK, st
}

// decode is the standalone/replica backend: decode the wire contexts
// (a malformed one is the caller's 400), then answer them with the live
// classifier's PredictAllCtx. The classifier pointer is read once per
// request, so a concurrent reload never changes the model mid-request.
func (s *Server) decode(wire []*snapshot.WireContext) (answer, error) {
	ctxs, err := decodeAll(wire)
	if err != nil {
		return nil, withStatus(http.StatusBadRequest, err)
	}
	return func(ctx context.Context, tr *obs.Trace) ([]knn.Prediction, error) {
		// Chaos probe: one deterministic, content-keyed fault site per
		// request, so the chaos suite exercises the server's degradation
		// (503, never a crash or a wrong answer).
		if faults.Enabled() {
			if err := injectSiteGuarded(faults.SiteServePredict, wireKey(wire)); err != nil {
				tr.FaultSite(faults.SiteServePredict)
				tr.Rung("serve.degraded_503")
				return nil, &httpError{code: http.StatusServiceUnavailable, retry: true, err: fmt.Errorf("degraded: %w", err)}
			}
		}
		preds, err := s.cur.Load().clf.PredictAllCtx(ctx, ctxs)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil {
				return nil, errBudgetExhausted
			}
			return nil, withStatus(http.StatusServiceUnavailable, err)
		}
		return preds, nil
	}, nil
}

// injectSiteGuarded runs one fault probe, converting an injected panic
// into an error: the probe's contract is a degraded answer (or, on
// background loops, a skipped round), never a crash.
func injectSiteGuarded(site, key string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = pipeline.Recovered(site, r)
		}
	}()
	return faults.Inject(site, key, faults.KindAll)
}

func decodeAll(wire []*snapshot.WireContext) ([]*session.Context, error) {
	out := make([]*session.Context, len(wire))
	for i, wc := range wire {
		c, err := snapshot.DecodeContext(wc, nil)
		if err != nil {
			return nil, fmt.Errorf("context %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

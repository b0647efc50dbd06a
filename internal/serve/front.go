package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/snapshot"
)

// The serving front (DESIGN.md §8) is the HTTP envelope both tiers
// share. A standalone or replica Server and the ring Router differ only
// in what they plug into it (a tier): the backend that answers an
// admitted prediction, an extra readiness check, and background loops.
// Everything else — the in-flight limiter and latency estimator,
// readiness, the trace ring, the common routes, the one admission path,
// body and batch bounds, the prediction encode and the graceful drain —
// exists once, here.

// maxBodyBytes caps a request body, and a replica's candidates answer as
// the router reads it.
const maxBodyBytes = 32 << 20

// frontOptions are the settings both tiers share. Options and
// RouterOptions carry them as direct fields (documented on Options) and
// copy them here.
type frontOptions struct {
	MaxInFlight      int
	AdaptiveInFlight bool
	LatencyTarget    time.Duration
	MaxBatch         int
	ShutdownGrace    time.Duration
	RetryAfter       time.Duration
	TraceRing        int
}

func (o frontOptions) withDefaults() frontOptions {
	o.MaxInFlight = parallel.Workers(o.MaxInFlight)
	if o.LatencyTarget <= 0 {
		o.LatencyTarget = 50 * time.Millisecond
	}
	if o.MaxBatch < 1 {
		o.MaxBatch = 1024
	}
	if o.ShutdownGrace <= 0 {
		o.ShutdownGrace = 10 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// tier is what a serving tier plugs into the front.
type tier struct {
	// decode turns a prediction request's wire contexts into the work
	// that answers them. It runs inside the serve.decode span; an error
	// is answered by fail.
	decode func([]*snapshot.WireContext) (answer, error)
	// status is the /v1/model answer.
	status func() ModelStatus
	// ready, when set, can hold readiness at 503 while not draining.
	ready func() error
	// loops run in the background from RunListener until the drain.
	loops []func(context.Context)
}

// answer computes an admitted request's predictions, index-aligned with
// its contexts; ctx carries the request's deadline budget.
type answer func(ctx context.Context, tr *obs.Trace) ([]knn.Prediction, error)

type front struct {
	opts frontOptions
	tier tier
	lim  *limiter
	// est tracks the tier's typical service time — the admission
	// estimate a stamped X-Deadline-Ms budget is checked against.
	est latEstimator
	// traces keeps the last completed /v1/* request traces for
	// GET /v1/admin/trace.
	traces *obs.TraceRing
	mux    *http.ServeMux

	readyMu sync.Mutex
	ready   bool
}

// newFront builds the shared envelope with the common routes; the tier
// adds its own routes to mux.
func newFront(o frontOptions, t tier) *front {
	f := &front{opts: o.withDefaults(), tier: t, ready: true}
	f.lim = newLimiter(f.opts.MaxInFlight, f.opts.AdaptiveInFlight, f.opts.LatencyTarget)
	f.traces = obs.NewTraceRing(f.opts.TraceRing)
	f.mux = http.NewServeMux()
	f.mux.HandleFunc("/healthz", handleHealthz)
	f.mux.HandleFunc("/readyz", f.handleReadyz)
	f.mux.HandleFunc("/metrics", handleMetrics)
	f.mux.HandleFunc("/v1/model", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, f.tier.status())
	})
	f.mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		f.handlePrediction(w, r, false)
	})
	f.mux.HandleFunc("/v1/predict/batch", func(w http.ResponseWriter, r *http.Request) {
		f.handlePrediction(w, r, true)
	})
	f.mux.HandleFunc("/v1/admin/trace", f.handleTraceLog)
	return f
}

// Handler returns the HTTP handler (also usable under httptest or an
// existing mux). Every response — including 404s from unknown paths —
// passes through the request-tracing middleware: it assigns (or
// propagates) the X-Request-ID correlation header, threads a
// per-request obs.Trace through the context, and on completion pushes
// /v1/* traces into the trace ring. Health probes and /metrics scrapes
// are traced for the header but kept out of the ring so a prober cannot
// evict the prediction traces an operator came to read.
func (f *front) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		tr := obs.NewTrace(id, r.Method+" "+r.URL.Path)
		sw := &statusWriter{ResponseWriter: w}
		f.mux.ServeHTTP(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		tr.Finish(status)
		if strings.HasPrefix(r.URL.Path, "/v1/") && r.URL.Path != "/v1/admin/trace" {
			f.traces.Push(tr)
		}
	})
}

// MaxInFlight reports the resolved in-flight bound.
func (f *front) MaxInFlight() int { return f.opts.MaxInFlight }

// SetReady flips the readiness probe (RunListener flips it to false
// when draining).
func (f *front) SetReady(v bool) {
	f.readyMu.Lock()
	f.ready = v
	f.readyMu.Unlock()
}

func (f *front) isReady() bool {
	f.readyMu.Lock()
	defer f.readyMu.Unlock()
	return f.ready
}

// Run listens on addr and serves until ctx is canceled, then drains
// gracefully (see RunListener).
func (f *front) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	return f.RunListener(ctx, ln)
}

// RunListener serves on ln, with the tier's background loops alongside,
// until ctx is canceled. Then it drains: readiness flips to 503, the
// loops stop, the listener closes, and in-flight requests get
// ShutdownGrace to complete. A clean drain returns nil — the path a
// SIGINT through signal.NotifyContext takes.
func (f *front) RunListener(ctx context.Context, ln net.Listener) error {
	bg, stopLoops := context.WithCancel(ctx)
	var loops sync.WaitGroup
	defer loops.Wait()
	defer stopLoops()
	for _, loop := range f.tier.loops {
		loops.Add(1)
		go func(loop func(context.Context)) {
			defer loops.Done()
			loop(bg)
		}(loop)
	}
	// The read/write/idle timeouts bound what a single stalled client can
	// hold: without them, a connection that trickles its body (or never
	// reads the response) pins a kernel socket — and, once admitted, an
	// in-flight slot — forever.
	srv := &http.Server{
		Handler:           f.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	f.SetReady(false)
	stopLoops()
	shCtx, cancel := context.WithTimeout(context.Background(), f.opts.ShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// every returns a loop that runs fn once per interval until its context
// ends.
func every(interval time.Duration, fn func(context.Context)) func(context.Context) {
	return func(ctx context.Context) {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				fn(ctx)
			}
		}
	}
}

// predictResponse is one prediction result on the wire. OK=false is an
// abstention (measure empty); Fallback marks a prediction produced by the
// configured degradation policy rather than the θ_δ-gated vote.
type predictResponse struct {
	Measure  string `json:"measure,omitempty"`
	OK       bool   `json:"ok"`
	Fallback bool   `json:"fallback,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// httpError is a failure as the client sees it: the status code, and
// whether the response carries a Retry-After hint.
type httpError struct {
	code  int
	retry bool
	err   error
}

func (e *httpError) Error() string { return e.err.Error() }

// withStatus marks err to be answered with code.
func withStatus(code int, err error) error { return &httpError{code: code, err: err} }

// allow answers 405 with an Allow header unless r uses method.
func allow(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: method + " required"})
	return false
}

// admit is the one admission path of every request that does model
// work, on both tiers: count it, claim an in-flight slot or shed it with
// 503 + Retry-After, admit its deadline budget, then run work inside the
// serve.predict span with latency observation and panic recovery. A
// panic (a poisoned context, an injected fault) becomes a 500 for this
// request only; the process stays up. An error work returns is answered
// by fail.
func (f *front) admit(w http.ResponseWriter, r *http.Request, work func(ctx context.Context, tr *obs.Trace) error) {
	if obs.On() {
		mRequests.Inc()
	}
	tr := obs.TraceFrom(r.Context())
	// No queueing: a saturated tier sheds immediately so the client (or
	// load balancer) can retry elsewhere instead of piling latency onto a
	// full queue.
	if !f.lim.tryAcquire() {
		if obs.On() {
			mRejected.Inc()
		}
		tr.Rung("serve.shed")
		w.Header().Set("Retry-After", strconv.Itoa(f.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server saturated; retry"})
		return
	}
	t0 := time.Now()
	defer func() { f.lim.release(time.Since(t0)) }()
	// Budget admission after the in-flight slot: the estimate must cover
	// what happens from here on, and a shed (503) beats a budget reject
	// (504) when both apply — the client's retry policy treats them the
	// same, and the shed carries the Retry-After hint.
	ctx, cancel, ok := admitDeadline(w, r, &f.est, tr)
	if !ok {
		return
	}
	defer cancel()
	sp := stServe.StartCtx(r.Context())
	defer sp.End()
	defer func() {
		if obs.On() {
			hLatency.ObserveSince(t0)
		}
		f.est.observe(time.Since(t0))
		if rec := recover(); rec != nil {
			tr.Rung("serve.panic_500")
			f.fail(w, tr, pipeline.Recovered("serve.predict", rec))
		}
	}()
	if err := work(ctx, tr); err != nil {
		f.fail(w, tr, err)
	}
}

// fail answers a request that did not succeed, counting it in
// serve.errors: an httpError with its code (and Retry-After when
// flagged), any other error as a 500. A budget that ran out mid-request
// is the retryable 504 instead, counted in serve.deadline_exceeded.
func (f *front) fail(w http.ResponseWriter, tr *obs.Trace, err error) {
	if errors.Is(err, errBudgetExhausted) {
		if obs.On() {
			mDeadlineExceeded.Inc()
		}
		tr.Rung("serve.deadline_exceeded")
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error()})
		return
	}
	if obs.On() {
		mErrors.Inc()
	}
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
		if he.retry {
			w.Header().Set("Retry-After", strconv.Itoa(f.retryAfterSeconds()))
		}
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// retryAfterSeconds computes the Retry-After hint for a shed or degraded
// request. While draining it is the full shutdown grace — the instance
// is going away and a retry should land elsewhere after the drain. Under
// saturation it scales RetryAfter by the in-flight occupancy (rounded
// up, never below 1s): a tier shedding at 100% occupancy advertises the
// full interval, one that merely blipped advertises less.
func (f *front) retryAfterSeconds() int {
	if !f.isReady() {
		return int(math.Max(1, math.Ceil(f.opts.ShutdownGrace.Seconds())))
	}
	occ, capacity := f.lim.occupancy()
	secs := math.Ceil(f.opts.RetryAfter.Seconds() * float64(occ) / float64(capacity))
	return int(math.Max(1, secs))
}

// handlePrediction is /v1/predict and /v1/predict/batch on both tiers:
// decode the bounded body, let the tier answer under the admission path,
// and encode the predictions.
func (f *front) handlePrediction(w http.ResponseWriter, r *http.Request, batch bool) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	f.admit(w, r, func(ctx context.Context, tr *obs.Trace) error {
		sp := stDecode.StartCtx(r.Context())
		wire, err := f.readWire(w, r, batch)
		var ans answer
		if err == nil {
			ans, err = f.tier.decode(wire)
		}
		sp.End()
		if err != nil {
			return err
		}
		preds, err := ans(ctx, tr)
		if err != nil {
			return err
		}
		out := make([]predictResponse, len(preds))
		for i, p := range preds {
			out[i] = predictResponse{Measure: p.Label, OK: p.Covered, Fallback: p.Fallback}
			if obs.On() {
				mPredictions.Inc()
				switch {
				case p.Fallback:
					mFallback.Inc()
				case !p.Covered:
					mAbstain.Inc()
				}
			}
		}
		sp = stEncode.StartCtx(r.Context())
		defer sp.End()
		if batch {
			writeJSON(w, http.StatusOK, struct {
				Predictions []predictResponse `json:"predictions"`
			}{out})
			return nil
		}
		writeJSON(w, http.StatusOK, out[0])
		return nil
	})
}

// readBody reads a request body of at most limit bytes (413 beyond it).
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		return nil, withStatus(http.StatusRequestEntityTooLarge, fmt.Errorf("read body: %w", err))
	}
	return body, nil
}

// readWire bounds and parses a single or batch prediction body into wire
// contexts.
func (f *front) readWire(w http.ResponseWriter, r *http.Request, batch bool) ([]*snapshot.WireContext, error) {
	body, err := readBody(w, r, maxBodyBytes)
	if err != nil {
		return nil, err
	}
	var single struct {
		Context *snapshot.WireContext `json:"context"`
	}
	var many struct {
		Contexts []*snapshot.WireContext `json:"contexts"`
	}
	dst := any(&single)
	if batch {
		dst = &many
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return nil, withStatus(http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
	}
	wire := many.Contexts
	if !batch {
		if single.Context == nil {
			return nil, withStatus(http.StatusBadRequest, errors.New(`missing "context"`))
		}
		wire = []*snapshot.WireContext{single.Context}
	}
	return wire, f.checkBatch(len(wire))
}

// checkBatch bounds the contexts of one request: none is a 400, more
// than MaxBatch a 413.
func (f *front) checkBatch(n int) error {
	if n == 0 {
		return withStatus(http.StatusBadRequest, errors.New("no contexts in request"))
	}
	if n > f.opts.MaxBatch {
		return withStatus(http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d exceeds the %d-context cap", n, f.opts.MaxBatch))
	}
	return nil
}

// wireKey names a request by its first context and its size: the
// content key of the per-request fault sites, independent of call order
// and goroutine identity.
func wireKey(wire []*snapshot.WireContext) string {
	return fmt.Sprintf("%s@%d/%d#%d", wire[0].SessionID, wire[0].T, wire[0].N, len(wire))
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is 503 while draining or while the tier's own readiness
// check fails (the router's: every shard keeps a healthy replica).
func (f *front) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !f.isReady() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	if f.tier.ready != nil {
		if err := f.tier.ready(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, err.Error()+"\n")
			return
		}
	}
	io.WriteString(w, "ready\n")
}

// handleMetrics exposes every obs counter, gauge, and latency histogram
// in Prometheus text format, led by an idarepro_build_info series naming
// the binary. Scrapes work even with telemetry off (counters then read
// zero) so a scrape config never 404s depending on server flags. obs
// state is process-wide, so both tiers answer the same way.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	var b bytes.Buffer
	writeBuildInfoMetric(&b)
	if err := obs.WritePrometheus(&b, obs.Default.Snapshot()); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.Bytes())
}

// writeBuildInfoMetric emits the constant idarepro_build_info gauge: the
// conventional value-1 series whose labels carry build identity, so a
// dashboard can join any latency series to the build that produced it.
func writeBuildInfoMetric(b *bytes.Buffer) {
	info := buildinfo.Get()
	fmt.Fprintf(b, "# HELP idarepro_build_info Build metadata of the running binary; the value is always 1.\n")
	fmt.Fprintf(b, "# TYPE idarepro_build_info gauge\n")
	fmt.Fprintf(b, "idarepro_build_info{version=%q,go_version=%q,revision=%q,dirty=%q} 1\n",
		info.Version, info.GoVersion, info.Revision, strconv.FormatBool(info.Dirty))
}

// handleTraceLog returns the most recent completed request traces,
// newest first. ?n=K limits the count.
func (f *front) handleTraceLog(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	limit := 0
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			f.fail(w, nil, withStatus(http.StatusBadRequest, fmt.Errorf("invalid n=%q: want a positive integer", v)))
			return
		}
		limit = n
	}
	recs := f.traces.Snapshot(limit)
	if recs == nil {
		recs = []obs.TraceRecord{}
	}
	writeJSON(w, http.StatusOK, struct {
		Capacity int               `json:"capacity"`
		Traces   []obs.TraceRecord `json:"traces"`
	}{f.traces.Cap(), recs})
}

// statusWriter captures the response status for the completed trace.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

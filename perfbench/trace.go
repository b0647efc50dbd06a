package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the id of the span whose work caused this one (0 for none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Allocs int64  `json:"allocs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// open maps a request id to the span its next callee nests under.
	open map[string]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: map[string]int64{}} }

// begin opens a span and returns its id; 0 when tracing is off.
func (t *tracer) begin(name, req string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return int64(len(t.spans))
}

// end closes span id, attaching the bytes it moved.
func (t *tracer) end(id, bytes int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Bytes = now, bytes
	t.mu.Unlock()
}

// record adds a span that was timed outside the tracer.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// nest makes span id the parent of the next spans of request req.
func (t *tracer) nest(req string, id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.open[req] = id
	t.mu.Unlock()
}

// parentOf is the span that request req's spans currently nest under.
func (t *tracer) parentOf(req string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open[req]
}

// step runs f inside a span.
func (t *tracer) step(name string, parent int64, f func() error) error {
	id := t.begin(name, "", parent)
	err := f()
	t.end(id, 0)
	return err
}

// measured runs f inside a span and records the heap allocations it
// made. Only the traced run calls it: counting is a stop-the-world read.
func (t *tracer) measured(name, req string, parent int64, f func() error) error {
	a0 := mallocs()
	id := t.begin(name, req, parent)
	err := f()
	t.end(id, 0)
	n := mallocs() - a0
	t.mu.Lock()
	t.spans[id-1].Allocs = n
	t.mu.Unlock()
	return err
}

// wrap times every request a handler serves as a span named name, nested
// under the request's current span. An outer layer (a router) makes its
// span the parent of the calls it causes; a leaf layer does not.
func (t *tracer) wrap(name string, h http.Handler, outer bool) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get("X-Request-ID")
		id := t.begin(name, req, t.parentOf(req))
		if outer {
			t.nest(req, id)
		}
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		in := r.ContentLength
		if in < 0 {
			in = 0
		}
		t.end(id, in+cw.n)
	})
}

// countingWriter counts the response bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, keyed by span id. Overlapping children (parallel
// replica calls) count once.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanStats groups spans by name.
type spanStats struct {
	byName map[string][]span
	self   map[int64]int64
}

// newSpanStats groups the spans that keep accepts.
func newSpanStats(spans []span, keep func(span) bool) spanStats {
	var kept []span
	for _, s := range spans {
		if s.End > 0 && keep(s) {
			kept = append(kept, s)
		}
	}
	st := spanStats{byName: map[string][]span{}, self: selfTimes(kept)}
	for _, s := range kept {
		st.byName[s.Name] = append(st.byName[s.Name], s)
	}
	return st
}

// medianUS is the median duration of the named spans, in microseconds.
func (st spanStats) medianUS(name string) float64 {
	return st.medianOf(name, func(s span) float64 { return float64(s.dur()) / 1e3 })
}

// medianSelfUS is the median self time of the named spans, in µs.
func (st spanStats) medianSelfUS(name string) float64 {
	return st.medianOf(name, func(s span) float64 { return float64(st.self[s.ID]) / 1e3 })
}

func (st spanStats) medianOf(name string, f func(span) float64) float64 {
	ss := st.byName[name]
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

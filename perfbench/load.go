package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// answer is the wire form of one prediction, as /v1/predict returns it.
type answer struct {
	Measure  string `json:"measure"`
	OK       bool   `json:"ok"`
	Fallback bool   `json:"fallback"`
}

// phase is what one load phase measured.
type phase struct {
	// lat is each request's latency in ms, index-aligned with the
	// requests: from its scheduled send in an open loop, from its actual
	// send in a closed loop.
	lat []float64
	// lag is how late the generator started each open-loop request, ms.
	lag  []float64
	wall time.Duration
}

// analysts is how many independent analysts the open loop simulates,
// the paper's count.
const analysts = 56

// arrivals returns n send offsets at rate requests per second, from
// independent analysts: each sends at its own steady pace from a seeded
// start phase, with seeded jitter, so the merged stream is irregular
// but its long-run rate is fixed.
func arrivals(n int, rate float64, rng *rand.Rand) []time.Duration {
	period := float64(analysts) / rate
	next := make([]float64, analysts)
	for i := range next {
		next[i] = rng.Float64() * period
	}
	out := make([]time.Duration, 0, n)
	for len(out) < n {
		first := 0
		for i, t := range next {
			if t < next[first] {
				first = i
			}
		}
		out = append(out, time.Duration(next[first]*float64(time.Second)))
		next[first] += period * (0.5 + rng.Float64())
	}
	return out
}

// openLoop sends request i at offsets[i] after the start, whether or not
// earlier requests have finished, and times each from when it was due,
// so a stall also counts against the requests queued behind it.
func openLoop(offsets []time.Duration, send func(i int)) phase {
	n := len(offsets)
	p := phase{lat: make([]float64, n), lag: make([]float64, n)}
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.lag[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			send(i)
			p.lat[i] = ms(time.Since(due))
		}(i, due)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// closedLoop runs n requests from workers callers, each sending its next
// request only when the previous one has answered.
func closedLoop(n, workers int, send func(i int)) phase {
	p := phase{lat: make([]float64, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				send(i)
				p.lat[i] = ms(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// checkAnswers marks answer i good when it arrived and equals want[i].
func checkAnswers(got []answer, errs []error, want []answer) []bool {
	good := make([]bool, len(got))
	for i := range good {
		good[i] = errs[i] == nil && got[i] == want[i]
	}
	return good
}

// markFailures sets the latency of every request whose answer was wrong
// or missing to failed, and returns how many there were.
func markFailures(lat []float64, good []bool) int {
	bad := 0
	for i, g := range good {
		if !g {
			lat[i] = failed
			bad++
		}
	}
	return bad
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// client posts prediction requests to one base URL over at most conns
// connections: the benchmark's load comes from one process.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// predict posts one body to /v1/predict under the given request id.
func (c *client) predict(body []byte, reqID string) (answer, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := c.hc.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var a answer
	if err := json.Unmarshal(raw, &a); err != nil {
		return answer{}, fmt.Errorf("decode response: %w", err)
	}
	return a, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

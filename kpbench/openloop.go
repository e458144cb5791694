package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// shot is one request of a phase. Every time is an offset from the
// phase start. Latency runs from due, not from sent: a request that
// waited for a free connection behind a stalled one is charged the
// wait, so a stall shows in the tail instead of vanishing from it.
type shot struct {
	idx    int           // index into the phase's inputs
	due    time.Duration // when the schedule wanted it sent
	sent   time.Duration // when a connection actually sent it
	done   time.Duration // when the response was fully read
	status int           // HTTP status, 0 on a transport error
	body   []byte        // response body
}

func (s *shot) ok() bool { return s.status == http.StatusOK }

// latency is due → done.
func (s *shot) latency() time.Duration { return s.done - s.due }

// lag is how late the generator sent the request (due → sent).
func (s *shot) lag() time.Duration { return s.sent - s.due }

// driver sends pre-encoded requests to one server over a fixed number
// of connections.
type driver struct {
	base   string
	conns  int
	client *http.Client
}

func newDriver(base string, conns int) *driver {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &driver{base: base, conns: conns, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (d *driver) do(ctx context.Context, method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

// openLoop sends body(i) for i in [0, n) at a fixed rate (requests/s)
// starting now, over the driver's connections, and returns the shots
// in schedule order with the phase start. The schedule never waits for
// responses: when every connection is busy, due requests queue in the
// client and the queueing is charged to their latency.
func (d *driver) openLoop(ctx context.Context, path string, n int, rate float64, body func(i int) []byte) ([]shot, time.Time) {
	shots := make([]shot, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < d.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				s := &shots[i]
				s.idx = i
				s.due = time.Duration(i) * interval
				if wait := s.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				s.sent = time.Since(start)
				s.status, s.body = d.do(ctx, http.MethodPost, path, body(i))
				s.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return shots, start
}

// closedLoop keeps every connection busy with back-to-back requests
// until n requests have been sent or dur has passed, and returns the
// shots (due = sent) with the elapsed time. When full is not nil and
// reports a response as saying the server is full, that connection
// waits a millisecond before its next request.
func (d *driver) closedLoop(ctx context.Context, path string, n int, dur time.Duration, body func(i int) []byte, full func(resp []byte) bool) ([]shot, time.Duration) {
	var mu sync.Mutex
	var shots []shot
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < d.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := shot{idx: i}
				s.sent = time.Since(start)
				s.due = s.sent
				s.status, s.body = d.do(ctx, http.MethodPost, path, body(i))
				s.done = time.Since(start)
				mu.Lock()
				shots = append(shots, s)
				mu.Unlock()
				if full != nil && s.ok() && full(s.body) {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	return shots, time.Since(start)
}

// latencySummary is the timing view of a set of shots. A failed shot
// counts as over every limit: it enters the percentiles as +Inf.
type latencySummary struct {
	n, failed      int
	p50, p99       float64 // ms
	lagP50, lagP99 float64 // ms
	lagMax         float64 // ms
}

func summarize(shots []shot) latencySummary {
	s := latencySummary{n: len(shots)}
	lat := make([]float64, 0, len(shots))
	lag := make([]float64, 0, len(shots))
	for i := range shots {
		sh := &shots[i]
		lag = append(lag, ms(sh.lag()))
		if sh.ok() {
			lat = append(lat, ms(sh.latency()))
		} else {
			s.failed++
			lat = append(lat, inf)
		}
	}
	s.p50, s.p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	s.lagP50, s.lagP99, s.lagMax = quantile(lag, 0.50), quantile(lag, 0.99), quantile(lag, 1)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

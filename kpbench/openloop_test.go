package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must show the stall in the tail of every
// request scheduled behind it. Timing from the moment a connection
// picks a request up (as internal/loadgen does) would charge the stall
// to one request and report a clean p99; timing from the due time
// charges the queue.
func TestOpenLoopChargesStallsToQueuedRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 10 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	d := newDriver(srv.URL, 1)
	defer d.close()

	// 100 requests at 100/s: the stall holds the only connection for
	// 30 scheduled sends.
	shots, _ := d.openLoop(context.Background(), "/", 100, 100, func(int) []byte { return []byte("{}") })
	s := summarize(shots)
	if s.failed != 0 {
		t.Fatalf("%d requests failed", s.failed)
	}
	if s.p99 < ms(stall*2/3) {
		t.Errorf("p99 = %.1f ms; the %v stall's backlog is missing from the tail", s.p99, stall)
	}
	if s.lagMax < ms(stall/2) {
		t.Errorf("max generator lag = %.1f ms; the sends queued behind the stall should run late", s.lagMax)
	}

	// The service time alone (sent → done) hides the backlog: only the
	// stalled request itself is slow.
	slow := 0
	for i := range shots {
		if shots[i].done-shots[i].sent > stall/2 {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("%d requests had a slow service time, want 1", slow)
	}
}

// One failed request at the fixed rate fails the run even when every
// verdict that came back is right, and the result line still prints
// although the failure made a percentile +Inf.
func TestFixedRateFailureFailsTheRun(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	d := newDriver(srv.URL, 1)
	defer d.close()

	shots, _ := d.openLoop(context.Background(), "/", 8, 200, func(int) []byte { return []byte("{}") })
	rep := newReport()
	rep.latency(shotLatencies(shots))
	rep.res.Attempted, rep.res.Failed = len(shots), summarize(shots).failed
	var out, errOut bytes.Buffer
	if code := rep.finish(&out, &errOut); code != 1 {
		t.Fatalf("exit status %d, want 1; stderr %q", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Attempted != 8 || res.Failed != 1 {
		t.Errorf("result = %+v, want correct with 1 of 8 failed", res)
	}
	if _, ok := res.Metrics["p50_ms"]; !ok {
		t.Errorf("p50_ms missing from %v", res.Metrics)
	}
	if _, ok := res.Metrics["p90_ms"]; ok {
		t.Errorf("p90_ms is +Inf with 1 of 8 failed and should be left out, got %v", res.Metrics["p90_ms"])
	}
}

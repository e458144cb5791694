package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// on Linux.
const clockTicks = 100

// server is one kpserve process started for the benchmark.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // exit status, valid once exited is closed
	log    *os.File
}

// startServer execs kpserve with its shipped defaults plus a fresh
// store directory and an unlimited per-domain crawl rate, and returns
// once /healthz answers 200 together with the time that took (self-
// training included). kpserve runs at nice 10: it shares the host's
// CPUs with the load generator, which must keep its schedule.
func startServer(bin, storeDir, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command("nice", "-n", "10", bin, "-addr", addr, "-store", storeDir, "-domain-rate", "-1")
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting kpserve: %w", err)
	}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := t0.Add(150 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("kpserve exited before /healthz answered (%v); log in %s", s.err, logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("kpserve /healthz not ready after %v; log in %s", time.Since(t0), logPath)
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it has not exited in time. It returns once the process is
// gone.
func (s *server) stop() {
	defer s.log.Close()
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// cpu returns the process's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime field 14, stime field 15.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed utime/stime in /proc stat")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// rssPeakMB returns VmHWM, the process's peak resident set, in MiB.
func (s *server) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serverMetrics is the part of kpserve's JSON /metrics the benchmark
// reads.
type serverMetrics struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Coalesce    struct {
		Analysis struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"analysis"`
	} `json:"coalesce"`
	Feed struct {
		Accepted  int64 `json:"accepted"`
		Processed int64 `json:"processed"`
		Failed    int64 `json:"failed"`
		Depth     int64 `json:"depth"`
	} `json:"feed"`
}

func (d *driver) metrics(ctx context.Context) (serverMetrics, error) {
	var m serverMetrics
	status, body := d.do(ctx, http.MethodGet, "/metrics", nil)
	if status != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", status)
	}
	return m, json.Unmarshal(body, &m)
}

// memoHitRatio is (verdict-cache hits + analysis-memo hits) over
// lookups between two /metrics readings. Every scoring call that misses
// the verdict cache (and every feed item, which has no verdict cache)
// looks the analysis memo up once, so the lookups are the cache hits
// plus the memo's hits and misses.
func memoHitRatio(a, b serverMetrics) float64 {
	hits := float64(b.CacheHits-a.CacheHits) + float64(b.Coalesce.Analysis.Hits-a.Coalesce.Analysis.Hits)
	lookups := float64(b.CacheHits-a.CacheHits) + float64(b.Coalesce.Analysis.Hits-a.Coalesce.Analysis.Hits) +
		float64(b.Coalesce.Analysis.Misses-a.Coalesce.Analysis.Misses)
	return ratio(hits, lookups)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

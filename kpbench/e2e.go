package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"knowphish/internal/crawl"
	"knowphish/internal/serve"
	"knowphish/internal/store"
)

const (
	// setupRuns is how many times a run starts kpserve to time its
	// set-up; the last start serves the workload.
	setupRuns = 3
	// Phase shares of --seconds: a warm-up that is not reported, the
	// fixed-rate phase, and the saturated capacity phase.
	warmShare, fixedShare, capShare = 0.10, 0.50, 0.40
	// windows splits the capacity phase, and the fixed-rate phase is
	// split into windows of latencyWindow requests (at most 32):
	// capacity_rps, p50_ms and p90_ms are medians over the windows, so
	// one burst of machine noise moves one window, not the run.
	windows       = 8
	latencyWindow = 250
	// capHeadroom sizes the score workloads' capacity-phase inputs: the
	// phase is time-bound, and its pages cover this multiple of the
	// capacity measured when the benchmark was defined (a server fast
	// enough to use them up ends the phase early).
	capHeadroom = 1.5
)

func (b *bench) endToEnd(ctx context.Context) error {
	var setups []float64
	var srv *server
	for i := 0; i < setupRuns; i++ {
		s, d, err := b.start()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		b.progress("kpserve up")
		if i < setupRuns-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	d := newDriver(srv.base, conns)
	defer d.close()
	var err error
	if b.feed != nil {
		err = b.feedEndToEnd(ctx, srv, d)
	} else {
		err = b.scoreEndToEnd(ctx, srv, d)
	}
	if err != nil {
		return err
	}
	b.rep.set("setup_s", median(setups), "s", len(setups))
	return nil
}

// latency sets p50_ms and p90_ms from latencies in schedule order
// (failures as +Inf): the medians over consecutive windows of the
// per-window percentiles. p99_ms, computed the same way, is printed but
// not gated (see NOTES.md).
func (r *report) latency(lat []float64) {
	var p50s, p90s, p99s []float64
	k := min(max(len(lat)/latencyWindow, 1), 32)
	for w := 0; w < k; w++ {
		chunk := append([]float64(nil), lat[w*len(lat)/k:(w+1)*len(lat)/k]...)
		p50s = append(p50s, quantile(chunk, 0.50))
		p90s = append(p90s, quantile(chunk, 0.90))
		p99s = append(p99s, quantile(chunk, 0.99))
	}
	r.set("p50_ms", median(p50s), "ms", len(lat))
	r.set("p90_ms", median(p90s), "ms", len(lat))
	all := append([]float64(nil), lat...)
	r.note("p99_ms %.4f ms n=%d (not gated); whole phase p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, max %.4f ms",
		median(p99s), len(lat), quantile(all, 0.5), quantile(all, 0.9), quantile(all, 0.99), quantile(all, 1))
}

// measure runs f and returns kpserve's CPU time and /metrics readings
// around it.
func measure(ctx context.Context, srv *server, d *driver, f func() error) (time.Duration, serverMetrics, serverMetrics, error) {
	var m0, m1 serverMetrics
	m0, err := d.metrics(ctx)
	if err != nil {
		return 0, m0, m1, err
	}
	c0, err := srv.cpu()
	if err != nil {
		return 0, m0, m1, err
	}
	if err := f(); err != nil {
		return 0, m0, m1, err
	}
	c1, err := srv.cpu()
	if err != nil {
		return 0, m0, m1, err
	}
	m1, err = d.metrics(ctx)
	return c1 - c0, m0, m1, err
}

// shotLatencies is each shot's latency in ms in schedule order, +Inf
// for a failed one.
func shotLatencies(shots []shot) []float64 {
	lat := make([]float64, len(shots))
	for i := range shots {
		lat[i] = inf
		if shots[i].ok() {
			lat[i] = ms(shots[i].latency())
		}
	}
	return lat
}

func (b *bench) reportLag(phase string, s latencySummary) {
	b.rep.note("%s generator lag ms: p50 %.3f p99 %.3f max %.3f (n=%d)", phase, s.lagP50, s.lagP99, s.lagMax, s.n)
}

// scoreEndToEnd runs the score workloads: warm-up and fixed-rate phase
// open-loop, then the capacity phase closed-loop; then it checks every
// response against the reference.
func (b *bench) scoreEndToEnd(ctx context.Context, srv *server, d *driver) error {
	in := b.score
	rate := b.sp.fixed
	nWarm := int(rate * b.secs(warmShare).Seconds())
	nFixed := int(rate * b.secs(fixedShare).Seconds())
	nCap := int(capHeadroom * b.sp.capacity * b.secs(capShare).Seconds())
	if err := in.ensure(nWarm + nFixed + nCap); err != nil {
		return err
	}
	var warm, fixed, capShots []shot
	var capDur, cpu time.Duration
	var m0, m1 serverMetrics
	var rss float64
	err := loadPhases(func() (err error) {
		warm, _ = d.openLoop(ctx, b.sp.path, nWarm, rate, in.body)
		cpu, m0, m1, err = measure(ctx, srv, d, func() error {
			fixed, _ = d.openLoop(ctx, b.sp.path, nFixed, rate, func(i int) []byte { return in.body(nWarm + i) })
			return nil
		})
		if err != nil {
			return err
		}
		capShots, capDur = d.closedLoop(ctx, b.sp.path, nCap, b.secs(capShare), func(i int) []byte { return in.body(nWarm + nFixed + i) }, nil)
		rss, err = srv.rssPeakMB()
		return err
	})
	if err != nil {
		return err
	}

	// Outside the timed window: every response against the reference.
	b.progress("HTTP phases done")
	if err := b.reference(); err != nil {
		return err
	}
	phases := []struct {
		base  int
		shots []shot
	}{{0, warm}, {nWarm, fixed}, {nWarm + nFixed, capShots}}
	var sent []*page
	for _, ph := range phases {
		for i := range ph.shots {
			sent = append(sent, in.pages[in.seq[ph.base+ph.shots[i].idx]])
		}
	}
	want := b.refCalls(sent)
	var q quality
	judged := make(map[*page]bool) // quality counts each distinct page once
	failed, capFailed := 0, 0
	for pi, ph := range phases {
		for i := range ph.shots {
			sh := &ph.shots[i]
			req := ph.base + sh.idx
			p := in.pages[in.seq[req]]
			if !sh.ok() {
				if pi < 2 {
					failed++
				} else {
					capFailed++
				}
				continue
			}
			var resp serve.V2ScoreResponse
			if err := json.Unmarshal(sh.body, &resp); err != nil {
				b.rep.mismatch("request %d: undecodable response: %v", req, err)
				continue
			}
			got := callOf(resp.Outcome)
			if resp.Label != got.label || got != want[p] {
				b.rep.mismatch("request %d (%s): got %+v label %q, reference %+v", req, p.url, got, resp.Label, want[p])
			}
			if pi == 1 && !judged[p] {
				judged[p] = true
				q.add(p, got)
			}
		}
	}

	fs := summarize(fixed)
	ok := fs.n - fs.failed
	b.rep.latency(shotLatencies(fixed))
	var capDone []time.Duration
	for i := range capShots {
		if capShots[i].ok() {
			capDone = append(capDone, capShots[i].done)
		}
	}
	b.rep.note("capacity_rps %.4f 1/s n=%d (not gated, see NOTES.md)", windowedRate(capDone, capDur), len(capShots))
	b.rep.set("cpu_ms_per_verdict", ratio(ms(cpu), float64(ok)), "ms", ok)
	b.rep.set("rss_peak_mb", rss, "MB", 1)
	b.rep.set("verdict_accuracy", q.accuracy(), "ratio", q.phish+q.legit)
	b.reportQuality(&q)
	b.rep.note("fail_ratio %.6f (%d of %d at the fixed rate; %d failed in the capacity phase)",
		ratio(float64(fs.failed), float64(fs.n)), fs.failed, fs.n, capFailed)
	b.reportLag("fixed-rate", fs)
	b.rep.note("memo.hit_ratio %.4f (fixed-rate phase, from /metrics)", memoHitRatio(m0, m1))
	b.describeScore(want, nWarm, nFixed)
	b.rep.res.Attempted = len(warm) + len(fixed) + len(capShots)
	b.rep.res.Failed = failed + capFailed
	return nil
}

// reportQuality prints the ground-truth metrics that apply.
func (b *bench) reportQuality(q *quality) {
	if q.phish > 0 {
		b.rep.note("phish_recall %.4f (n=%d phish)", ratio(float64(q.phishCaught), float64(q.phish)), q.phish)
		b.rep.note("target_top1 %.4f (n=%d caught phish)", ratio(float64(q.phishTop1), float64(q.phishCaught)), q.phishCaught)
	} else {
		b.rep.note("phish_recall n/a (no phish pages in this workload)")
		b.rep.note("target_top1 n/a (no phish pages in this workload)")
	}
	b.rep.note("legit_fpr %.4f (n=%d legit)", ratio(float64(q.legitFlagged), float64(q.legit)), q.legit)
}

// refCalls computes the reference verdict of each distinct page, on
// both CPUs.
func (b *bench) refCalls(sent []*page) map[*page]call {
	seen := make(map[*page]bool, len(sent))
	var pages []*page
	for _, p := range sent {
		if !seen[p] {
			seen[p] = true
			pages = append(pages, p)
		}
	}
	out := make(map[*page]call, len(pages))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(pages); i += conns {
				v, err := b.ref.verdict(pages[i].snap)
				c := callOf(v.Outcome)
				if err != nil {
					c = call{label: "error: " + err.Error()}
				}
				mu.Lock()
				out[pages[i]] = c
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// describeScore records the measured properties of the inputs the
// fixed-rate phase sent.
func (b *bench) describeScore(want map[*page]call, nWarm, nFixed int) {
	in := b.score
	seen := make(map[int]bool)
	urls := make(map[string]bool)
	var phish, positive, repeats, bytes int
	for i := nWarm; i < nWarm+nFixed; i++ {
		pi := in.seq[i]
		p := in.pages[pi]
		if seen[pi] {
			repeats++
		}
		seen[pi] = true
		urls[p.url] = true
		bytes += len(p.body)
		if p.phish {
			phish++
		}
		if want[p].score >= b.ref.det.Threshold() {
			positive++
		}
	}
	n := float64(nFixed)
	b.rep.note("inputs (fixed-rate phase): requests %d, phish share %.4f, detector-positive share %.4f, repeat share %.4f, mean body %.0f B, unique URLs %d",
		nFixed, float64(phish)/n, float64(positive)/n, float64(repeats)/n, float64(bytes)/n, len(urls))
}

// feedEndToEnd runs feed-recrawl: a warm-up of at least one pass (the
// first pass analyses every page; later passes hit the memo) and the
// fixed-rate phase open-loop, measured per URL from due time to
// scored_at, then the capacity phase closed-loop, counting verdicts.
func (b *bench) feedEndToEnd(ctx context.Context, srv *server, d *driver) error {
	in := b.feed
	rate := b.sp.fixed
	col := &collector{d: d}
	nWarm := max(int(rate*b.secs(warmShare).Seconds())/feedBatch, in.batchesPerPass())
	nFixed := int(rate*b.secs(fixedShare).Seconds()) / feedBatch
	var warm, fixed *feedPhase
	var capRecs []store.Record
	var capShots []shot
	var capacity, rss float64
	var cpu time.Duration
	var m0, m1 serverMetrics
	err := loadPhases(func() (err error) {
		if warm, err = runFeedPhase(ctx, d, col, in, 0, nWarm, rate); err != nil {
			return err
		}
		cpu, m0, m1, err = measure(ctx, srv, d, func() (err error) {
			fixed, err = runFeedPhase(ctx, d, col, in, nWarm, nFixed, rate)
			return err
		})
		if err != nil {
			return err
		}
		if capacity, capShots, capRecs, err = feedCapacity(ctx, d, col, in, nWarm+nFixed, b.secs(capShare)); err != nil {
			return err
		}
		rss, err = srv.rssPeakMB()
		return err
	})
	if err != nil {
		return err
	}

	b.progress("HTTP phases done")
	if err := b.reference(); err != nil {
		return err
	}
	want, err := b.feedRefCalls()
	if err != nil {
		return err
	}
	var q quality
	judged := make(map[string]bool) // quality counts each distinct page once
	for pi, recs := range [][]store.Record{warm.records, fixed.records, capRecs} {
		for i := range recs {
			r := &recs[i]
			if r.Error != "" {
				continue
			}
			got := recordCall(r)
			if got != want[r.URL] {
				b.rep.mismatch("feed record seq %d (%s): got %+v, reference %+v", r.Seq, r.URL, got, want[r.URL])
			}
			if pi == 1 && !judged[r.URL] {
				judged[r.URL] = true
				q.add(&page{url: r.URL}, got)
			}
		}
	}

	lat := fixed.latencies()
	nURLs := len(lat)
	b.rep.latency(lat)
	b.rep.note("capacity_rps %.4f 1/s n=%d URLs sent (not gated, see NOTES.md)", capacity, feedBatch*len(capShots))
	b.rep.set("cpu_ms_per_verdict", ratio(ms(cpu), float64(len(fixed.records))), "ms", len(fixed.records))
	b.rep.set("rss_peak_mb", rss, "MB", 1)
	b.rep.set("verdict_accuracy", q.accuracy(), "ratio", q.phish+q.legit)
	b.reportQuality(&q)
	// Under saturation the feed may reject an in-flight duplicate by
	// design, so only the capacity phase's HTTP failures count as
	// failures; its rejects are printed.
	capFailed := feedBatch * summarize(capShots).failed
	capRejects := make(map[string]int)
	for i := range capShots {
		var resp serve.FeedResponse
		if capShots[i].ok() && json.Unmarshal(capShots[i].body, &resp) == nil {
			for _, r := range resp.Results {
				if !r.Accepted {
					capRejects[r.Reason]++
				}
			}
		}
	}
	b.rep.note("fail_ratio %.6f (%d of %d URLs at the fixed rate; rejects %v; capacity phase: %d URLs sent, %d in failed requests, rejects %v)",
		ratio(float64(fixed.failed), float64(nURLs)), fixed.failed, nURLs, fixed.rejects, feedBatch*len(capShots), capFailed, capRejects)
	b.reportLag("fixed-rate", summarize(fixed.shots))
	b.rep.note("memo.hit_ratio %.4f (fixed-rate phase, from /metrics); verdicts %d of %d URLs; feed depth max %d",
		memoHitRatio(m0, m1), nURLs-fixed.failed, nURLs, fixed.depthMax)
	bodyBytes := 0
	for _, body := range in.batches {
		bodyBytes += len(body)
	}
	b.rep.note("inputs: %d brand URLs (all legit) cycled in one seeded order, %d per POST /v1/feed, mean body %.0f B; repeat share of the fixed-rate phase 1.0",
		in.passURLs(), feedBatch, float64(bodyBytes)/float64(len(in.batches)))
	b.rep.res.Attempted = len(warm.subs) + nURLs + feedBatch*len(capShots)
	b.rep.res.Failed = warm.failed + fixed.failed + capFailed
	return nil
}

// recordCall is the comparable part of a stored verdict.
func recordCall(r *store.Record) call {
	c := callOf(r.Outcome)
	if c.target != r.Target {
		c.target = fmt.Sprintf("record target %q vs outcome %q", r.Target, c.target)
	}
	return c
}

// feedRefCalls computes the reference verdict of every feed URL,
// crawling the same world kpserve crawls.
func (b *bench) feedRefCalls() (map[string]call, error) {
	out := make(map[string]call, len(b.feed.urls))
	for _, u := range b.feed.urls {
		snap, err := crawl.Visit(b.ref.world, u)
		if err != nil {
			return nil, fmt.Errorf("reference crawl of %s: %w", u, err)
		}
		v, err := b.ref.verdict(snap)
		if err != nil {
			return nil, err
		}
		out[u] = callOf(v.Outcome)
	}
	return out, nil
}

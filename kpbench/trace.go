package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/features"
	"knowphish/internal/serve"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/urlx"
	"knowphish/internal/webpage"
)

// span is one timed call into a layer. Times are nanoseconds since the
// traced replay began; Parent is -1 for a root. Spans of one request
// share Req.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) { t.spans[id].End = int64(time.Since(t.t0)) }

// selfTimes returns each span's duration minus the time its children
// cover (children of one span run one after another, never overlap).
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Layer span names. The pipeline layers are the ones whose self time
// forms pipeline self time.
const (
	spRequest  = "request"
	spProbe    = "probe"
	spDecode   = "serve.decode"
	spEncode   = "serve.encode"
	spAnalyze  = "webpage.analyze"
	spExtract  = "features.extract"
	spScore    = "ml.score"
	spIdentify = "target.identify"
	spKeyterms = "target.keyterms"
	spQuery    = "search.query"
	spCrawl    = "crawl.visit"
	spAppend   = "store.append"
)

var pipelineLayers = []string{spAnalyze, spExtract, spScore, spIdentify}

// Shares of --seconds in a traced run.
const (
	lowShare    = 0.15 // low-rate HTTP phase for serve.overhead_us
	tFixedShare = 0.30 // fixed-rate HTTP phase for memo and feed counters
	replayShare = 0.20 // untraced replay; the traced replay repeats its count
	lowRate     = 40.0 // requests/s of the low-rate phase
	allocPages  = 200  // pipeline inputs of the allocation pass
)

// replayItem is one request of an in-process replay.
type replayItem struct {
	body []byte // score: the request body
	url  string // feed: the URL to crawl
	key  int    // identity of the page: a repeat of a key is a memo hit
}

// traced runs the per-layer breakdown: HTTP phases against a fresh
// kpserve for the counters only the server has, then an untraced and a
// traced in-process replay of the same inputs.
func (b *bench) traced(ctx context.Context) error {
	srv, _, err := b.start()
	if err != nil {
		return err
	}
	d := newDriver(srv.base, conns)
	err = loadPhases(func() error { return b.tracedServerPhases(ctx, d) })
	d.close()
	srv.stop()
	if err != nil {
		return err
	}
	b.progress("HTTP phases done")
	if err := b.reference(); err != nil {
		return err
	}
	return b.tracedReplay(ctx)
}

// serverSide is what a traced run's HTTP phases leave for the replay.
type serverSide struct {
	lowLat    []float64 // ms, low-rate phase latency per request
	lowPages  []*page   // the page of each low-rate request; nil for a repeat
	feedLat   []float64 // ms, fixed-rate verdict latency
	attempted int
	failed    int
}

func (b *bench) tracedServerPhases(ctx context.Context, d *driver) error {
	m0, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	var m1 serverMetrics
	rate := b.sp.fixed
	if b.feed != nil {
		col := &collector{d: d}
		n := max(int(rate*b.secs(tFixedShare).Seconds())/feedBatch, 2*b.feed.batchesPerPass())
		f, err := runFeedPhase(ctx, d, col, b.feed, 0, n, rate)
		if err != nil {
			return err
		}
		if m1, err = d.metrics(ctx); err != nil {
			return err
		}
		lat := f.latencies()
		b.side.feedLat = lat
		b.side.attempted, b.side.failed = len(f.subs), f.failed
		b.rep.set("feed.depth_max", float64(f.depthMax), "count", len(f.shots))
		b.rep.set("feed.rejects.duplicate", float64(f.rejects["duplicate"]), "count", len(f.subs))
		b.rep.set("feed.rejects.queue_full", float64(f.rejects["queue_full"]), "count", len(f.subs))
		other := 0
		for k, v := range f.rejects {
			if k != "duplicate" && k != "queue_full" {
				other += v
			}
		}
		b.rep.set("feed.rejects.other", float64(other), "count", len(f.subs))
		b.rep.set("driver.lag_ms.p99", summarize(f.shots).lagP99, "ms", len(f.shots))
		b.rep.set("memo.hit_ratio", memoHitRatio(m0, m1), "ratio", int(m1.Feed.Processed-m0.Feed.Processed))
		return nil
	}

	in := b.score
	nLow := int(lowRate * b.secs(lowShare).Seconds())
	nFixed := int(rate * b.secs(tFixedShare).Seconds())
	if err := in.ensure(nLow + nFixed); err != nil {
		return err
	}
	// The fixed-rate phase runs first, so the low-rate phase meets a
	// warm server.
	fixed, _ := d.openLoop(ctx, b.sp.path, nFixed, rate, in.body)
	if m1, err = d.metrics(ctx); err != nil {
		return err
	}
	low, _ := d.openLoop(ctx, b.sp.path, nLow, lowRate, func(i int) []byte { return in.body(nFixed + i) })
	seen := make(map[int]bool)
	for _, pi := range in.seq[:nFixed] {
		seen[pi] = true
	}
	for i := range low {
		pi := in.seq[nFixed+i]
		if !low[i].ok() {
			b.side.failed++
			continue
		}
		b.side.lowLat = append(b.side.lowLat, ms(low[i].latency()))
		if seen[pi] {
			b.side.lowPages = append(b.side.lowPages, nil)
		} else {
			b.side.lowPages = append(b.side.lowPages, in.pages[pi])
		}
		seen[pi] = true
	}
	fs := summarize(fixed)
	b.side.attempted, b.side.failed = len(low)+len(fixed), b.side.failed+fs.failed
	b.rep.set("driver.lag_ms.p99", fs.lagP99, "ms", fs.n)
	b.rep.set("memo.hit_ratio", memoHitRatio(m0, m1), "ratio", int(m1.CacheHits+m1.CacheMisses-m0.CacheHits-m0.CacheMisses))
	for _, k := range []string{"feed.depth_max", "feed.rejects.duplicate", "feed.rejects.queue_full", "feed.rejects.other"} {
		b.rep.set(k, 0, "count", 0)
	}
	return nil
}

// tracedReplay replays the workload's inputs in process: first
// untraced through the pipeline's own entry point, timed per request
// only, then through each layer's public functions with spans.
func (b *bench) tracedReplay(ctx context.Context) error {
	snaps := make(map[int]*webpage.Snapshot) // feed: crawled once for the alloc pass

	// The untraced replay runs before and after the traced one, and
	// their mean is the baseline, so drift over the replays (heap
	// growth, GC pacing) cancels out of the tracing overhead.
	cpu0 := readCPUMetrics()
	untraced, before, err := b.replayUntraced(ctx, 0)
	if err != nil {
		return err
	}
	n := len(untraced)
	tr := &tracer{spans: make([]span, 0, 16*n)}
	tr.t0 = time.Now()
	outs, info, err := b.replayTraced(ctx, tr, n, snaps)
	if err != nil {
		return err
	}
	_, after, err := b.replayUntraced(ctx, n)
	if err != nil {
		return err
	}
	cpu1 := readCPUMetrics()
	b.untracedUS = (before + after) / 2
	for i := range outs {
		if outs[i] != untraced[i] {
			b.rep.mismatch("replay request %d: traced %+v, untraced %+v", i, outs[i], untraced[i])
		}
	}
	if err := tr.write(filepath.Join(b.o.work, fmt.Sprintf("spans-%s-%d.jsonl", b.o.workload, b.o.seed))); err != nil {
		return err
	}
	b.layerMetrics(tr, info, n)
	b.rep.set("gc.cpu_share", ratio(cpu1.gc-cpu0.gc, cpu1.gc-cpu0.gc+cpu1.user-cpu0.user), "ratio", n)
	b.allocMetrics(snaps)
	b.rep.res.Attempted = b.side.attempted + n
	b.rep.res.Failed = b.side.failed
	return nil
}

// replayUntraced runs n requests (n = 0: until the replay budget is
// spent) through the pipeline's own entry point and returns each
// request's outcome and the mean request time in microseconds.
func (b *bench) replayUntraced(ctx context.Context, n int) ([]call, float64, error) {
	st, err := b.openReplayStore("untraced")
	if err != nil {
		return nil, 0, err
	}
	if st != nil {
		defer st.Close()
	}
	var outs []call
	var total time.Duration
	memo := make(map[int]core.Outcome)
	budget := b.secs(replayShare)
	thr := b.ref.det.Threshold()
	for i := 0; (n == 0 && total < budget) || i < n; i++ {
		it, err := b.item(i)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		var out core.Outcome
		if b.feed != nil {
			snap, err := crawl.Visit(b.ref.world, it.url)
			if err != nil {
				return nil, 0, err
			}
			o, hit := memo[it.key]
			if !hit {
				v, err := b.ref.pipe.AnalyzeCtx(ctx, core.NewScoreRequest(snap))
				if err != nil {
					return nil, 0, err
				}
				o = v.Outcome
				memo[it.key] = o
			}
			if err := st.Append(ctx, feedRecord(it.url, snap, o)); err != nil {
				return nil, 0, err
			}
			out = o
		} else {
			var req serve.V2ScoreRequest
			if err := json.Unmarshal(it.body, &req); err != nil {
				return nil, 0, err
			}
			v, hit := core.Verdict{}, false
			if o, ok := memo[it.key]; ok {
				v, hit = core.MakeVerdict(o, thr), true
			} else {
				if v, err = b.ref.pipe.AnalyzeCtx(ctx, core.NewScoreRequest(req.Snapshot)); err != nil {
					return nil, 0, err
				}
				memo[it.key] = v.Outcome
			}
			if _, err := json.Marshal(serve.V2ScoreResponse{Verdict: v, LandingURL: req.Snapshot.LandingURL, Cached: hit}); err != nil {
				return nil, 0, err
			}
			out = v.Outcome
		}
		total += time.Since(t0)
		outs = append(outs, callOf(out))
	}
	return outs, float64(total.Nanoseconds()) / 1e3 / float64(len(outs)), nil
}

// item returns replay request i: the feed's URLs in their seeded
// order, cycled, or the i-th request of the score workload's sequence.
func (b *bench) item(i int) (replayItem, error) {
	if b.feed != nil {
		k := i % len(b.feed.urls)
		return replayItem{url: b.feed.urls[k], key: k}, nil
	}
	if err := b.score.ensure(i + 1); err != nil {
		return replayItem{}, err
	}
	return replayItem{body: b.score.body(i), key: b.score.seq[i]}, nil
}

// replayInfo carries the counts the traced replay observes.
type replayInfo struct {
	pipelineRuns, identifyRuns, steps, ocr int
	service                                []float64 // feed: crawl + pipeline per item, ms
}

// replayTraced replays the same requests through each layer's public
// functions, recording a span around every call.
func (b *bench) replayTraced(ctx context.Context, tr *tracer, n int, snaps map[int]*webpage.Snapshot) ([]call, replayInfo, error) {
	var info replayInfo
	st, err := b.openReplayStore("traced")
	if err != nil {
		return nil, info, err
	}
	if st != nil {
		defer func() {
			b.compactions = st.Stats().Compactions
			st.Close()
		}()
	}
	memo := make(map[int]core.Outcome)
	thr := b.ref.det.Threshold()
	outs := make([]call, 0, n)
	for i := 0; i < n; i++ {
		it, err := b.item(i)
		if err != nil {
			return nil, info, err
		}
		r := int32(i)
		root := tr.begin(spRequest, -1, r)
		var snap *webpage.Snapshot
		var landing string
		if b.feed != nil {
			s := tr.begin(spCrawl, root, r)
			snap, err = crawl.Visit(b.ref.world, it.url)
			tr.end(s)
			if err != nil {
				return nil, info, err
			}
			snaps[it.key] = snap
		} else {
			var req serve.V2ScoreRequest
			s := tr.begin(spDecode, root, r)
			err := json.Unmarshal(it.body, &req)
			tr.end(s)
			if err != nil {
				return nil, info, err
			}
			snap, landing = req.Snapshot, req.Snapshot.LandingURL
		}
		o, hit := memo[it.key]
		var a *webpage.Analysis
		if !hit {
			o, a = b.tracedPipeline(tr, root, r, snap, &info)
			memo[it.key] = o
		}
		if b.feed != nil {
			rec := feedRecord(it.url, snap, o)
			s := tr.begin(spAppend, root, r)
			err := st.Append(ctx, rec)
			tr.end(s)
			if err != nil {
				return nil, info, err
			}
		} else {
			v := core.MakeVerdict(o, thr)
			s := tr.begin(spEncode, root, r)
			_, err := json.Marshal(serve.V2ScoreResponse{Verdict: v, LandingURL: landing, Cached: hit})
			tr.end(s)
			if err != nil {
				return nil, info, err
			}
		}
		tr.end(root)
		if a != nil && o.TargetRun {
			// Probes outside the request: keyterm extraction and one
			// search query on the page's keyterms, the two halves of
			// an identification step.
			p := tr.begin(spProbe, -1, r)
			s := tr.begin(spKeyterms, p, r)
			kt := target.ExtractKeyterms(a, target.DefaultKeyterms)
			tr.end(s)
			q := kt.Boosted
			if len(q) == 0 {
				q = kt.Prominent
			}
			s = tr.begin(spQuery, p, r)
			b.ref.engine.Query(q, target.DefaultResults)
			tr.end(s)
			tr.end(p)
		}
		outs = append(outs, callOf(o))
	}
	return outs, info, nil
}

// tracedPipeline is core's scoring stage machine spelled out in public
// calls: analysis, extraction into a pooled vector, GBM scoring, and
// target identification of detector positives, which may overturn the
// detector.
func (b *bench) tracedPipeline(tr *tracer, root, r int32, snap *webpage.Snapshot, info *replayInfo) (core.Outcome, *webpage.Analysis) {
	info.pipelineRuns++
	s := tr.begin(spAnalyze, root, r)
	a := webpage.Analyze(snap)
	tr.end(s)
	s = tr.begin(spExtract, root, r)
	vec := features.GetVector()
	*vec = b.ref.ext.AppendFeatures((*vec)[:0], a)
	tr.end(s)
	s = tr.begin(spScore, root, r)
	score := b.ref.det.ScoreVector(*vec)
	tr.end(s)
	features.PutVector(vec)
	o := core.Outcome{Score: score, DetectorPhish: score >= b.ref.det.Threshold()}
	o.FinalPhish = o.DetectorPhish
	if o.DetectorPhish {
		s = tr.begin(spIdentify, root, r)
		res := b.ref.id.Identify(a)
		tr.end(s)
		o.TargetRun, o.Target = true, res
		if res.Verdict == target.VerdictLegitimate {
			o.FinalPhish = false
		}
		info.identifyRuns++
		info.steps += res.StepsUsed
		if res.UsedOCR {
			info.ocr++
		}
	}
	return o, a
}

// feedRecord is the record the feed persists for one verdict.
func feedRecord(u string, snap *webpage.Snapshot, o core.Outcome) store.Record {
	rec := store.Record{
		URL:         u,
		LandingURL:  snap.LandingURL,
		Fingerprint: webpage.Fingerprint(snap),
		Outcome:     o,
		ScoredAt:    time.Now().UTC(),
		Target:      topTarget(o),
	}
	if p, err := urlx.Parse(snap.LandingURL); err == nil {
		rec.RDN = p.RDN
	}
	return rec
}

// openReplayStore opens a fresh segmented store with kpserve's store
// defaults; score workloads persist nothing and get nil.
func (b *bench) openReplayStore(name string) (store.Backend, error) {
	if b.feed == nil {
		return nil, nil
	}
	dir := filepath.Join(b.o.work, fmt.Sprintf("replay-%s-%s-%d", name, b.o.workload, b.o.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return store.Open(store.Config{
		Path:         dir,
		Backend:      store.BackendSegmented,
		CompactEvery: store.DefaultCompactEvery,
		SegmentBytes: store.DefaultSegmentBytes,
	})
}

// layerMetrics turns the spans into the per-layer metrics.
func (b *bench) layerMetrics(tr *tracer, info replayInfo, n int) {
	self := tr.selfTimes()
	durs := make(map[string][]float64)
	selfSum := make(map[string]float64)
	var rootTotal, attributed float64
	perReq := make(map[int32]float64) // feed: crawl + pipeline self per request
	for i, s := range tr.spans {
		us := float64(s.End-s.Start) / 1e3
		durs[s.Name] = append(durs[s.Name], us)
		selfSum[s.Name] += float64(self[i]) / 1e3
		switch {
		case s.Name == spRequest:
			rootTotal += us
		case s.Name == spProbe || s.Parent < 0:
		case tr.spans[s.Parent].Name == spRequest:
			attributed += float64(self[i]) / 1e3
			if s.Name != spAppend {
				perReq[s.Req] += us
			}
		}
	}
	p := func(name string, q float64) float64 { return quantile(durs[name], q) }
	cnt := func(name string) int { return len(durs[name]) }
	b.rep.set("webpage.analyze_us.p50", p(spAnalyze, 0.5), "us", cnt(spAnalyze))
	b.rep.set("webpage.analyze_us.p99", p(spAnalyze, 0.99), "us", cnt(spAnalyze))
	b.rep.set("features.extract_us.p50", p(spExtract, 0.5), "us", cnt(spExtract))
	b.rep.set("ml.score_us.p50", p(spScore, 0.5), "us", cnt(spScore))
	b.rep.set("target.identify_us.p50", p(spIdentify, 0.5), "us", cnt(spIdentify))
	b.rep.set("target.identify_us.p99", p(spIdentify, 0.99), "us", cnt(spIdentify))
	b.rep.set("target.keyterms_us.p50", p(spKeyterms, 0.5), "us", cnt(spKeyterms))
	b.rep.set("search.query_us.p50", p(spQuery, 0.5), "us", cnt(spQuery))
	b.rep.set("target.calls_share", ratio(float64(info.identifyRuns), float64(info.pipelineRuns)), "ratio", info.pipelineRuns)
	b.rep.set("target.steps_mean", ratio(float64(info.steps), float64(info.identifyRuns)), "count", info.identifyRuns)
	b.rep.set("target.ocr_share", ratio(float64(info.ocr), float64(info.identifyRuns)), "ratio", info.identifyRuns)
	pipeSelf := 0.0
	for _, l := range pipelineLayers {
		pipeSelf += selfSum[l]
	}
	b.rep.set("target.pipeline_self_share", ratio(selfSum[spIdentify], pipeSelf), "ratio", info.pipelineRuns)
	b.rep.set("pipeline.self_us.mean", ratio(pipeSelf, float64(n)), "us", n)
	b.rep.set("serve.decode_us.p50", p(spDecode, 0.5), "us", cnt(spDecode))
	b.rep.set("serve.encode_us.p50", p(spEncode, 0.5), "us", cnt(spEncode))
	b.rep.set("crawl.visit_us.p50", p(spCrawl, 0.5), "us", cnt(spCrawl))
	b.rep.set("store.append_us.p50", p(spAppend, 0.5), "us", cnt(spAppend))
	b.rep.set("store.append_us.p99", p(spAppend, 0.99), "us", cnt(spAppend))
	b.rep.set("store.compactions", float64(b.compactions), "count", cnt(spAppend))

	attributedMean := attributed / float64(n)
	b.rep.set("unattributed_us", b.untracedUS-attributedMean, "us", n)
	b.rep.set("trace.overhead_us", rootTotal/float64(n)-b.untracedUS, "us", n)
	b.rep.note("untraced request mean %.2f us, traced %.2f us, attributed to layers %.2f us", b.untracedUS, rootTotal/float64(n), attributedMean)

	// serve.overhead_us: low-rate HTTP latency minus in-process
	// AnalyzeCtx time for the same page (0 for a cache hit).
	if b.feed == nil {
		var diff []float64
		for i, pg := range b.side.lowPages {
			inproc := 0.0
			if pg != nil {
				t0 := time.Now()
				if _, err := b.ref.verdict(pg.snap); err != nil {
					continue
				}
				inproc = float64(time.Since(t0).Nanoseconds()) / 1e3
			}
			diff = append(diff, b.side.lowLat[i]*1e3-inproc)
		}
		b.rep.set("serve.overhead_us", median(diff), "us", len(diff))
		b.rep.set("feed.queue_wait_ms", 0, "ms", 0)
		return
	}
	b.rep.set("serve.overhead_us", 0, "us", 0)
	service := make([]float64, 0, len(perReq))
	for _, v := range perReq {
		service = append(service, v/1e3)
	}
	b.rep.set("feed.queue_wait_ms", median(b.side.feedLat)-median(service), "ms", len(b.side.feedLat))
}

// allocMetrics counts heap allocations per layer call on up to
// allocPages pipeline inputs, outside every timed window.
func (b *bench) allocMetrics(snaps map[int]*webpage.Snapshot) {
	var pages []*webpage.Snapshot
	if b.feed != nil {
		for _, s := range snaps {
			pages = append(pages, s)
		}
	} else {
		seen := make(map[int]bool)
		for i := 0; i < len(b.score.seq) && len(pages) < allocPages; i++ {
			if k := b.score.seq[i]; !seen[k] {
				seen[k] = true
				pages = append(pages, b.score.pages[k].snap)
			}
		}
	}
	if len(pages) > allocPages {
		pages = pages[:allocPages]
	}
	var an, ex, id allocCount
	for _, snap := range pages {
		var a *webpage.Analysis
		an.measure(func() { a = webpage.Analyze(snap) })
		vec := features.GetVector()
		ex.measure(func() { *vec = b.ref.ext.AppendFeatures((*vec)[:0], a) })
		score := b.ref.det.ScoreVector(*vec)
		features.PutVector(vec)
		if score >= b.ref.det.Threshold() {
			id.measure(func() { b.ref.id.Identify(a) })
		}
	}
	b.rep.set("webpage.analyze_allocs", an.allocs(), "count", an.n)
	b.rep.set("webpage.analyze_bytes", an.bytes(), "B", an.n)
	b.rep.set("features.extract_allocs", ex.allocs(), "count", ex.n)
	b.rep.set("target.identify_allocs", id.allocs(), "count", id.n)
	b.rep.set("target.identify_bytes", id.bytes(), "B", id.n)
}

// allocCount accumulates heap allocations of measured calls.
type allocCount struct {
	n             int
	mallocs, size uint64
}

func (c *allocCount) measure(f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	c.n++
	c.mallocs += m1.Mallocs - m0.Mallocs
	c.size += m1.TotalAlloc - m0.TotalAlloc
}

func (c *allocCount) allocs() float64 { return ratio(float64(c.mallocs), float64(c.n)) }
func (c *allocCount) bytes() float64  { return ratio(float64(c.size), float64(c.n)) }

// cpuMetrics is the process's GC and user CPU time from runtime/metrics.
type cpuMetrics struct{ gc, user float64 }

func readCPUMetrics() cpuMetrics {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	return cpuMetrics{gc: s[0].Value.Float64(), user: s[1].Value.Float64()}
}

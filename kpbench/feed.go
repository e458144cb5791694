package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"knowphish/internal/serve"
	"knowphish/internal/store"
)

// pollLimit is the page size of a poll: a little above the ~50
// records that appear between two polls at the fixed rate.
const pollLimit = 64

// collector reads every verdict record kpserve persists, through
// GET /v2/verdicts with cursor pagination, newest first, down to the
// newest record it already holds. It polls during a phase: the store
// compacts superseded records away every 4,096 appends, and a re-crawl
// supersedes each URL's record one pass later, so only a reader that
// keeps up sees them all. Pages are small (pollLimit), so the records
// kpserve loads and encodes for a poll track the new ones rather than
// every live record.
type collector struct {
	d      *driver
	mu     sync.Mutex
	maxSeq uint64
	recs   []store.Record // ascending seq
}

func (c *collector) poll(ctx context.Context) error {
	var fresh []store.Record
	cursor := ""
	c.mu.Lock()
	floor := c.maxSeq
	c.mu.Unlock()
	for {
		path := "/v2/verdicts?limit=" + strconv.Itoa(pollLimit)
		if cursor != "" {
			path += "&cursor=" + url.QueryEscape(cursor)
		}
		status, body := c.d.do(ctx, http.MethodGet, path, nil)
		if status != http.StatusOK {
			return fmt.Errorf("GET /v2/verdicts: status %d", status)
		}
		var pg serve.VerdictsPageResponse
		if err := json.Unmarshal(body, &pg); err != nil {
			return fmt.Errorf("decoding /v2/verdicts: %w", err)
		}
		done := pg.NextCursor == ""
		for _, r := range pg.Records {
			if r.Seq <= floor {
				done = true
				break
			}
			fresh = append(fresh, r)
		}
		if done {
			break
		}
		cursor = pg.NextCursor
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Seq < fresh[j].Seq })
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range fresh {
		if r.Seq > c.maxSeq {
			c.recs = append(c.recs, r)
			c.maxSeq = r.Seq
		}
	}
	return nil
}

// since returns the records with seq above floor.
func (c *collector) since(floor uint64) []store.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.recs), func(i int) bool { return c.recs[i].Seq > floor })
	return append([]store.Record(nil), c.recs[i:]...)
}

// feedPhase is one open-loop phase of feed-recrawl, measured per URL:
// from the due time of the batch that carried it to its record's
// scored_at.
type feedPhase struct {
	shots    []shot // one per batch
	start    time.Time
	subs     []feedSub
	records  []store.Record
	rejects  map[string]int
	depthMax int
	failed   int // rejected, failed or never recorded
}

// feedSub is one URL submission.
type feedSub struct {
	url      string
	due      time.Time
	accepted bool
	rec      *store.Record // the verdict this submission produced
}

func (f *feedPhase) latencies() []float64 {
	lat := make([]float64, 0, len(f.subs))
	for _, s := range f.subs {
		if s.rec == nil || s.rec.Error != "" {
			lat = append(lat, inf)
			continue
		}
		lat = append(lat, ms(s.rec.ScoredAt.Sub(s.due)))
	}
	return lat
}

// drainWait bounds how long a phase waits for its accepted URLs'
// verdicts after its last submission.
const drainWait = 10 * time.Second

// collect runs send while polling the collector, then waits until the
// store holds a record for every URL send reports accepted, and
// returns the records that appeared.
func collect(ctx context.Context, col *collector, send func() (accepted int)) ([]store.Record, error) {
	if err := col.poll(ctx); err != nil {
		return nil, err
	}
	col.mu.Lock()
	floor := col.maxSeq
	col.mu.Unlock()
	pollCtx, stopPoll := context.WithCancel(ctx)
	var wg sync.WaitGroup
	pollErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pollCtx.Err() == nil {
			if err := col.poll(pollCtx); err != nil && pollCtx.Err() == nil {
				pollErr <- err
				return
			}
			select {
			case <-pollCtx.Done():
			case <-time.After(50 * time.Millisecond):
			}
		}
	}()
	accepted := send()
	deadline := time.Now().Add(drainWait)
	for len(col.since(floor)) < accepted && time.Now().Before(deadline) && len(pollErr) == 0 {
		time.Sleep(20 * time.Millisecond)
	}
	stopPoll()
	wg.Wait()
	select {
	case err := <-pollErr:
		return nil, err
	default:
	}
	if err := col.poll(ctx); err != nil {
		return nil, err
	}
	return col.since(floor), nil
}

// runFeedPhase submits batches [first, first+n) open-loop at rate
// URLs/s and pairs every submitted URL with the verdict it produced.
func runFeedPhase(ctx context.Context, d *driver, col *collector, in *feedInputs, first, n int, rate float64) (*feedPhase, error) {
	f := &feedPhase{rejects: make(map[string]int)}
	var err error
	f.records, err = collect(ctx, col, func() int {
		f.shots, f.start = d.openLoop(ctx, "/v1/feed", n, rate/feedBatch, func(i int) []byte { return in.body(first + i) })
		accepted := 0
		for i := range f.shots {
			urls := in.batch(first + i)
			var resp serve.FeedResponse
			okResp := f.shots[i].ok() && json.Unmarshal(f.shots[i].body, &resp) == nil && len(resp.Results) == len(urls)
			if okResp && resp.QueueDepth > f.depthMax {
				f.depthMax = resp.QueueDepth
			}
			for j, u := range urls {
				s := feedSub{url: u, due: f.start.Add(f.shots[i].due)}
				switch {
				case !okResp:
					f.rejects["http"]++
				case resp.Results[j].Accepted:
					s.accepted = true
					accepted++
				default:
					f.rejects[resp.Results[j].Reason]++
				}
				f.subs = append(f.subs, s)
			}
		}
		return accepted
	})
	if err != nil {
		return nil, err
	}

	// A URL is resubmitted only after its previous verdict landed (the
	// feed rejects in-flight duplicates), so a URL's records and its
	// accepted submissions pair up in order.
	byURL := make(map[string][]*store.Record)
	for i := range f.records {
		r := &f.records[i]
		byURL[r.URL] = append(byURL[r.URL], r)
	}
	for i := range f.subs {
		s := &f.subs[i]
		if !s.accepted {
			f.failed++
			continue
		}
		if q := byURL[s.url]; len(q) > 0 {
			s.rec, byURL[s.url] = q[0], q[1:]
		}
		if s.rec == nil || s.rec.Error != "" {
			f.failed++
		}
	}
	return f, nil
}

// capDepth bounds the feed queue in the capacity phase. With the queue
// flooded, much of the 280-URL cycle is in flight at once and about a
// third of the URLs sent are rejected as duplicates, so kpserve's CPU
// goes partly to rejecting instead of scoring. A connection that sees
// this depth in a response waits a millisecond, about the time kpserve
// needs to score ten URLs, so the queue neither floods nor runs dry.
const capDepth = 64

// feedCapacity submits batches from first back-to-back over every
// connection (pausing while the queue holds capDepth URLs) for dur and returns the verdicts kpserve persisted per
// second: its /metrics processed counter read at windows+1 evenly
// spaced instants, the median over the windows. It then waits for the
// feed to go idle and returns the requests sent and the records still
// in the store. Under this load a URL's record is superseded and
// compacted away faster than any poll, so the phase checks the records
// that survive, and counts verdicts on the server.
func feedCapacity(ctx context.Context, d *driver, col *collector, in *feedInputs, first int, dur time.Duration) (float64, []shot, []store.Record, error) {
	if err := col.poll(ctx); err != nil {
		return 0, nil, nil, err
	}
	col.mu.Lock()
	floor := col.maxSeq
	col.mu.Unlock()
	type sample struct {
		at        time.Time
		processed int64
	}
	samples := make([]sample, 0, windows+1)
	sampled := make(chan error, 1)
	start := time.Now()
	go func() {
		for w := 0; w <= windows; w++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(w) / windows)))
			m, err := d.metrics(ctx)
			if err != nil {
				sampled <- err
				return
			}
			samples = append(samples, sample{time.Now(), m.Feed.Processed})
		}
		sampled <- nil
	}()
	full := func(body []byte) bool {
		var resp serve.FeedResponse
		return json.Unmarshal(body, &resp) == nil && resp.QueueDepth >= capDepth
	}
	shots, _ := d.closedLoop(ctx, "/v1/feed", math.MaxInt, dur, func(i int) []byte { return in.body(first + i) }, full)
	if err := <-sampled; err != nil {
		return 0, nil, nil, err
	}
	var rates []float64
	for w := 1; w < len(samples); w++ {
		rates = append(rates, float64(samples[w].processed-samples[w-1].processed)/samples[w].at.Sub(samples[w-1].at).Seconds())
	}
	deadline := time.Now().Add(drainWait)
	for {
		m, err := d.metrics(ctx)
		if err != nil {
			return 0, nil, nil, err
		}
		if m.Feed.Depth == 0 && m.Feed.Processed+m.Feed.Failed >= m.Feed.Accepted {
			break
		}
		if time.Now().After(deadline) {
			return 0, nil, nil, fmt.Errorf("feed still busy %v after the capacity phase", drainWait)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := col.poll(ctx); err != nil {
		return 0, nil, nil, err
	}
	return median(rates), shots, col.since(floor), nil
}

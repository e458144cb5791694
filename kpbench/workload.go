package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"knowphish/internal/crawl"
	"knowphish/internal/serve"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// Workload names.
const (
	wlSuspect = "score-suspect"
	wlBrowse  = "score-browse"
	wlFeed    = "feed-recrawl"
)

// spec fixes a workload's traffic shape. Rates are in the workload's
// unit of work: pages for the score workloads, URLs for the feed.
type spec struct {
	path string
	// fixed is the open-loop rate of the fixed-rate phase, about half
	// the workload's capacity at the benchmark's first commit on a
	// 2-CPU host.
	fixed float64
	// capacity is that capacity; it sizes the inputs of the score
	// workloads' closed-loop capacity phase.
	capacity float64
}

var specs = map[string]spec{
	wlSuspect: {path: "/v2/score", fixed: 120, capacity: 480},
	wlBrowse:  {path: "/v2/score", fixed: 800, capacity: 4700},
	wlFeed:    {path: "/v1/feed", fixed: 1000, capacity: 4400},
}

const (
	// browsePool is score-browse's page pool: well under kpserve's
	// 4096-entry verdict cache, so a repeat is a cache hit.
	browsePool = 2000
	// browsePhish is the number of phish pages in that pool (0.25%): a
	// browsing user rarely lands on one.
	browsePhish = 5
	// browseZipf is the Zipf exponent of page popularity.
	browseZipf = 1.1
	// feedBatch is URLs per POST /v1/feed; it divides the 280-URL
	// corpus, so every pass submits the same batches. A batch's URLs
	// share a due time and queue behind each other on the feed's
	// workers, so a small batch keeps that queue from amplifying noise.
	feedBatch = 4
)

// page is one distinct input page with its ground truth.
type page struct {
	body      []byte            // pre-encoded serve.V2ScoreRequest
	snap      *webpage.Snapshot // decoded from body: what the server sees
	url       string            // starting URL
	phish     bool
	targetRDN string
}

// scoreInputs is a score workload's inputs: distinct pages and the
// page each request sends. Generation is a deterministic stream, so
// asking for more requests extends the same sequence.
type scoreInputs struct {
	w     *webgen.World
	rng   *rand.Rand
	pages []*page
	seq   []int // request i sends pages[seq[i]]
	seen  map[string]bool

	suspect bool
	zipf    *rand.Zipf
	rank    []int // browse: popularity rank → page index
}

func newScoreInputs(w *webgen.World, workload string, seed int64) (*scoreInputs, error) {
	in := &scoreInputs{
		w:       w,
		rng:     rand.New(rand.NewSource(seed)),
		seen:    make(map[string]bool),
		suspect: workload == wlSuspect,
	}
	if in.suspect {
		return in, nil
	}
	phishAt := make(map[int]bool, browsePhish)
	for len(phishAt) < browsePhish {
		phishAt[in.rng.Intn(browsePool)] = true
	}
	for i := 0; i < browsePool; i++ {
		if err := in.addPage(phishAt[i]); err != nil {
			return nil, err
		}
	}
	in.rank = in.rng.Perm(browsePool)
	in.zipf = rand.NewZipf(in.rng, browseZipf, 1, browsePool-1)
	return in, nil
}

// addPage generates one page never generated before (by content
// fingerprint) and appends it.
func (in *scoreInputs) addPage(phish bool) error {
	for attempt := 0; attempt < 100; attempt++ {
		var site *webgen.Site
		if phish {
			site = in.w.NewPhishSite(in.rng, in.w.RandomPhishOptions(in.rng))
		} else {
			site = in.w.NewLegitSite(in.rng, webgen.LegitOptions{})
		}
		snap, err := crawl.VisitSite(in.w, site)
		if err != nil {
			return err
		}
		fp := snap.LandingURL + "\x00" + webpage.Fingerprint(snap)
		if in.seen[fp] {
			continue
		}
		in.seen[fp] = true
		body, err := json.Marshal(serve.V2ScoreRequest{PageRequest: serve.PageRequest{Snapshot: snap}})
		if err != nil {
			return err
		}
		var req serve.V2ScoreRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		in.pages = append(in.pages, &page{body: body, snap: req.Snapshot, url: snap.StartingURL, phish: site.IsPhish, targetRDN: site.TargetRDN})
		return nil
	}
	return fmt.Errorf("no new distinct page after 100 attempts")
}

// ensure extends the request sequence to n requests.
func (in *scoreInputs) ensure(n int) error {
	for len(in.seq) < n {
		if in.suspect {
			// Every request is a page never sent before; two of every
			// three are phish.
			if err := in.addPage(len(in.seq)%3 != 0); err != nil {
				return err
			}
			in.seq = append(in.seq, len(in.pages)-1)
			continue
		}
		in.seq = append(in.seq, in.rank[in.zipf.Uint64()])
	}
	return nil
}

func (in *scoreInputs) body(i int) []byte { return in.pages[in.seq[i]].body }

// feedInputs is feed-recrawl's inputs: the world's crawlable brand
// URLs (what `kpload gen` emits for the server's seed) in one seeded
// order, cycled, in fixed batches. Cycling one order spaces every
// URL's resubmissions a whole pass apart.
type feedInputs struct {
	urls    []string
	batches [][]byte // pre-encoded serve.FeedRequest, one pass
	urlsOf  [][]string
}

func newFeedInputs(w *webgen.World, seed int64) (*feedInputs, error) {
	var urls []string
	for _, b := range w.Brands {
		urls = append(urls, w.BrandSiteURLs(b)...)
	}
	if len(urls)%feedBatch != 0 {
		return nil, fmt.Errorf("%d brand URLs do not split into batches of %d", len(urls), feedBatch)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(urls), func(i, j int) { urls[i], urls[j] = urls[j], urls[i] })
	in := &feedInputs{urls: urls}
	for i := 0; i < len(urls); i += feedBatch {
		batch := urls[i : i+feedBatch]
		body, err := json.Marshal(serve.FeedRequest{URLs: batch})
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, body)
		in.urlsOf = append(in.urlsOf, batch)
	}
	return in, nil
}

func (in *feedInputs) body(i int) []byte    { return in.batches[i%len(in.batches)] }
func (in *feedInputs) batch(i int) []string { return in.urlsOf[i%len(in.urlsOf)] }
func (in *feedInputs) batchesPerPass() int  { return len(in.batches) }
func (in *feedInputs) passURLs() int        { return len(in.urls) }

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/feed"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// outcomeJSON is the wire form the differential test compares: float
// encoding round-trips exactly, so equal bytes mean a bit-identical
// outcome.
func outcomeJSON(t *testing.T, o core.Outcome) string {
	t.Helper()
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEveryPathSameOutcome is the differential harness: on a seeded
// webgen corpus (phish and legit pages, plus one page without a landing
// URL), every entry point returns the Outcome pipe.AnalyzeCtx gives the
// same page with the same options — the memo cold, warm and after a
// promotion, every scoring endpoint cold and warm, and the feed drain.
func TestEveryPathSameOutcome(t *testing.T) {
	c, d := fixtures(t)
	pipe := &core.Pipeline{Detector: d, Identifier: target.New(c.Engine)}
	ctx := context.Background()

	rng := rand.New(rand.NewSource(23))
	var fetchers []crawl.Fetcher
	var urls []string
	for i := 0; i < 8; i++ {
		var site *webgen.Site
		if i%2 == 0 {
			site = c.World.NewPhishSite(rng, c.World.RandomPhishOptions(rng))
		} else {
			site = c.World.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
		}
		fetchers = append(fetchers, site)
		urls = append(urls, site.StartURL)
	}
	fetcher := crawl.Compose(append(fetchers, c.World)...)
	var pages []*webpage.Snapshot
	for _, u := range urls {
		snap, err := crawl.Visit(fetcher, u)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, snap)
	}
	noURL := *pages[0]
	noURL.LandingURL = ""
	pages = append(pages, &noURL)
	phish := 0
	for _, p := range pages {
		if v, _ := pipe.AnalyzeCtx(ctx, core.NewScoreRequest(p)); v.TargetRun {
			phish++
		}
	}
	if phish == 0 {
		t.Fatal("corpus has no detector positive: the target stage is never compared")
	}

	variants := []struct {
		name string
		wire ScoreOptions
		opts []core.ScoreOption
	}{
		{"plain", ScoreOptions{}, nil},
		{"skip_target", ScoreOptions{SkipTarget: true}, []core.ScoreOption{core.WithoutTargetID()}},
		{"explain", ScoreOptions{Explain: "top"}, []core.ScoreOption{core.WithExplain(core.ExplainTop)}},
	}
	for _, vr := range variants {
		want := make([]string, len(pages))
		for i, p := range pages {
			v, err := pipe.AnalyzeCtx(ctx, core.NewScoreRequest(p, vr.opts...))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = outcomeJSON(t, v.Outcome)
		}
		check := func(path string, i int, got core.Outcome) {
			t.Helper()
			if g := outcomeJSON(t, got); g != want[i] {
				t.Errorf("%s %s page %d:\n got %s\nwant %s", vr.name, path, i, g, want[i])
			}
		}

		m := coalesce.New(0)
		for _, phase := range []string{"cold", "warm", "promoted"} {
			if phase == "promoted" {
				m.InvalidateModel()
			}
			for i, p := range pages {
				v, cached, err := m.Do(ctx, pipe, core.NewScoreRequest(p, vr.opts...), coalesce.CacheDefault)
				if err != nil {
					t.Fatal(err)
				}
				check("memo/"+phase, i, v.Outcome)
				if phase == "promoted" && (cached || v.Memo == nil || v.Memo.Analysis != core.ProvMemo) {
					t.Errorf("%s memo/promoted page %d: cached=%v memo %+v, want an analysis hit", vr.name, i, cached, v.Memo)
				}
			}
		}

		reqs := make([]PageRequest, len(pages))
		for i, p := range pages {
			reqs[i] = PageRequest{Snapshot: p}
		}
		endpoints := map[string]func(s *Server) []core.Outcome{
			"/v2/score": func(s *Server) []core.Outcome {
				out := make([]core.Outcome, len(reqs))
				for i, r := range reqs {
					var resp V2ScoreResponse
					call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{PageRequest: r, ScoreOptions: vr.wire}, &resp)
					out[i] = resp.Outcome
				}
				return out
			},
			"/v2/score/batch": func(s *Server) []core.Outcome {
				var resp V2BatchResponse
				call(t, s, http.MethodPost, "/v2/score/batch", V2BatchRequest{Pages: reqs, ScoreOptions: vr.wire}, &resp)
				out := make([]core.Outcome, len(resp.Results))
				for i, r := range resp.Results {
					out[i] = r.Outcome
				}
				return out
			},
			"/v2/score/stream": func(s *Server) []core.Outcome {
				var body bytes.Buffer
				enc := json.NewEncoder(&body)
				for _, r := range reqs {
					if err := enc.Encode(V2ScoreRequest{PageRequest: r, ScoreOptions: vr.wire}); err != nil {
						t.Fatal(err)
					}
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/score/stream", &body))
				out := make([]core.Outcome, len(reqs))
				sc := bufio.NewScanner(rec.Body)
				sc.Buffer(nil, 1<<20)
				for sc.Scan() {
					var res V2StreamResult
					if err := json.Unmarshal(sc.Bytes(), &res); err != nil || res.V2ScoreResponse == nil {
						t.Fatalf("stream line %q: %v", sc.Text(), err)
					}
					out[res.Index] = res.Outcome
				}
				return out
			},
		}
		if vr.name == "plain" { // v1 has no scoring options
			endpoints["/v1/score"] = func(s *Server) []core.Outcome {
				out := make([]core.Outcome, len(reqs))
				for i, r := range reqs {
					out[i] = scoreV1(t, s, r).Outcome
				}
				return out
			}
			endpoints["/v1/score/batch"] = func(s *Server) []core.Outcome {
				var resp BatchResponse
				call(t, s, http.MethodPost, "/v1/score/batch", BatchRequest{Pages: reqs}, &resp)
				out := make([]core.Outcome, len(resp.Results))
				for i, r := range resp.Results {
					out[i] = r.Outcome
				}
				return out
			}
		}
		for path, score := range endpoints {
			s := newServer(t, nil)
			for _, phase := range []string{"cold", "warm"} {
				got := score(s)
				if len(got) != len(pages) {
					t.Fatalf("%s %s: %d results, want %d", vr.name, path, len(got), len(pages))
				}
				for i := range got {
					check(path+"/"+phase, i, got[i])
				}
			}
		}
	}

	// The feed drain, scored through a memo shared with the server the
	// way kpserve wires it, with the drift hook's vector capture on. The
	// second pass is a re-crawl: every verdict is a table hit.
	memo := coalesce.New(0)
	st, err := store.Open(store.Config{Backend: store.BackendMemory})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	var mu sync.Mutex
	vectors := map[string][]float64{}
	sched, err := feed.New(feed.Config{
		Fetcher:  fetcher,
		Pipeline: pipe,
		Store:    st,
		Workers:  2,
		Score: func(ctx context.Context, pipe *core.Pipeline, req core.ScoreRequest) (core.Verdict, error) {
			v, _, err := memo.Do(ctx, pipe, req, coalesce.CacheDefault)
			return v, err
		},
		OnVerdict: func(snap *webpage.Snapshot, v core.Verdict) {
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := vectors[snap.LandingURL]; ok && !slices.Equal(prev, v.Vector) {
				t.Errorf("feed %s: re-crawl captured a different vector", snap.LandingURL)
			}
			vectors[snap.LandingURL] = v.Vector
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Drain(time.Now().Add(10 * time.Second)) })
	s := newServer(t, func(cfg *Config) { cfg.Feed, cfg.Store, cfg.Memo = sched, st, memo })
	for _, phase := range []string{"cold", "warm"} {
		var fr FeedResponse
		if code := call(t, s, http.MethodPost, "/v1/feed", FeedRequest{URLs: urls}, &fr); code != http.StatusOK || fr.Accepted != len(urls) {
			t.Fatalf("feed %s: status %d, accepted %d of %d", phase, code, fr.Accepted, len(urls))
		}
		if !sched.Wait(time.Now().Add(30 * time.Second)) {
			t.Fatalf("feed %s: ingestion did not finish", phase)
		}
		want := make([]string, len(urls))
		for i, p := range pages[:len(urls)] {
			v, err := pipe.AnalyzeCtx(ctx, core.NewScoreRequest(p))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = outcomeJSON(t, v.Outcome)
		}
		for i, u := range urls {
			rec, ok, err := st.Get(ctx, u)
			if err != nil || !ok {
				t.Fatalf("feed %s: no record for %s (%v)", phase, u, err)
			}
			if got := outcomeJSON(t, rec.Outcome); got != want[i] {
				t.Errorf("feed %s page %d:\n got %s\nwant %s", phase, i, got, want[i])
			}
			if len(vectors[pages[i].LandingURL]) == 0 {
				t.Errorf("feed %s page %d: no captured vector", phase, i)
			}
		}
	}
	if m := s.Metrics(); m.CacheHits != int64(len(urls)) {
		t.Errorf("feed re-crawl: %d verdict-table hits, want %d", m.CacheHits, len(urls))
	}
}

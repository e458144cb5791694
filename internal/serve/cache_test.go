package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"knowphish/internal/webpage"
)

// page is a small raw-HTML page with its own landing URL.
func page(i int) PageRequest {
	return PageRequest{
		HTML:       fmt.Sprintf("<title>page %d</title><body>content %d</body>", i, i),
		LandingURL: fmt.Sprintf("http://host%d.test/", i),
	}
}

// scoreV1 posts one page to /v1/score.
func scoreV1(t *testing.T, s *Server, p PageRequest) ScoreResponse {
	t.Helper()
	var resp ScoreResponse
	if code := call(t, s, http.MethodPost, "/v1/score", p, &resp); code != http.StatusOK {
		t.Fatalf("score: status = %d", code)
	}
	return resp
}

// TestCacheGetPut pins the verdict table's basic contract through the
// server: a miss scores and stores, a repeat hits with the same
// outcome, and a refresh overwrites in place.
func TestCacheGetPut(t *testing.T) {
	s := newServer(t, nil)
	p := page(1)
	first := scoreV1(t, s, p)
	second := scoreV1(t, s, p)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", first.Cached, second.Cached)
	}
	if first.Outcome.Score != second.Outcome.Score || first.FinalPhish != second.FinalPhish {
		t.Errorf("hit %+v differs from the stored outcome %+v", second.Outcome, first.Outcome)
	}
	var ref V2ScoreResponse
	call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{PageRequest: p, ScoreOptions: ScoreOptions{CacheControl: "refresh"}}, &ref)
	if m := s.Metrics(); m.CacheEntries != 1 || m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("entries/hits/misses = %d/%d/%d, want 1/1/1", m.CacheEntries, m.CacheHits, m.CacheMisses)
	}
}

// TestCacheVersionStaleness pins the hot-swap contract: entries scored
// by an older model read as misses for the new one, and the fresh
// verdict takes the slot over.
func TestCacheVersionStaleness(t *testing.T) {
	_, d := fixtures(t)
	s := newServer(t, nil)
	p := page(2)
	old := d.Version()
	t.Cleanup(func() { d.SetVersion(old) })
	d.SetVersion("v0001")
	scoreV1(t, s, p)
	d.SetVersion("v0002")
	if scoreV1(t, s, p).Cached {
		t.Error("stale-model entry served as a hit")
	}
	if !scoreV1(t, s, p).Cached {
		t.Error("post-swap verdict was not stored")
	}
	d.SetVersion("v0001")
	if scoreV1(t, s, p).Cached {
		t.Error("overwritten entry still serves the old version")
	}
	if m := s.Metrics(); m.CacheEntries != 1 {
		t.Errorf("entries = %d, want 1 (overwrite, not duplicate)", m.CacheEntries)
	}
}

// TestCacheIgnoresEmptyKey pins that pages without a landing URL never
// enter the verdict table and touch none of its counters.
func TestCacheIgnoresEmptyKey(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	snap := *c.PhishTest.Examples[0].Snapshot
	snap.LandingURL = ""
	for i := 0; i < 2; i++ {
		if scoreV1(t, s, PageRequest{Snapshot: &snap}).Cached {
			t.Fatal("page without a landing URL served from the verdict table")
		}
	}
	if m := s.Metrics(); m.CacheEntries != 0 || m.CacheHits+m.CacheMisses != 0 {
		t.Errorf("entries %d, lookups %d; want 0, 0", m.CacheEntries, m.CacheHits+m.CacheMisses)
	}
}

func TestCacheEviction(t *testing.T) {
	// Capacity 16 is one entry per shard; the table evicts within each
	// shard and never grows past it.
	s := newServer(t, func(cfg *Config) { cfg.CacheSize = 16 })
	for i := 0; i < 80; i++ {
		scoreV1(t, s, page(i))
	}
	if m := s.Metrics(); m.CacheEntries > 16 || m.CacheEvictions == 0 {
		t.Errorf("entries %d, evictions %d; want <= 16 and > 0", m.CacheEntries, m.CacheEvictions)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// Two entries per shard; find three pages whose keys share a shard.
	s := newServer(t, func(cfg *Config) { cfg.CacheSize = 32 })
	shard := func(p PageRequest) uint64 {
		snap, err := p.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return webpage.ContentKey(snap).Lo & 15
	}
	var pages []PageRequest
	want := shard(page(0))
	for i := 0; len(pages) < 3; i++ {
		if p := page(i); shard(p) == want {
			pages = append(pages, p)
		}
	}
	scoreV1(t, s, pages[0])
	scoreV1(t, s, pages[1])
	// Touch pages[0] so pages[1] is the least recently used entry.
	scoreV1(t, s, pages[0])
	scoreV1(t, s, pages[2])
	if !scoreV1(t, s, pages[0]).Cached {
		t.Error("recently used entry was evicted")
	}
	if scoreV1(t, s, pages[1]).Cached {
		t.Error("least recently used entry survived")
	}
}

func TestCacheConcurrent(t *testing.T) {
	s := newServer(t, func(cfg *Config) { cfg.CacheSize = 32 })
	want := make([]float64, 50)
	for i := range want {
		want[i] = scoreV1(t, newServer(t, nil), page(i)).Outcome.Score
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				n := (w*7 + i) % 50
				var resp ScoreResponse
				if code := call(t, s, http.MethodPost, "/v1/score", page(n), &resp); code != http.StatusOK {
					t.Errorf("status = %d", code)
					return
				}
				if resp.Outcome.Score != want[n] {
					t.Errorf("page %d: score %v, want %v", n, resp.Outcome.Score, want[n])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m := s.Metrics(); m.CacheEntries > 32 {
		t.Errorf("table overgrew: %d entries", m.CacheEntries)
	}
}

// TestGetBytesMatchesGet pins that the batch path, which keys pages
// while resolving them, and the single-page path use the same page key:
// a verdict stored by one is a hit for the other, both ways.
func TestGetBytesMatchesGet(t *testing.T) {
	s := newServer(t, nil)
	var batch BatchResponse
	call(t, s, http.MethodPost, "/v1/score/batch", BatchRequest{Pages: []PageRequest{page(1)}}, &batch)
	if !scoreV1(t, s, page(1)).Cached {
		t.Error("single-page request missed a verdict the batch path stored")
	}
	scoreV1(t, s, page(2))
	call(t, s, http.MethodPost, "/v1/score/batch", BatchRequest{Pages: []PageRequest{page(2)}}, &batch)
	if !batch.Results[0].Cached {
		t.Error("batch request missed a verdict the single-page path stored")
	}
}

package coalesce

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/dataset"
	"knowphish/internal/ml"
	"knowphish/internal/racecheck"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

var (
	setupOnce sync.Once
	setupCorp *dataset.Corpus
	setupPipe *core.Pipeline
	setupErr  error
)

// fixtures builds one shared corpus + pipeline for every test.
func fixtures(t testing.TB) (*dataset.Corpus, *core.Pipeline) {
	t.Helper()
	setupOnce.Do(func() {
		setupCorp, setupErr = dataset.Build(dataset.Config{
			Seed:              61,
			Scale:             100,
			World:             webgen.Config{Seed: 62, Brands: 60, RankedGenerics: 60, VocabularyWords: 100},
			SkipLanguageTests: true,
		})
		if setupErr != nil {
			return
		}
		snaps := append(setupCorp.LegTrain.Snapshots(), setupCorp.PhishTrain.Snapshots()...)
		labels := append(setupCorp.LegTrain.Labels(), setupCorp.PhishTrain.Labels()...)
		var d *core.Detector
		d, setupErr = core.Train(snaps, labels, core.TrainConfig{
			Rank: setupCorp.World.Ranking(),
			GBM:  ml.GBMConfig{Trees: 50, MaxDepth: 4, Seed: 3},
		})
		if setupErr != nil {
			return
		}
		d.SetVersion("m1")
		setupPipe = &core.Pipeline{Detector: d, Identifier: target.New(setupCorp.Engine)}
	})
	if setupErr != nil {
		t.Fatalf("fixtures: %v", setupErr)
	}
	return setupCorp, setupPipe
}

func mixedSnaps(t testing.TB, n int) []*webpage.Snapshot {
	t.Helper()
	c, _ := fixtures(t)
	var out []*webpage.Snapshot
	for i := 0; len(out) < n; i++ {
		out = append(out, c.PhishTest.Examples[i%len(c.PhishTest.Examples)].Snapshot)
		if len(out) < n {
			out = append(out, c.LegTrain.Examples[i%len(c.LegTrain.Examples)].Snapshot)
		}
	}
	return out
}

// TestDoMatchesAnalyzeCtx pins the memo, cold and warm, to per-request
// AnalyzeCtx outcomes.
func TestDoMatchesAnalyzeCtx(t *testing.T) {
	_, pipe := fixtures(t)
	m := New(0)
	ctx := context.Background()
	snaps := mixedSnaps(t, 20)
	for round := 0; round < 3; round++ { // round 0 cold, 1-2 warm
		for i, snap := range snaps {
			got, cached, err := m.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault)
			if err != nil {
				t.Fatalf("round %d snap %d: %v", round, i, err)
			}
			want, err := pipe.AnalyzeCtx(ctx, core.NewScoreRequest(snap))
			if err != nil {
				t.Fatal(err)
			}
			if !outcomeEqual(got.Outcome, want.Outcome) || got.Label != want.Label {
				t.Fatalf("round %d snap %d: memo %+v != direct %+v", round, i, got.Outcome, want.Outcome)
			}
			if got.ContentFingerprint == "" {
				t.Fatalf("round %d snap %d: no content fingerprint", round, i)
			}
			if cached != (round > 0) {
				t.Fatalf("round %d snap %d: cached = %v", round, i, cached)
			}
		}
	}
	if st := m.Snapshot(); st.Verdict.Hits != 40 || st.Analysis.Misses != 20 {
		t.Fatalf("warm rounds: %+v, want 40 verdict hits and 20 analysis misses", st)
	}
}

// outcomeEqual compares outcomes bit for bit, target result included.
func outcomeEqual(a, b core.Outcome) bool {
	return a.Score == b.Score && a.DetectorPhish == b.DetectorPhish && a.TargetRun == b.TargetRun &&
		a.FinalPhish == b.FinalPhish && reflect.DeepEqual(a.Target, b.Target)
}

// TestFingerprintStableAcrossPaths pins that the fingerprint is the
// page key: same page, any cache-control, any temperature — one value.
func TestFingerprintStableAcrossPaths(t *testing.T) {
	_, pipe := fixtures(t)
	m := New(0)
	ctx := context.Background()
	snap := mixedSnaps(t, 1)[0]
	want := Fingerprint(webpage.ContentKey(snap))
	for _, cc := range []CacheControl{CacheDefault, CacheNoMemo, CacheRefresh, CacheDefault} {
		v, _, err := m.Do(ctx, pipe, core.NewScoreRequest(snap), cc)
		if err != nil {
			t.Fatal(err)
		}
		if v.ContentFingerprint != want {
			t.Fatalf("%v: fingerprint %q, want %q", cc, v.ContentFingerprint, want)
		}
	}
}

// positive returns a corpus page the fixture detector flags, so target
// identification runs on it.
func positive(t *testing.T) *webpage.Snapshot {
	t.Helper()
	c, pipe := fixtures(t)
	for _, ex := range c.PhishTest.Examples {
		v, err := pipe.AnalyzeCtx(context.Background(), core.NewScoreRequest(ex.Snapshot))
		if err != nil {
			t.Fatal(err)
		}
		if v.TargetRun {
			return ex.Snapshot
		}
	}
	t.Fatal("no detector positive in the corpus")
	return nil
}

// TestCacheControlSemantics pins the memo's read and write rules for
// every combination of cache_control, explain, skip_target and vector
// capture. Reads are observed against tables warmed by a default
// request; writes against empty tables.
func TestCacheControlSemantics(t *testing.T) {
	_, pipe := fixtures(t)
	ctx := context.Background()
	snap := positive(t)
	key := webpage.ContentKey(snap)
	want, err := pipe.AnalyzeCtx(ctx, core.NewScoreRequest(snap, core.WithVectorCapture()))
	if err != nil {
		t.Fatal(err)
	}

	for _, cc := range []CacheControl{CacheDefault, CacheNoMemo, CacheRefresh} {
		for _, explain := range []bool{false, true} {
			for _, skip := range []bool{false, true} {
				for _, capture := range []bool{false, true} {
					var opts []core.ScoreOption
					if explain {
						opts = append(opts, core.WithExplain(core.ExplainTop))
					}
					if skip {
						opts = append(opts, core.WithoutTargetID())
					}
					if capture {
						opts = append(opts, core.WithVectorCapture())
					}
					req := core.NewScoreRequest(snap, opts...)
					name := fmt.Sprintf("%v/explain=%v/skip=%v/capture=%v", cc, explain, skip, capture)
					readsVerdict := cc == CacheDefault && !explain
					readsAnalysis := cc == CacheDefault
					writesVerdict := cc != CacheNoMemo && !skip
					writesAnalysis := cc != CacheNoMemo

					warm := New(0)
					if _, _, err := warm.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault); err != nil {
						t.Fatal(err)
					}
					before := warm.Snapshot().Analysis
					v, cached, err := warm.Do(ctx, pipe, req, cc)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if cached != readsVerdict {
						t.Errorf("%s: cached = %v, want %v", name, cached, readsVerdict)
					}
					if !cached {
						memo := v.Memo != nil && v.Memo.Analysis == core.ProvMemo
						if memo != readsAnalysis {
							t.Errorf("%s: analysis from memo = %v, want %v", name, memo, readsAnalysis)
						}
					}
					if v.Score != want.Score || (!skip || cached) && !outcomeEqual(v.Outcome, want.Outcome) {
						t.Errorf("%s: outcome %+v, want %+v", name, v.Outcome, want.Outcome)
					}
					if capture && !slices.Equal(v.Vector, want.Vector) {
						t.Errorf("%s: captured vector differs from the cold extraction", name)
					}
					if cached && capture {
						// The new case: a verdict-table hit extracts the
						// vector from the memoized analysis and never
						// reruns identification.
						after := warm.Snapshot().Analysis
						if after.Hits != before.Hits+1 || after.Misses != before.Misses {
							t.Errorf("%s: vector not extracted from the memoized analysis: %+v -> %+v", name, before, after)
						}
						if v.Timings.TargetNS != 0 || v.Timings.AnalyzeNS != 0 {
							t.Errorf("%s: hit reran stages: %+v", name, v.Timings)
						}
					}

					cold := New(0)
					if _, _, err := cold.Do(ctx, pipe, req, cc); err != nil {
						t.Fatal(err)
					}
					st := cold.Snapshot()
					if got := st.Verdict.Entries == 1; got != writesVerdict {
						t.Errorf("%s: wrote verdict = %v, want %v", name, got, writesVerdict)
					}
					if got := st.Analysis.Entries == 1; got != writesAnalysis {
						t.Errorf("%s: wrote analysis = %v, want %v", name, got, writesAnalysis)
					}
					if e, ok := cold.verdict.Get(key); ok && e.fp != Fingerprint(key) {
						t.Errorf("%s: verdict entry carries fingerprint %q", name, e.fp)
					}
				}
			}
		}
	}
}

// TestInvalidateModelOnPromotion pins the promotion contract: the
// verdict table flushes, the analysis table survives, and post-promote
// verdicts come from the new champion on the memoized analyses.
func TestInvalidateModelOnPromotion(t *testing.T) {
	_, pipe := fixtures(t)
	ctx := context.Background()
	m := New(0)
	snaps := mixedSnaps(t, 8)
	for _, snap := range snaps {
		if _, _, err := m.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Snapshot()
	if before.Verdict.Entries == 0 || before.Analysis.Entries == 0 {
		t.Fatalf("fixture produced empty tables: %+v", before)
	}

	pipe2 := secondPipeline(t)
	m.InvalidateModel()
	after := m.Snapshot()
	if after.Verdict.Entries != 0 {
		t.Fatalf("promotion left %d verdict entries, want 0", after.Verdict.Entries)
	}
	if after.Analysis.Entries != before.Analysis.Entries {
		t.Fatalf("promotion flushed analyses: %d -> %d", before.Analysis.Entries, after.Analysis.Entries)
	}

	for i, snap := range snaps {
		got, cached, err := m.Do(ctx, pipe2, core.NewScoreRequest(snap), CacheDefault)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipe2.AnalyzeCtx(ctx, core.NewScoreRequest(snap))
		if err != nil {
			t.Fatal(err)
		}
		if !outcomeEqual(got.Outcome, want.Outcome) || got.ModelVersion != "m2" {
			t.Fatalf("snap %d: post-promotion %+v (model %s) != direct %+v", i, got.Outcome, got.ModelVersion, want.Outcome)
		}
		if cached {
			t.Fatalf("snap %d: stale verdict survived promotion", i)
		}
		if got.Memo == nil || got.Memo.Analysis != core.ProvMemo || got.Timings.AnalyzeNS != 0 {
			t.Fatalf("snap %d: analysis memo did not survive promotion (memo %+v)", i, got.Memo)
		}
	}
}

// secondPipeline trains a second champion ("m2") on the fixture corpus.
func secondPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	corp, pipe := fixtures(t)
	snaps := append(corp.LegTrain.Snapshots(), corp.PhishTrain.Snapshots()...)
	labels := append(corp.LegTrain.Labels(), corp.PhishTrain.Labels()...)
	d2, err := core.Train(snaps, labels, core.TrainConfig{
		Rank: corp.World.Ranking(),
		GBM:  ml.GBMConfig{Trees: 30, MaxDepth: 3, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	d2.SetVersion("m2")
	return &core.Pipeline{Detector: d2, Identifier: pipe.Identifier}
}

// TestVersionStampBlocksStaleReads covers the race the flush cannot: an
// entry written under the old version must miss under the new one even
// if InvalidateModel was never called.
func TestVersionStampBlocksStaleReads(t *testing.T) {
	_, pipe := fixtures(t)
	ctx := context.Background()
	m := New(0)
	snap := mixedSnaps(t, 1)[0]
	if _, _, err := m.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault); err != nil {
		t.Fatal(err)
	}
	d := pipe.Detector
	old := d.Version()
	d.SetVersion("stamp-check")
	defer d.SetVersion(old)
	v, cached, err := m.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault)
	if err != nil {
		t.Fatal(err)
	}
	if cached || v.ModelVersion != "stamp-check" {
		t.Fatal("verdict memoized under the old version hit under the new one")
	}
	if st := m.Snapshot().Verdict; st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("verdict counters %+v, want the stale entry counted as a miss", st)
	}
}

// TestDeadlinePropagation pins that one request's expired deadline
// produces its own error and never touches concurrent requests.
func TestDeadlinePropagation(t *testing.T) {
	_, pipe := fixtures(t)
	m := New(0)
	snaps := mixedSnaps(t, 6)

	var wg sync.WaitGroup
	errs := make([]error, len(snaps))
	for i, snap := range snaps {
		wg.Add(1)
		go func(i int, snap *webpage.Snapshot) {
			defer wg.Done()
			var opts []core.ScoreOption
			if i == 0 {
				// A deadline that has certainly expired before scoring.
				opts = append(opts, core.WithDeadline(time.Nanosecond))
			}
			_, _, errs[i] = m.Do(context.Background(), pipe, core.NewScoreRequest(snap, opts...), CacheDefault)
		}(i, snap)
	}
	wg.Wait()
	if !errors.Is(errs[0], context.DeadlineExceeded) {
		t.Fatalf("expired item's error = %v, want DeadlineExceeded", errs[0])
	}
	for i := 1; i < len(errs); i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent request %d inherited an error: %v", i, errs[i])
		}
	}
	if n := m.Snapshot().Verdict.Entries; n != len(snaps)-1 {
		t.Fatalf("verdict entries = %d, want %d (the failed request wrote nothing)", n, len(snaps)-1)
	}
}

// TestConcurrentPromoteAndScore hammers Do against concurrent promotion
// flushes and version churn; run under -race this is the memo tables'
// safety net, and every verdict must still come from its own model.
func TestConcurrentPromoteAndScore(t *testing.T) {
	_, pipe := fixtures(t)
	ctx := context.Background()
	m := New(0)
	snaps := mixedSnaps(t, 16)
	pipes := []*core.Pipeline{pipe, secondPipeline(t)}

	want := make(map[string][2]float64, len(snaps))
	for _, snap := range snaps {
		v1, err := pipes[0].AnalyzeCtx(ctx, core.NewScoreRequest(snap))
		if err != nil {
			t.Fatal(err)
		}
		v2, err := pipes[1].AnalyzeCtx(ctx, core.NewScoreRequest(snap))
		if err != nil {
			t.Fatal(err)
		}
		want[snap.LandingURL] = [2]float64{v1.Score, v2.Score}
	}

	stop := make(chan struct{})
	var promoter sync.WaitGroup
	promoter.Add(1)
	go func() {
		defer promoter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.InvalidateModel()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	const workers = 8
	var wg sync.WaitGroup
	fail := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				mi := (w + round) % 2
				snap := snaps[(w*7+round)%len(snaps)]
				v, _, err := m.Do(ctx, pipes[mi], core.NewScoreRequest(snap), CacheDefault)
				if err != nil {
					fail <- err.Error()
					return
				}
				if v.Score != want[snap.LandingURL][mi] {
					fail <- "score under model " + v.ModelVersion + " diverged (stale memo?)"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	promoter.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestNilCoalescerDegradesToDirect pins the nil receiver contract: a
// nil memo scores directly and never reports a hit.
func TestNilCoalescerDegradesToDirect(t *testing.T) {
	_, pipe := fixtures(t)
	var m *Memo
	snap := mixedSnaps(t, 1)[0]
	got, cached, err := m.Do(context.Background(), pipe, core.NewScoreRequest(snap), CacheDefault)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipe.AnalyzeCtx(context.Background(), core.NewScoreRequest(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || cached {
		t.Fatalf("nil memo: score %v cached %v, want direct %v", got.Score, cached, want.Score)
	}
	m.InvalidateModel() // must not panic
	if m.Enabled() || m.Snapshot() != (Stats{}) {
		t.Fatal("nil memo reported tables")
	}
	// A disabled memo behaves like no-memo but keeps the fingerprint.
	off := New(-1)
	for i := 0; i < 2; i++ {
		v, cached, err := off.Do(context.Background(), pipe, core.NewScoreRequest(snap), CacheDefault)
		if err != nil || cached || v.ContentFingerprint == "" {
			t.Fatalf("disabled memo: cached=%v fp=%q err=%v", cached, v.ContentFingerprint, err)
		}
	}
}

// TestExplainBypass pins that explain requests are never answered from
// the verdict table — a cached outcome has no evidence — yet produce
// full verdicts and refresh the table for later plain requests.
func TestExplainBypass(t *testing.T) {
	_, pipe := fixtures(t)
	m := New(0)
	ctx := context.Background()
	snap := mixedSnaps(t, 1)[0]
	explain := core.NewScoreRequest(snap, core.WithExplain(core.ExplainTop))
	for i := 0; i < 2; i++ {
		v, cached, err := m.Do(ctx, pipe, explain, CacheDefault)
		if err != nil {
			t.Fatal(err)
		}
		if cached || v.Explanation == nil || len(v.Explanation.Contributions) == 0 {
			t.Fatalf("explain request %d: cached=%v, explanation %+v", i, cached, v.Explanation)
		}
	}
	if _, cached, err := m.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault); err != nil || !cached {
		t.Fatalf("plain request after explain: cached=%v err=%v, want a verdict-table hit", cached, err)
	}
}

// TestWarmPathZeroAllocs pins the steady-state cost of a verdict-table
// hit: content hash, one table lookup, verdict assembly — zero heap
// allocations.
func TestWarmPathZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, pipe := fixtures(t)
	m := New(0)
	ctx := context.Background()
	snap := mixedSnaps(t, 1)[0]
	req := core.NewScoreRequest(snap)
	if _, _, err := m.Do(ctx, pipe, req, CacheDefault); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(300, func() {
		v, cached, err := m.Do(ctx, pipe, req, CacheDefault)
		if err != nil {
			t.Fatal(err)
		}
		if v.ContentFingerprint == "" || !cached {
			t.Fatal("warm request missed the verdict table")
		}
	})
	if allocs != 0 {
		t.Fatalf("verdict-table hit allocated %.1f times per run, want 0", allocs)
	}
}

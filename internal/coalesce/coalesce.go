// Package coalesce memoizes scoring by page identity.
//
// Two sharded LRU tables are keyed by webpage.ContentKey, the 128-bit
// XXH64 key over a page's landing URL and content:
//
//   - the verdict table holds finished outcomes, each stamped with the
//     model version that produced it and the page's hex key (the v2
//     ETag's content half). Hits are version-gated, and the table is
//     flushed when a new champion is promoted;
//   - the analysis table holds page analyses. Analysis is
//     model-independent, so these entries survive promotion.
//
// A verdict-table miss scores through core.Pipeline.AnalyzeCtx, with a
// memoized analysis supplied by core.WithAnalysis: the core stage
// machine is the only one. The package name is historical; nothing is
// batched across requests.
package coalesce

import (
	"context"
	"encoding/hex"
	"errors"

	"knowphish/internal/core"
	"knowphish/internal/webpage"
)

// CacheControl selects how one request interacts with the memo tables.
type CacheControl uint8

const (
	// CacheDefault reads and writes the memo tables.
	CacheDefault CacheControl = iota
	// CacheNoMemo neither reads nor writes: the request computes every
	// stage and leaves no trace.
	CacheNoMemo
	// CacheRefresh recomputes every stage and overwrites the memos —
	// write-only, the forced-revalidation mode.
	CacheRefresh
)

// String returns the wire name used by the v2 API's cache_control field.
func (cc CacheControl) String() string {
	switch cc {
	case CacheNoMemo:
		return "no-memo"
	case CacheRefresh:
		return "refresh"
	default:
		return "default"
	}
}

// ParseCacheControl parses a wire cache-control value ("" parses as
// CacheDefault so absent request fields need no special-casing).
func ParseCacheControl(s string) (CacheControl, error) {
	switch s {
	case "", "default":
		return CacheDefault, nil
	case "no-memo":
		return CacheNoMemo, nil
	case "refresh":
		return CacheRefresh, nil
	default:
		return CacheDefault, errors.New("coalesce: unknown cache_control " + s + " (want default, no-memo or refresh)")
	}
}

// DefaultEntries is each table's capacity when New is given 0.
const DefaultEntries = 1 << 16

// Stats is a point-in-time snapshot of the memo tables. The serving
// layer exports the verdict table as its cache_* counters, so only the
// analysis table appears under this document's own JSON name.
type Stats struct {
	Verdict  TableStats `json:"-"`
	Analysis TableStats `json:"analysis"`
}

// verdictEntry is one memoized outcome. fp is the hex form of the key,
// kept so warm requests reuse one string instead of re-encoding it.
type verdictEntry struct {
	out core.Outcome
	ver string
	fp  string
}

// analysisEntry is one memoized page analysis.
type analysisEntry struct {
	a  *webpage.Analysis
	fp string
}

// Memo is the verdict table and the analysis table. Build one with New.
// A nil *Memo is valid: Do then scores every request directly.
type Memo struct {
	verdict  *memoTable[verdictEntry]
	analysis *memoTable[analysisEntry]
}

// New builds a Memo whose tables hold entries each (0 = DefaultEntries).
// A negative size disables both tables: every request then behaves as
// CacheNoMemo, still carrying its content fingerprint.
func New(entries int) *Memo {
	if entries == 0 {
		entries = DefaultEntries
	}
	return &Memo{
		verdict:  newMemoTable[verdictEntry](entries),
		analysis: newMemoTable[analysisEntry](entries),
	}
}

// Fingerprint returns the hex form of a content key, as exposed in
// Verdict.ContentFingerprint and the v2 ETag.
func Fingerprint(k webpage.Key128) string {
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(k.Hi >> (56 - 8*i))
		b[8+i] = byte(k.Lo >> (56 - 8*i))
	}
	return hex.EncodeToString(b[:])
}

// page returns the snapshot a request scores (nil when it has none).
func page(req *core.ScoreRequest) *webpage.Snapshot {
	if req.Snapshot != nil {
		return req.Snapshot
	}
	if a := req.PrecomputedAnalysis(); a != nil {
		return a.Snap
	}
	return nil
}

// Do scores one request through the memo tables and reports whether
// the verdict was served whole from the verdict table. The verdict's
// Outcome is identical to what pipe.AnalyzeCtx produces, and it always
// carries ContentFingerprint. A computed verdict also carries its
// per-stage provenance in Verdict.Memo.
//
// The read and write rules:
//   - CacheNoMemo touches neither table; CacheRefresh writes both and
//     reads neither; CacheDefault reads and writes both.
//   - Explain requests never read the verdict table (a cached outcome
//     has no evidence) but still write it.
//   - skip_target requests read the verdict table but never write it:
//     their verdicts lack the false-positive-removal pass.
//   - Pages without a landing URL never enter the verdict table, and
//     feature-masked requests are treated as CacheNoMemo (an ablated
//     score is not the page's verdict).
//   - A verdict-table hit on a vector-capture request extracts the
//     vector from the memoized analysis; identification never reruns.
func (m *Memo) Do(ctx context.Context, pipe *core.Pipeline, req core.ScoreRequest, cc CacheControl) (core.Verdict, bool, error) {
	if snap := page(&req); m != nil && snap != nil {
		return m.DoKey(ctx, pipe, req, cc, webpage.ContentKey(snap))
	}
	v, err := pipe.AnalyzeCtx(ctx, req)
	return v, false, err
}

// DoKey is Do for a caller that already holds the page's content key
// (the v1 batch path, which dedupes on it).
func (m *Memo) DoKey(ctx context.Context, pipe *core.Pipeline, req core.ScoreRequest, cc CacheControl, key webpage.Key128) (core.Verdict, bool, error) {
	snap := page(&req)
	if m == nil || snap == nil {
		v, err := pipe.AnalyzeCtx(ctx, req)
		return v, false, err
	}
	if req.FeatureMask() != 0 {
		cc = CacheNoMemo
	}
	useVerdicts := cc != CacheNoMemo && snap.LandingURL != ""
	if useVerdicts && cc == CacheDefault && !req.Explains() {
		ver := pipe.Detector.Version()
		e, ok := m.verdict.Get(key)
		ok = ok && e.ver == ver
		m.verdict.record(ok)
		if ok {
			v := core.MakeVerdict(e.out, pipe.Detector.Threshold())
			v.ModelVersion, v.ContentFingerprint = ver, e.fp
			if req.CapturesVector() {
				vec, err := m.vector(ctx, pipe, snap, key, e.fp)
				if err != nil {
					return core.Verdict{}, false, err
				}
				v.Vector = vec
			}
			return v, true, nil
		}
	}

	prov := core.MemoProvenance{Analysis: core.ProvComputed}
	var fp string
	if req.PrecomputedAnalysis() == nil && cc == CacheDefault {
		e, ok := m.analysis.Get(key)
		m.analysis.record(ok)
		if ok {
			req = withAnalysis(req, e.a)
			fp, prov.Analysis = e.fp, core.ProvMemo
		}
	}
	v, err := pipe.AnalyzeCtx(ctx, req)
	if err != nil {
		return v, false, err
	}
	if fp == "" {
		fp = Fingerprint(key)
	}
	v.ContentFingerprint = fp
	if cc != CacheNoMemo {
		if prov.Analysis == core.ProvComputed {
			m.analysis.Put(key, analysisEntry{a: v.Analysis(), fp: fp})
		}
		if useVerdicts && !req.SkipsTarget() {
			m.verdict.Put(key, verdictEntry{out: v.Outcome, ver: v.ModelVersion, fp: fp})
		}
	}
	prov.Features, prov.Score = core.ProvComputed, core.ProvComputed
	if v.TargetRun {
		prov.Target = core.ProvComputed
	}
	v.Memo = &prov
	return v, false, nil
}

// vector extracts the feature vector of a page whose verdict was a
// table hit, from the memoized analysis when there is one. Detector-only
// scoring (ScoreCtx) never runs target identification.
func (m *Memo) vector(ctx context.Context, pipe *core.Pipeline, snap *webpage.Snapshot, key webpage.Key128, fp string) ([]float64, error) {
	req := core.NewScoreRequest(snap, core.WithVectorCapture())
	e, ok := m.analysis.Get(key)
	m.analysis.record(ok)
	if ok {
		req = withAnalysis(req, e.a)
	}
	v, err := pipe.Detector.ScoreCtx(ctx, req)
	if err != nil {
		return nil, err
	}
	if !ok {
		m.analysis.Put(key, analysisEntry{a: v.Analysis(), fp: fp})
	}
	return v.Vector, nil
}

// withAnalysis returns req carrying a precomputed analysis. It is a
// separate function so that taking the request's address here does not
// move Do's own request onto the heap on the warm path.
func withAnalysis(req core.ScoreRequest, a *webpage.Analysis) core.ScoreRequest {
	core.WithAnalysis(a)(&req)
	return req
}

// Enabled reports whether the tables exist (New was not given a
// negative size).
func (m *Memo) Enabled() bool { return m != nil && m.verdict != nil }

// InvalidateModel flushes the verdict table — the promotion hook. The
// analysis table is model-independent and survives. Verdict entries are
// also version-stamped, so a write racing the flush cannot serve a
// stale outcome under the new champion.
func (m *Memo) InvalidateModel() {
	if m == nil {
		return
	}
	m.verdict.Flush()
}

// Snapshot returns the tables' current counters.
func (m *Memo) Snapshot() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{Verdict: m.verdict.stats(), Analysis: m.analysis.stats()}
}

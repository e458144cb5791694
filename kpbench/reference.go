package main

import (
	"context"
	"fmt"

	"knowphish/internal/core"
	"knowphish/internal/dataset"
	"knowphish/internal/features"
	"knowphish/internal/ml"
	"knowphish/internal/search"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// kpserve's shipped self-train defaults (-seed, -scale). The reference
// below must train exactly what kpserve trains with no flags; if the
// server's defaults or its training recipe change and this copy does
// not, every verdict comparison fails — which is the point.
const (
	serverSeed  = 1
	serverScale = 25
)

// reference is the in-process pipeline the benchmark checks kpserve's
// verdicts against, and the substrate of the traced run.
type reference struct {
	world  *webgen.World
	engine *search.Engine
	det    *core.Detector
	ext    features.Extractor
	id     *target.Identifier
	pipe   *core.Pipeline
}

// buildReference repeats kpserve's self-train path: the same corpus
// (world seed = server seed + 1) and the same GBM recipe.
func buildReference() (*reference, error) {
	corpus, err := dataset.Build(dataset.Config{
		Seed:              serverSeed,
		Scale:             serverScale,
		World:             webgen.Config{Seed: serverSeed + 1},
		SkipLanguageTests: true,
	})
	if err != nil {
		return nil, fmt.Errorf("building reference corpus: %w", err)
	}
	snaps := append(corpus.LegTrain.Snapshots(), corpus.PhishTrain.Snapshots()...)
	labels := append(corpus.LegTrain.Labels(), corpus.PhishTrain.Labels()...)
	det, err := core.Train(snaps, labels, core.TrainConfig{
		GBM:  ml.GBMConfig{Trees: 100, MaxDepth: 4, Subsample: 0.8, MinLeaf: 5, Seed: serverSeed + 2},
		Rank: corpus.World.Ranking(),
	})
	if err != nil {
		return nil, fmt.Errorf("training reference detector: %w", err)
	}
	id := target.New(corpus.Engine)
	return &reference{
		world:  corpus.World,
		engine: corpus.Engine,
		det:    det,
		ext:    features.Extractor{Rank: corpus.World.Ranking()},
		id:     id,
		pipe:   &core.Pipeline{Detector: det, Identifier: id},
	}, nil
}

// verdict runs the full pipeline on one snapshot.
func (r *reference) verdict(snap *webpage.Snapshot) (core.Verdict, error) {
	return r.pipe.AnalyzeCtx(context.Background(), core.NewScoreRequest(snap))
}

// call is the part of a verdict the correctness check compares: the
// label, the exact score and the top identified target.
type call struct {
	label  string
	score  float64
	target string
}

func callOf(o core.Outcome) call {
	c := call{label: core.LabelLegitimate, score: o.Score, target: topTarget(o)}
	if o.FinalPhish {
		c.label = core.LabelPhishing
	}
	return c
}

// topTarget is the first-ranked candidate of a phish identification, ""
// otherwise — the same rule the feed uses for store.Record.Target.
func topTarget(o core.Outcome) string {
	if o.TargetRun && o.Target.Verdict == target.VerdictPhish && len(o.Target.Candidates) > 0 {
		return o.Target.Candidates[0].RDN
	}
	return ""
}

// quality tallies verdicts against webgen ground truth.
type quality struct {
	phish, phishCaught, phishTop1 int
	legit, legitFlagged           int
}

func (q *quality) add(p *page, c call) {
	if p.phish {
		q.phish++
		if c.label == core.LabelPhishing {
			q.phishCaught++
			if c.target == p.targetRDN {
				q.phishTop1++
			}
		}
		return
	}
	q.legit++
	if c.label == core.LabelPhishing {
		q.legitFlagged++
	}
}

// accuracy is the share of pages whose verdict is right in full: a
// legit page labelled legitimate, or a phish labelled phishing with its
// true target ranked first.
func (q *quality) accuracy() float64 {
	return ratio(float64(q.phishTop1+q.legit-q.legitFlagged), float64(q.phish+q.legit))
}

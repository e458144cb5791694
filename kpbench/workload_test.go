package main

import (
	"bytes"
	"testing"

	"knowphish/internal/webgen"
)

// The benchmark's inputs are a function of --seed alone: the same seed
// must give byte-identical request bodies, in the same order.
func TestSameSeedSameBodies(t *testing.T) {
	w := webgen.New(webgen.Config{Seed: serverSeed + 1})
	for _, wl := range []string{wlSuspect, wlBrowse} {
		a, err := newScoreInputs(w, wl, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newScoreInputs(w, wl, 7)
		if err != nil {
			t.Fatal(err)
		}
		other, err := newScoreInputs(w, wl, 8)
		if err != nil {
			t.Fatal(err)
		}
		const n = 300
		for _, in := range []*scoreInputs{a, b, other} {
			if err := in.ensure(n); err != nil {
				t.Fatal(err)
			}
		}
		differs := false
		for i := 0; i < n; i++ {
			if !bytes.Equal(a.body(i), b.body(i)) {
				t.Fatalf("%s: request %d differs between two generations from seed 7", wl, i)
			}
			differs = differs || !bytes.Equal(a.body(i), other.body(i))
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same %d requests", wl, n)
		}
	}

	a, err := newFeedInputs(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newFeedInputs(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.passURLs() != 280 {
		t.Errorf("feed corpus has %d URLs, want the world's 280 brand URLs", a.passURLs())
	}
	for i := 0; i < a.batchesPerPass(); i++ {
		if !bytes.Equal(a.body(i), b.body(i)) {
			t.Fatalf("feed batch %d differs between two generations from seed 7", i)
		}
	}
}

// score-suspect never repeats a page, so nothing it sends can hit the
// verdict cache or a memo.
func TestSuspectPagesAreDistinct(t *testing.T) {
	w := webgen.New(webgen.Config{Seed: serverSeed + 1})
	in, err := newScoreInputs(w, wlSuspect, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ensure(600); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	phish := 0
	for i := 0; i < 600; i++ {
		body := string(in.body(i))
		if seen[body] {
			t.Fatalf("request %d repeats an earlier page", i)
		}
		seen[body] = true
		if in.pages[in.seq[i]].phish {
			phish++
		}
	}
	if phish != 400 {
		t.Errorf("%d of 600 pages are phish, want two in three", phish)
	}
}

package core_test

// Differential tests for the scan-time SimT accumulator: for every filter
// and every candidate (not just every answer), the similarity the fast path
// reconstructs from membership marks must equal — bit for bit — the value
// the classic sorted-merge intersection computes. Equality must hold even
// for partially-accumulated candidates (grids, interrupted scans), because
// unmarked tokens fall back to membership probes.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/testutil"
)

func TestAccumulatedSimTMatchesCommonWeight(t *testing.T) {
	const datasets = 4
	const queriesPer = 30
	for seed := int64(1); seed <= datasets; seed++ {
		rng := rand.New(rand.NewSource(seed * 101))
		ds, err := testutil.RandomDataset(rng, 150+rng.Intn(150), 40)
		if err != nil {
			t.Fatal(err)
		}
		filters := buildAllFilters(t, ds)
		searchers := make([]*core.Searcher, len(filters))
		for i, f := range filters {
			searchers[i] = core.NewSearcher(ds, f)
		}
		for qi := 0; qi < queriesPer; qi++ {
			q, err := testutil.RandomQuery(rng, ds, 40)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range searchers {
				matches, _ := s.Search(q, nil, 0)
				// Every returned similarity is the fast-path value; pin it
				// against the merge-based SimT exactly.
				for _, m := range matches {
					if want := ds.SimT(q, m.ID); m.SimT != want {
						t.Fatalf("seed %d q%d %s: match %d SimT %v != CommonWeight SimT %v",
							seed, qi, filters[i].Name(), m.ID, m.SimT, want)
					}
				}
				// And every candidate — including ones verification rejected —
				// must reconstruct identically from its (possibly partial)
				// membership marks.
				for _, obj := range s.CandidateIDs() {
					id := model.ObjectID(obj)
					if got, want := s.AccumSimT(q, id), ds.SimT(q, id); got != want {
						t.Fatalf("seed %d q%d %s: candidate %d accum SimT %v != CommonWeight SimT %v (accumulated=%v)",
							seed, qi, filters[i].Name(), id, got, want, s.Accumulated())
					}
				}
			}
		}
	}
}

// TestAccumulatorArming pins which filters arm the accumulator: exact-key
// token and hybrid filters do, grids and hashed buckets (whose postings
// prove nothing about token membership) must not.
func TestAccumulatorArming(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds, err := testutil.RandomDataset(rng, 120, 30)
	if err != nil {
		t.Fatal(err)
	}
	q, err := testutil.RandomQuery(rng, ds, 30)
	if err != nil {
		t.Fatal(err)
	}
	token := core.NewTokenFilter(ds)
	grid, err := core.NewGridFilter(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	hashExact, err := core.NewHybridHashFilter(ds, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	hashBuckets, err := core.NewHybridHashFilter(ds, 16, 127)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := core.NewHierarchicalFilter(ds, core.HierarchicalConfig{MaxLevel: 4, GridBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		f    core.Filter
		want bool
	}{
		{token, true},
		{grid, false},
		{hashExact, true},
		{hashBuckets, false},
		{hier, true},
	}
	for _, c := range cases {
		s := core.NewSearcher(ds, c.f)
		s.Search(q, nil, 0)
		if got := s.Accumulated(); got != c.want {
			t.Errorf("%s: accumulator armed = %v, want %v", c.f.Name(), got, c.want)
		}
	}
}

// TestAccumulatorLargeQueryFallback: a query with more than 64 known tokens
// cannot be tracked in the 64-bit marks, so the searcher must fall back to
// merge-based verification — and still answer exactly.
func TestAccumulatorLargeQueryFallback(t *testing.T) {
	var b model.Builder
	terms := make([]string, 80)
	for i := range terms {
		terms[i] = fmt.Sprintf("w%d", i)
	}
	region := geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if _, err := b.Add(region, terms); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sub := terms[i : i+40]
		r := geo.Rect{MinX: float64(i), MinY: 0, MaxX: float64(i) + 10, MaxY: 10}
		if _, err := b.Add(r, sub); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ds.NewQuery(region, terms, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tokens) != 80 {
		t.Fatalf("query should keep 80 known tokens, got %d", len(q.Tokens))
	}
	s := core.NewSearcher(ds, core.NewTokenFilter(ds))
	matches, _ := s.Search(q, nil, 0)
	if s.Accumulated() {
		t.Fatal("accumulator must stay disarmed beyond 64 tokens")
	}
	want := testutil.BruteForceAnswers(ds, q)
	if len(matches) != len(want) {
		t.Fatalf("%d matches, want %d", len(matches), len(want))
	}
	for i, m := range matches {
		if m.ID != want[i] || m.SimT != ds.SimT(q, m.ID) {
			t.Fatalf("match %d: %+v disagrees with brute force", i, m)
		}
	}
}

// TestCandidateSetEpochWrapClearsAccumulator: wrapping the 32-bit epoch
// sweeps the mark array — the partial-score words must be swept with it, so
// no candidate inherits membership marks from 2^32 resets ago.
func TestCandidateSetEpochWrapClearsAccumulator(t *testing.T) {
	cs := core.NewCandidateSet(8)
	cs.Reset()
	cs.EnableAccum()
	cs.AddAcc(3, 5)
	cs.AddAcc(3, 7)
	if got := cs.AccBits(3); got != 1<<5|1<<7 {
		t.Fatalf("AccBits = %b, want bits 5 and 7", got)
	}

	core.ForceEpochWrap(cs)
	cs.Reset() // wraps: epoch 2^32-1 → sweep → 1
	if cs.Len() != 0 || cs.Contains(3) {
		t.Fatal("wrap must empty the set")
	}
	if got := cs.AccBits(3); got != 0 {
		t.Fatalf("stale AccBits survived the wrap: %b", got)
	}
	if got := core.RawAccBits(cs, 3); got != 0 {
		t.Fatalf("wrap must clear the raw accumulator word, got %b", got)
	}

	// A fresh epoch accumulates from scratch.
	cs.EnableAccum()
	cs.AddAcc(3, 1)
	if got := cs.AccBits(3); got != 1<<1 {
		t.Fatalf("post-wrap AccBits = %b, want only bit 1", got)
	}

	// Plain Add under accumulation also resets the word before use.
	cs.Reset()
	cs.EnableAccum()
	cs.Add(3)
	if got := cs.AccBits(3); got != 0 {
		t.Fatalf("plain Add must clear the word, got %b", got)
	}
	cs.AddAcc(3, 2)
	if got := cs.AccBits(3); got != 1<<2 {
		t.Fatalf("AddAcc after Add = %b, want only bit 2", got)
	}
}

// TestSearcherMatchBufferReuse documents the ownership contract: the slice
// Search returns is reused by the next call on the same searcher, so
// retained results must be copied.
func TestSearcherMatchBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, err := testutil.RandomDataset(rng, 200, 20)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSearcher(ds, core.NewTokenFilter(ds))
	var q *model.Query
	var first []core.Match
	for qi := 0; qi < 50; qi++ {
		cand, err := testutil.RandomQuery(rng, ds, 20)
		if err != nil {
			t.Fatal(err)
		}
		if m, _ := s.Search(cand, nil, 0); len(m) > 0 {
			q, first = cand, m
			break
		}
	}
	if q == nil {
		t.Skip("no query with matches found")
	}
	snapshot := append([]core.Match(nil), first...)
	again, _ := s.Search(q, nil, 0)
	if &again[0] != &first[0] {
		t.Fatal("Search should reuse its match buffer across calls")
	}
	for i := range snapshot {
		if again[i] != snapshot[i] {
			t.Fatalf("re-running the same query changed match %d: %+v vs %+v", i, again[i], snapshot[i])
		}
	}
}

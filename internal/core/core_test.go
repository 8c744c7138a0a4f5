package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/paperdata"
	"github.com/sealdb/seal/internal/testutil"
)

func paperSetup(t *testing.T) (*model.Dataset, *model.Query) {
	t.Helper()
	ds, err := paperdata.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	q, err := paperdata.Query(ds)
	if err != nil {
		t.Fatal(err)
	}
	return ds, q
}

func collect(t *testing.T, f core.Filter, ds *model.Dataset, q *model.Query) ([]model.ObjectID, core.FilterStats) {
	t.Helper()
	cs := core.NewCandidateSet(ds.Len())
	var st core.FilterStats
	cs.Reset()
	f.Collect(q, cs, &st, nil, new(core.Scratch))
	ids := make([]model.ObjectID, 0, cs.Len())
	for _, o := range cs.IDs() {
		ids = append(ids, model.ObjectID(o))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, st
}

func equalIDs(a, b []model.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func subsetOf(sub, super []model.ObjectID) bool {
	set := map[model.ObjectID]bool{}
	for _, id := range super {
		set[id] = true
	}
	for _, id := range sub {
		if !set[id] {
			return false
		}
	}
	return true
}

// TestPaperExample2TokenFilter reproduces Example 2 / Figure 4: with
// cT = 0.57, the textual candidates are exactly {o1, o2, o3, o4, o5}, and
// the verified answer is {o2}.
func TestPaperExample2TokenFilter(t *testing.T) {
	ds, q := paperSetup(t)
	_, cT := core.Thresholds(q)
	if cT < 0.57-1e-12 || cT > 0.57+1e-12 {
		t.Fatalf("cT = %v, want 0.57", cT)
	}
	for _, f := range []core.Filter{core.NewTokenFilter(ds), core.NewPlainTokenFilter(ds)} {
		cands, _ := collect(t, f, ds, q)
		want := []model.ObjectID{0, 1, 2, 3, 4}
		if !equalIDs(cands, want) {
			t.Errorf("%s candidates = %v, want %v", f.Name(), cands, want)
		}
	}
	s := core.NewSearcher(ds, core.NewTokenFilter(ds))
	matches, st := s.Search(q, nil, 0)
	if len(matches) != 1 || matches[0].ID != 1 {
		t.Fatalf("answers = %v, want [o2]", matches)
	}
	if st.Candidates != 5 || st.Results != 1 {
		t.Fatalf("stats = %+v, want 5 candidates, 1 result", st)
	}
}

// TestTokenFilterPrefixProbesTwoLists mirrors the paper's observation that
// only the lists of t1 and t3 are probed (t2's suffix weight 0.3 < 0.57).
func TestTokenFilterPrefixProbesTwoLists(t *testing.T) {
	ds, q := paperSetup(t)
	f := core.NewTokenFilter(ds)
	_, st := collect(t, f, ds, q)
	if st.ListsProbed != 2 {
		t.Fatalf("lists probed = %d, want 2 (t1 and t3)", st.ListsProbed)
	}
	// The plain filter probes all three lists and scans full lists.
	pf := core.NewPlainTokenFilter(ds)
	_, pst := collect(t, pf, ds, q)
	if pst.ListsProbed != 3 {
		t.Fatalf("plain lists probed = %d, want 3", pst.ListsProbed)
	}
	if pst.PostingsScanned < st.PostingsScanned {
		t.Fatalf("plain filter should scan at least as many postings (%d < %d)",
			pst.PostingsScanned, st.PostingsScanned)
	}
}

// TestPaperExample3GridFilter checks Example 3's structure on the fixture:
// cR = 600, o2 must be retrieved, and objects sharing no cell with q (o3,
// o7) must not appear.
func TestPaperExample3GridFilter(t *testing.T) {
	ds, q := paperSetup(t)
	f, err := core.NewGridFilter(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	cR, _ := core.Thresholds(q)
	if cR != 600 {
		t.Fatalf("cR = %v, want 600", cR)
	}
	cands, _ := collect(t, f, ds, q)
	set := map[model.ObjectID]bool{}
	for _, id := range cands {
		set[id] = true
	}
	if !set[1] {
		t.Fatalf("o2 must be a grid candidate, got %v", cands)
	}
	if set[2] || set[6] {
		t.Fatalf("o3/o7 share no cell with q and must be pruned, got %v", cands)
	}
	s := core.NewSearcher(ds, f)
	matches, _ := s.Search(q, nil, 0)
	if len(matches) != 1 || matches[0].ID != 1 {
		t.Fatalf("grid-filter answers = %v, want [o2]", matches)
	}
}

// TestHybridFiltersOnPaperData runs both hybrid filters over the fixture and
// verifies the final answers plus the Section 5 claim that hybrid candidates
// are no larger than grid-only candidates.
func TestHybridFiltersOnPaperData(t *testing.T) {
	ds, q := paperSetup(t)
	grid, err := core.NewGridFilter(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	gridCands, _ := collect(t, grid, ds, q)

	hash, err := core.NewHybridHashFilter(ds, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	hashCands, _ := collect(t, hash, ds, q)
	if len(hashCands) > len(gridCands) {
		t.Errorf("hybrid candidates %v exceed grid candidates %v", hashCands, gridCands)
	}

	hier, err := core.NewHierarchicalFilter(ds, core.HierarchicalConfig{MaxLevel: 4, GridBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	hierCands, _ := collect(t, hier, ds, q)

	for _, f := range []core.Filter{hash, hier} {
		s := core.NewSearcher(ds, f)
		matches, _ := s.Search(q, nil, 0)
		if len(matches) != 1 || matches[0].ID != 1 {
			t.Fatalf("%s answers = %v, want [o2]", f.Name(), matches)
		}
	}
	for _, id := range paperdata.AnswerIDs {
		if !subsetOf([]model.ObjectID{id}, hashCands) || !subsetOf([]model.ObjectID{id}, hierCands) {
			t.Fatalf("answer %d missing from hybrid candidates (hash %v, hier %v)", id, hashCands, hierCands)
		}
	}
}

// TestAllFiltersComplete is the central correctness property: for random
// datasets and queries, every filter's candidate set contains every true
// answer, and the full Searcher returns exactly the brute-force answers.
func TestAllFiltersComplete(t *testing.T) {
	const datasets = 6
	const queriesPer = 25
	for seed := int64(1); seed <= datasets; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, err := testutil.RandomDataset(rng, 120+rng.Intn(200), 40)
		if err != nil {
			t.Fatal(err)
		}
		filters := buildAllFilters(t, ds)
		for qi := 0; qi < queriesPer; qi++ {
			q, err := testutil.RandomQuery(rng, ds, 40)
			if err != nil {
				t.Fatal(err)
			}
			want := testutil.BruteForceAnswers(ds, q)
			for _, f := range filters {
				cands, _ := collect(t, f, ds, q)
				if !subsetOf(want, cands) {
					t.Fatalf("seed %d q%d: %s candidates %v miss answers %v (tauR=%g tauT=%g)",
						seed, qi, f.Name(), cands, want, q.TauR, q.TauT)
				}
				s := core.NewSearcher(ds, f)
				matches, _ := s.Search(q, nil, 0)
				got := make([]model.ObjectID, len(matches))
				for i, m := range matches {
					got[i] = m.ID
				}
				if !equalIDs(got, want) {
					t.Fatalf("seed %d q%d: %s results %v != brute force %v",
						seed, qi, f.Name(), got, want)
				}
			}
		}
	}
}

func buildAllFilters(t *testing.T, ds *model.Dataset) []core.Filter {
	t.Helper()
	token := core.NewTokenFilter(ds)
	plainTok := core.NewPlainTokenFilter(ds)
	grid, err := core.NewGridFilter(ds, 32)
	if err != nil {
		t.Fatal(err)
	}
	plainGrid, err := core.NewPlainGridFilter(ds, 32)
	if err != nil {
		t.Fatal(err)
	}
	hashExact, err := core.NewHybridHashFilter(ds, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	hashBuckets, err := core.NewHybridHashFilter(ds, 16, 257)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := core.NewHierarchicalFilter(ds, core.HierarchicalConfig{MaxLevel: 5, GridBudget: 12})
	if err != nil {
		t.Fatal(err)
	}
	hierTight, err := core.NewHierarchicalFilter(ds, core.HierarchicalConfig{MaxLevel: 3, GridBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	return []core.Filter{token, plainTok, grid, plainGrid, hashExact, hashBuckets, hier, hierTight}
}

// TestPlainSubsetOfPrefix: the plain Sig-Filter computes the exact signature
// similarity, so its candidates are a subset of the prefix filter's.
func TestPlainSubsetOfPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ds, err := testutil.RandomDataset(rng, 200, 30)
	if err != nil {
		t.Fatal(err)
	}
	token := core.NewTokenFilter(ds)
	plainTok := core.NewPlainTokenFilter(ds)
	grid, err := core.NewGridFilter(ds, 32)
	if err != nil {
		t.Fatal(err)
	}
	plainGrid, err := core.NewPlainGridFilter(ds, 32)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 40; qi++ {
		q, err := testutil.RandomQuery(rng, ds, 30)
		if err != nil {
			t.Fatal(err)
		}
		pc, _ := collect(t, plainTok, ds, q)
		fc, _ := collect(t, token, ds, q)
		if !subsetOf(pc, fc) {
			t.Fatalf("q%d: plain token candidates %v not within prefix candidates %v", qi, pc, fc)
		}
		pg, _ := collect(t, plainGrid, ds, q)
		fg, _ := collect(t, grid, ds, q)
		if !subsetOf(pg, fg) {
			t.Fatalf("q%d: plain grid candidates %v not within prefix candidates %v", qi, pg, fg)
		}
	}
}

// TestSharedPlainFilter: searchers may share a filter, so the plain filters'
// weight accumulator must be per-searcher state. Two searchers running
// concurrently over one filter must agree with a serial run; under -race this
// is the test that catches an accumulator kept on the filter.
func TestSharedPlainFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ds, err := testutil.RandomDataset(rng, 400, 30)
	if err != nil {
		t.Fatal(err)
	}
	plainGrid, err := core.NewPlainGridFilter(ds, 32)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*model.Query, 30)
	for i := range queries {
		if queries[i], err = testutil.RandomQuery(rng, ds, 30); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []core.Filter{core.NewPlainTokenFilter(ds), plainGrid} {
		serial := core.NewSearcher(ds, f)
		want := make([][]core.Match, len(queries))
		for i, q := range queries {
			m, _ := serial.Search(q, nil, 0)
			want[i] = append([]core.Match(nil), m...)
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := core.NewSearcher(ds, f)
				for round := 0; round < 5; round++ {
					for i, q := range queries {
						if got, _ := s.Search(q, nil, 0); !slices.Equal(got, want[i]) {
							t.Errorf("%s q%d: concurrent searcher got %v, want %v", f.Name(), i, got, want[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestSearchLimitAndStop: over every signature filter, Search(q, stop,
// limit) with a limit returns the limit-prefix of the unlimited answer after
// the same filter work — the same lists, postings and candidates — and a
// stop that fires after n polls cuts collection short and returns an
// ascending subset of it.
func TestSearchLimitAndStop(t *testing.T) {
	ds := allocDataset(t, 600)
	// Low thresholds, so the answers run longer than the limits tested.
	rng := rand.New(rand.NewSource(11))
	var queries []*model.Query
	for range 8 {
		x, y := rng.Float64()*700, rng.Float64()*700
		terms := []string{fmt.Sprintf("tok%d", rng.Intn(30)), fmt.Sprintf("tok%d", rng.Intn(30))}
		q, err := ds.NewQuery(geo.Rect{MinX: x, MinY: y, MaxX: x + 200, MaxY: y + 200}, terms, 0.005, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	rows := []struct {
		limit, stopAfter int // stopAfter -1: no stop hook
	}{
		{0, -1}, {1, -1}, {3, -1}, {1 << 20, -1}, // 1<<20 exceeds every answer
		{0, 0}, {0, 1}, {3, 0}, {3, 1},
	}
	for _, f := range allocFilters(t, ds) {
		s := core.NewSearcher(ds, f)
		want := make([][]core.Match, len(queries))
		wantSt := make([]core.SearchStats, len(queries))
		longest := 0
		for qi, q := range queries {
			m, st := s.Search(q, nil, 0)
			want[qi], wantSt[qi] = slices.Clone(m), st
			longest = max(longest, len(m))
		}
		if longest <= 3 {
			t.Fatalf("%s: longest answer has %d matches; the queries must exceed the limits tested", f.Name(), longest)
		}
		for _, row := range rows {
			t.Run(fmt.Sprintf("%s/limit=%d/stop=%d", f.Name(), row.limit, row.stopAfter), func(t *testing.T) {
				cut := false // stop cut some query's collection short
				for qi, q := range queries {
					var stop func() bool
					if row.stopAfter >= 0 {
						polls := 0
						stop = func() bool { polls++; return polls > row.stopAfter }
					}
					got, st := s.Search(q, stop, row.limit)
					prefix := want[qi]
					if row.limit > 0 && row.limit < len(prefix) {
						prefix = prefix[:row.limit]
					}
					if stop != nil {
						if !isAscendingSubset(got, want[qi]) || len(got) > len(prefix) {
							t.Fatalf("query %d: stopped search returned %v, want an ascending subset of %v of at most %d", qi, got, want[qi], len(prefix))
						}
						cut = cut || st.Candidates < wantSt[qi].Candidates
						continue
					}
					if !slices.Equal(got, prefix) {
						t.Fatalf("query %d: got %v, want the prefix %v", qi, got, prefix)
					}
					if st.FilterStats != wantSt[qi].FilterStats || st.Results != len(prefix) {
						t.Fatalf("query %d: stats %+v (results %d), want filter work %+v and %d results", qi, st.FilterStats, st.Results, wantSt[qi].FilterStats, len(prefix))
					}
				}
				if row.stopAfter >= 0 && !cut {
					t.Fatal("stop never cut a query's collection short")
				}
			})
		}
	}
}

// isAscendingSubset reports whether sub is strictly ascending by ID and
// every entry of it is in super.
func isAscendingSubset(sub, super []core.Match) bool {
	for i, m := range sub {
		if i > 0 && sub[i-1].ID >= m.ID {
			return false
		}
		if !slices.Contains(super, m) {
			return false
		}
	}
	return true
}

func TestCandidateSet(t *testing.T) {
	cs := core.NewCandidateSet(8)
	cs.Reset()
	cs.Add(3)
	cs.Add(3)
	cs.Add(5)
	if cs.Len() != 2 || !cs.Contains(3) || !cs.Contains(5) || cs.Contains(4) {
		t.Fatalf("set state wrong: len=%d", cs.Len())
	}
	cs.Reset()
	if cs.Len() != 0 || cs.Contains(3) {
		t.Fatalf("reset should empty the set")
	}
	cs.Add(7)
	if got := cs.IDs(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("IDs = %v, want [7]", got)
	}
}

func TestSearcherStats(t *testing.T) {
	ds, q := paperSetup(t)
	s := core.NewSearcher(ds, core.NewTokenFilter(ds))
	_, st := s.Search(q, nil, 0)
	if st.Elapsed() != st.FilterTime+st.VerifyTime {
		t.Errorf("Elapsed mismatch")
	}
	if st.Candidates == 0 || st.ListsProbed == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if s.Filter().Name() != "TokenFilter" {
		t.Errorf("Filter() accessor broken")
	}
}

func TestFilterSizes(t *testing.T) {
	ds, _ := paperSetup(t)
	filters := buildAllFilters(t, ds)
	for _, f := range filters {
		if f.SizeBytes() <= 0 {
			t.Errorf("%s SizeBytes = %d, want positive", f.Name(), f.SizeBytes())
		}
	}
}

// TestCompressedBoundsCoverFlat lifts the bound code's contract to whole
// indexes: over the golden corpus, for each of the four signature families,
// the quantized index a filter serves holds the flat lists its build produced
// — same keys, same objects in the same order — and every decoded bound,
// spatial and textual, is at least the flat one and within 2⁻⁸ of it, so
// every Cutoff head is a superset of the exact head and barely more.
func TestCompressedBoundsCoverFlat(t *testing.T) {
	ds, err := gen.Twitter(gen.TwitterConfig{N: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []core.FilterSpec{
		{Kind: "token"},
		{Kind: "grid", P: 64},
		{Kind: "hybrid", P: 64},
		{Kind: "seal", MaxLevel: 12, GridBudget: 8},
	} {
		f, flat, err := core.FlatPostings(ds, spec)
		if err != nil {
			t.Fatal(err)
		}
		quant, _, _ := core.Postings(f)
		if lay := quant.Arenas().Layout; !lay.Obj16 {
			t.Fatalf("%s: layout %+v, want 16-bit objects", spec.Kind, lay)
		}
		var keys []uint64
		quant.EachLen(func(key uint64, _ int) { keys = append(keys, key) })
		if len(keys) != flat.Lists() || flat.Lists() == 0 {
			t.Fatalf("%s: %d quantized lists, %d flat", spec.Kind, len(keys), flat.Lists())
		}
		for i, key := range keys {
			objs, bounds, tBounds := flat.List(key)
			got := quant.At(i)
			if got.Len() != len(objs) || len(objs) == 0 {
				t.Fatalf("%s list %#x: %d postings, want %d", spec.Kind, key, got.Len(), len(objs))
			}
			for j := range objs {
				g, w := got.Posting(j), invidx.Posting{Obj: objs[j], Bound: bounds[j]}
				if tBounds != nil {
					w.TBound = tBounds[j]
				}
				if g.Obj != w.Obj || g.Bound < w.Bound || g.TBound < w.TBound || g.Bound > w.Bound*(1+1.0/256) || g.TBound > w.TBound*(1+1.0/256) {
					t.Fatalf("%s list %#x posting %d: %+v does not cover %+v within 2^-8", spec.Kind, key, j, g, w)
				}
			}
		}
	}
}

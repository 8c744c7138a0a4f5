package core_test

import (
	"fmt"
	"math"
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

// TestLargeQueryExact runs an 80-token query — wider than any machine word
// of per-token marks — under every signature filter and checks the answer
// against brute force, similarities included.
func TestLargeQueryExact(t *testing.T) {
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
	want := testutil.BruteForceAnswers(ds, q)
	if len(want) == 0 {
		t.Fatal("the query should have answers")
	}
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
	for _, f := range []core.Filter{core.NewTokenFilter(ds), grid, hashExact, hashBuckets, hier} {
		matches, _ := core.NewSearcher(ds, f).Search(q, nil, 0)
		if len(matches) != len(want) {
			t.Fatalf("%s: %d matches, want %d", f.Name(), len(matches), len(want))
		}
		for i, m := range matches {
			if m.ID != want[i] || m.SimR != ds.SimR(q, m.ID) || m.SimT != ds.SimT(q, m.ID) {
				t.Fatalf("%s: match %d: %+v disagrees with brute force", f.Name(), i, m)
			}
		}
	}
}

// TestCandidateSetBitmapClear: Reset clears the bitmap words the set's rows
// touched — both ends of the first word, both ends of the second, and the
// lone row of a partial last word — so it empties the set, and the next
// query collects from scratch, duplicates dropped.
func TestCandidateSetBitmapClear(t *testing.T) {
	const n = 130
	rows := []uint32{129, 0, 64, 127, 63}
	cs := core.NewCandidateSet(n)
	cs.Reset()
	for _, r := range rows {
		cs.Add(r)
		cs.Add(r)
	}
	if !slices.Equal(cs.IDs(), rows) {
		t.Fatalf("set = %v, want %v in arrival order, duplicates dropped", cs.IDs(), rows)
	}
	for obj := uint32(0); obj < n; obj++ {
		if cs.Contains(obj) != slices.Contains(rows, obj) {
			t.Fatalf("Contains(%d) = %v before the Reset", obj, cs.Contains(obj))
		}
	}

	cs.Reset()
	if cs.Len() != 0 {
		t.Fatal("Reset must empty the set")
	}
	for obj := uint32(0); obj < n; obj++ {
		if cs.Contains(obj) {
			t.Fatalf("row %d survived the Reset", obj)
		}
	}

	// The next query collects from scratch, duplicates dropped.
	cs.Add(64)
	cs.Add(64)
	if cs.Len() != 1 || !cs.Contains(64) || cs.Contains(63) || cs.Contains(127) {
		t.Fatalf("set after the Reset = %v, want [64]", cs.IDs())
	}
	cs.Reset()
	if cs.Len() != 0 || cs.Contains(64) {
		t.Fatal("a second Reset must empty the set")
	}
}

// TestSearchSweepsEverySummaryWord: the sweep reads only the bitmap words its
// summary marks, one summary bit a 64-row word. Over 2·4096 + 130 rows — two
// full summary words and a partial third — every 97th row matches, so each
// summary word marks scattered bitmap words, and Search must answer every
// match in ascending row order, with a limit too.
func TestSearchSweepsEverySummaryWord(t *testing.T) {
	const n, every = 2*4096 + 130, 97
	var b model.Builder
	region := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	var want []model.ObjectID
	for i := 0; i < n; i++ {
		term := "miss"
		if i%every == 0 {
			term = "hit"
			want = append(want, model.ObjectID(i))
		}
		if _, err := b.Add(region, []string{term}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ds.NewQuery(region, []string{"hit"}, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSearcher(ds, core.NewTokenFilter(ds))
	for _, limit := range []int{0, len(want) - 1} {
		matches, _ := s.Search(q, nil, limit)
		got := make([]model.ObjectID, len(matches))
		for i, m := range matches {
			got[i] = m.ID
		}
		if w := want[:len(want)-min(limit, 1)]; !slices.Equal(got, w) {
			t.Fatalf("limit %d: matches %v, want %v", limit, got, w)
		}
	}
}

// TestSearcherReuseClearsBitmap: one searcher runs a stream stopped early, a
// top-k descent of several rounds, and Search without and with a limit, query
// after query. Every answer and its candidate count equal a fresh searcher's,
// and the answers the brute-force oracle's. A bit left set by an earlier
// search would drop that row from the next search's candidates — the
// candidate counts are what show it.
func TestSearcherReuseClearsBitmap(t *testing.T) {
	ds := allocDataset(t, 600) // 600 rows: the last bitmap word is partial
	rng := rand.New(rand.NewSource(11))
	var queries []*model.Query
	for range 6 {
		x, y := rng.Float64()*600, rng.Float64()*600
		terms := []string{fmt.Sprintf("tok%d", rng.Intn(30)), fmt.Sprintf("tok%d", rng.Intn(30))}
		q, err := ds.NewQuery(geo.Rect{MinX: x, MinY: y, MaxX: x + 300, MaxY: y + 300}, terms, 0.002, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	opts := core.TopKOptions{K: 10, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
	for _, f := range allocFilters(t, ds) {
		reused := core.NewSearcher(ds, f)
		for qi, q := range queries {
			label := fmt.Sprintf("%s query %d", f.Name(), qi)
			var want []core.Match
			for row := model.ObjectID(0); int(row) < ds.Len(); row++ {
				if simR, simT := ds.SimR(q, row), ds.SimT(q, row); simR >= q.TauR && simT >= q.TauT {
					want = append(want, core.Match{ID: row, SimR: simR, SimT: simT})
				}
			}
			if len(want) < 2 {
				t.Fatalf("%s: %d matches; the stream cannot stop early", label, len(want))
			}

			stream := func(s *core.Searcher) ([]core.Match, core.SearchStats) {
				var got []core.Match
				st := s.SearchStream(q, nil, func(m core.Match) bool {
					got = append(got, m)
					return len(got) < 2
				})
				return got, st
			}
			got, st := stream(reused)
			fresh, freshSt := stream(core.NewSearcher(ds, f))
			if !slices.Equal(got, fresh) || st.Candidates != freshSt.Candidates {
				t.Fatalf("%s: stopped stream %v (%d candidates), fresh searcher's %v (%d)", label, got, st.Candidates, fresh, freshSt.Candidates)
			}
			for _, m := range got {
				if !slices.Contains(want, m) {
					t.Fatalf("%s: stream emitted %+v, which the oracle does not match", label, m)
				}
			}

			rounds := 0
			topOpts := opts
			topOpts.Observe = func([]core.ScoredMatch) { rounds++ }
			ranked, rst, err := reused.TopK(q, topOpts, nil)
			if err != nil {
				t.Fatal(err)
			}
			freshRanked, freshRst, err := core.NewSearcher(ds, f).TopK(q, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ranked, freshRanked) || rst.Candidates != freshRst.Candidates {
				t.Fatalf("%s: top-k %v (%d candidates), fresh searcher's %v (%d)", label, ranked, rst.Candidates, freshRanked, freshRst.Candidates)
			}
			if rounds < 2 {
				t.Fatalf("%s: the descent ran %d round, want several", label, rounds)
			}
			brute := bruteTopK(ds, q, opts)
			if len(ranked) != len(brute) {
				t.Fatalf("%s: top-k has %d entries, oracle %d", label, len(ranked), len(brute))
			}
			for i := range brute {
				if ranked[i].ID != brute[i].ID || math.Abs(ranked[i].Score-brute[i].Score) > 1e-9 {
					t.Fatalf("%s: rank %d = %+v, oracle %+v", label, i, ranked[i], brute[i])
				}
			}

			for _, limit := range []int{0, 1} {
				got, st := reused.Search(q, nil, limit)
				fresh, freshSt := core.NewSearcher(ds, f).Search(q, nil, limit)
				prefix := want
				if limit > 0 {
					prefix = want[:limit]
				}
				if !slices.Equal(got, fresh) || st.Candidates != freshSt.Candidates {
					t.Fatalf("%s limit %d: %v (%d candidates), fresh searcher's %v (%d)", label, limit, got, st.Candidates, fresh, freshSt.Candidates)
				}
				if !slices.Equal(got, prefix) {
					t.Fatalf("%s limit %d: %v, oracle %v", label, limit, got, prefix)
				}
			}
		}
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

// TestKeyedFiltersNameTheirLists pins how each keyed kind names its lists in
// the one key column, (group, node): a token list is (t, 0), a grid list the
// (row, column) of its cell, a hybrid-hash list (t, cell), and a bucketed one
// (bucket, 0). A grid index reopens from its keys alone, so a row or a column
// outside the P×P grid is refused.
func TestKeyedFiltersNameTheirLists(t *testing.T) {
	ds, err := gen.Twitter(gen.TwitterConfig{N: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const p, buckets = 64, 127
	vocab := uint64(ds.Vocab().Len())
	for _, tc := range []struct {
		spec  core.FilterSpec
		group uint64 // exclusive bound of a key's high word
		node  uint64 // of its low word
	}{
		{core.FilterSpec{Kind: "token"}, vocab, 1},
		{core.FilterSpec{Kind: "grid", P: p}, p, p},
		{core.FilterSpec{Kind: "hybrid", P: p}, vocab, p * p},
		{core.FilterSpec{Kind: "hybrid", P: p, Buckets: buckets}, buckets, 1},
	} {
		t.Run(fmt.Sprintf("%s/%d/%d", tc.spec.Kind, tc.spec.P, tc.spec.Buckets), func(t *testing.T) {
			f, err := core.BuildFilter(ds, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			src, _, _ := core.Postings(f)
			groups := map[uint64]bool{}
			src.EachLen(func(key uint64, _ int) {
				if key>>32 >= tc.group || key&(1<<32-1) >= tc.node {
					t.Fatalf("key (%d, %d) outside [0, %d) × [0, %d)", key>>32, key&(1<<32-1), tc.group, tc.node)
				}
				groups[key>>32] = true
			})
			if runs, _ := src.Runs(); len(groups) < 2 || runs.Len() > int(tc.group) {
				t.Fatalf("%d groups hold lists under %d runs", len(groups), runs.Len())
			}
		})
	}

	grid, err := core.BuildFilter(ds, core.FilterSpec{Kind: "grid", P: p})
	if err != nil {
		t.Fatal(err)
	}
	src, spec, _ := core.Postings(grid)
	if _, err := core.OpenFilter(ds, spec, src); err != nil {
		t.Fatalf("a grid index does not reopen from its keys: %v", err)
	}
	for _, key := range []uint64{p << 32, p, (p-1)<<32 | p} {
		var b invidx.Builder
		b.Add(0, 0, 1)
		b.Add(key, 1, 1)
		if _, err := core.OpenFilter(ds, spec, invidx.Compress(b.Build())); err == nil {
			t.Errorf("a grid index with key (%d, %d) on a %d×%d grid reopened", key>>32, key&(1<<32-1), p, p)
		}
	}
}

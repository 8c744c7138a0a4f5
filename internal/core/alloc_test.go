package core_test

// Allocation regression tests: the scoring fast path exists so steady-state
// threshold queries run without touching the heap. These tests pin that
// property with testing.AllocsPerRun so a stray closure, sort.Slice, or
// per-query buffer can't silently reintroduce allocations.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/text"
)

// allocDataset builds a single-region dataset (multi-region verification
// walks geo.RectSet machinery, which is outside the zero-alloc contract).
func allocDataset(t testing.TB, n int) *model.Dataset { return allocDatasetAt(t, n, 1) }

// allocDatasetAt is allocDataset with every coordinate multiplied by scale. A
// scale other than 1 also sets every token's weight to 1e39: at 1e20 both the
// areas and the weights are beyond float32 range, which saturates compressed
// bound codes to infinity.
func allocDatasetAt(t testing.TB, n int, scale float64) *model.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var b model.Builder
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*900*scale, rng.Float64()*900*scale
		w, h := (1+rng.Float64()*40)*scale, (1+rng.Float64()*40)*scale
		terms := make([]string, 1+rng.Intn(6))
		for j := range terms {
			terms[j] = fmt.Sprintf("tok%d", rng.Intn(30))
		}
		if _, err := b.Add(geo.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, terms); err != nil {
			t.Fatal(err)
		}
	}
	build := b.Build
	if scale != 1 {
		terms, weights := make([]string, 30), make([]float64, 30)
		for i := range terms {
			terms[i], weights[i] = fmt.Sprintf("tok%d", i), 1e39
		}
		vocab, err := text.NewWithWeights(terms, weights)
		if err != nil {
			t.Fatal(err)
		}
		build = func() (*model.Dataset, error) { return b.BuildWithVocab(vocab) }
	}
	ds, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func allocQueries(t testing.TB, ds *model.Dataset, n int) []*model.Query {
	return allocQueriesAt(t, ds, n, 1)
}

func allocQueriesAt(t testing.TB, ds *model.Dataset, n int, scale float64) []*model.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	queries := make([]*model.Query, 0, n)
	for len(queries) < n {
		x, y := rng.Float64()*800*scale, rng.Float64()*800*scale
		terms := []string{
			fmt.Sprintf("tok%d", rng.Intn(30)),
			fmt.Sprintf("tok%d", rng.Intn(30)),
			fmt.Sprintf("tok%d", rng.Intn(30)),
		}
		q, err := ds.NewQuery(geo.Rect{MinX: x, MinY: y, MaxX: x + 120*scale, MaxY: y + 120*scale}, terms, 0.05, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	return queries
}

func allocFilters(t testing.TB, ds *model.Dataset) []core.Filter {
	t.Helper()
	token := core.NewTokenFilter(ds)
	grid, err := core.NewGridFilter(ds, 32)
	if err != nil {
		t.Fatal(err)
	}
	hashExact, err := core.NewHybridHashFilter(ds, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	hashBuckets, err := core.NewHybridHashFilter(ds, 16, 509)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := core.NewHierarchicalFilter(ds, core.HierarchicalConfig{MaxLevel: 5, GridBudget: 6})
	if err != nil {
		t.Fatal(err)
	}
	return []core.Filter{token, grid, hashExact, hashBuckets, hier}
}

// TestSearchZeroAllocs: after warmup (buffers grown to the workload's high
// water mark), every signature filter must answer threshold queries with
// zero heap allocations per Search — unlimited, and limited, where the
// candidates are sorted in the searcher's scratch before they are verified.
func TestSearchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ds := allocDataset(t, 600)
	queries := allocQueries(t, ds, 8)
	for _, limit := range []int{0, 3, 1 << 20} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			for _, f := range allocFilters(t, ds) {
				s := core.NewSearcher(ds, f)
				// Warmup: size every reusable buffer for the whole query set.
				for i := 0; i < 2; i++ {
					for _, q := range queries {
						s.Search(q, nil, limit)
					}
				}
				for qi, q := range queries {
					if avg := testing.AllocsPerRun(20, func() { s.Search(q, nil, limit) }); avg != 0 {
						t.Errorf("%s query %d: %.1f allocs/op, want 0", f.Name(), qi, avg)
					}
				}
			}
		})
	}
}

// requireZeroAllocs warms a searcher over the query set, then asserts every
// steady-state Search is allocation-free.
func requireZeroAllocs(t *testing.T, label string, ds *model.Dataset, f core.Filter, queries []*model.Query) {
	t.Helper()
	s := core.NewSearcher(ds, f)
	for i := 0; i < 2; i++ {
		for _, q := range queries {
			s.Search(q, nil, 0)
		}
	}
	for qi, q := range queries {
		if avg := testing.AllocsPerRun(20, func() { s.Search(q, nil, 0) }); avg != 0 {
			t.Errorf("%s %s query %d: %.1f allocs/op, want 0", label, f.Name(), qi, avg)
		}
	}
}

// TestSearchZeroAllocsCompressed: every filter serves quantized lists and
// reads them in place, comparing codes, so the steady state never touches the
// heap — at ordinary bounds and at bounds that saturate to the infinity code.
func TestSearchZeroAllocsCompressed(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, scale := range []float64{1, 1e20} {
		label := fmt.Sprintf("compressed scale %g", scale)
		ds := allocDatasetAt(t, 600, scale)
		queries := allocQueriesAt(t, ds, 8, scale)
		for _, f := range allocFilters(t, ds) {
			requireZeroAllocs(t, label, ds, f, queries)
		}
	}
}

// TestSearchZeroAllocsRealisticGranularity pins the grid and hybrid filters
// at bench-scale granularities, not only at P=1024.
func TestSearchZeroAllocsRealisticGranularity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ds := allocDataset(t, 300)
	queries := allocQueries(t, ds, 6)
	grid, err := core.NewGridFilter(ds, 1024)
	if err != nil {
		t.Fatal(err)
	}
	hybridExact, err := core.NewHybridHashFilter(ds, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	hybridHash, err := core.NewHybridHashFilter(ds, 256, 509)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []core.Filter{grid, hybridExact, hybridHash} {
		requireZeroAllocs(t, "compressed", ds, f, queries)
	}
}

// TestSearchZeroAllocsMapped: probing lists straight out of an mmap-backed
// SEALIDX2 segment must stay allocation-free too — the section views are
// zero-copy and its compressed lists are read in place through them.
func TestSearchZeroAllocsMapped(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ds := allocDataset(t, 400)
	queries := allocQueries(t, ds, 6)
	dir := t.TempDir()

	token, tokenSpec, _ := core.Postings(core.NewTokenFilter(ds))
	hier, err := core.NewHierarchicalFilter(ds, core.HierarchicalConfig{MaxLevel: 5, GridBudget: 6})
	if err != nil {
		t.Fatal(err)
	}
	seal, sealSpec, _ := core.Postings(hier)

	// mapped reopens the filter spec describes over src, written to a segment
	// and mapped back.
	mapped := func(name string, spec core.FilterSpec, src *invidx.Compressed) core.Filter {
		path := filepath.Join(dir, name)
		if err := diskidx.WriteSegment(path, src, ds.Len()); err != nil {
			t.Fatal(err)
		}
		seg, err := diskidx.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { seg.Close() })
		f, err := core.OpenFilter(ds, spec, seg.Source())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	requireZeroAllocs(t, "mapped-compressed", ds, mapped("token-comp.seg", tokenSpec, token), queries)
	requireZeroAllocs(t, "mapped-compressed", ds, mapped("seal.seg", sealSpec, seal), queries)
}

// topKQuery is the descent the top-k allocation tests run: several rounds
// deep over a region holding ranked objects.
func topKQuery(t testing.TB, ds *model.Dataset) (*model.Query, core.TopKOptions) {
	t.Helper()
	opts := core.TopKOptions{K: 10, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
	q, err := ds.NewQuery(geo.Rect{MinX: 100, MinY: 100, MaxX: 400, MaxY: 400}, []string{"tok1", "tok2", "tok3"}, opts.FloorR, opts.FloorT)
	if err != nil {
		t.Fatal(err)
	}
	return q, opts
}

// TestTopKBoundedAllocs: the caller compiles the descent's one query, and
// every round collects, verifies and ranks in the searcher's own buffers, so
// a warm descent allocates exactly one thing: the ranking it returns.
func TestTopKBoundedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ds := allocDataset(t, 600)
	q, opts := topKQuery(t, ds)
	for _, f := range allocFilters(t, ds) {
		s := core.NewSearcher(ds, f)
		var ranked []core.ScoredMatch
		var err error
		for i := 0; i < 2; i++ {
			if ranked, _, err = s.TopK(q, opts, nil); err != nil {
				t.Fatal(err)
			}
		}
		if len(ranked) == 0 {
			t.Fatalf("%s: empty ranking; the test query must rank something", f.Name())
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, _, err := s.TopK(q, opts, nil); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 1 {
			t.Errorf("%s TopK: %.1f allocs/op, want 1 (the ranking)", f.Name(), avg)
		}
	}
}

// TestTopKRetainedAllocs: a descent keeps no per-object state of its own. A
// fresh searcher and its first descent allocate the CandidateSet's marks and
// accumulator — 12 B an object — and otherwise only buffers sized by the
// candidates, so from 600 to 6,000 objects the bytes may grow by at most
// 12 B an object plus headroom for those buffers: less than the 20 B an
// object a cached similarity pair and its mark would take.
func TestTopKRetainedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	firstDescent := func(n int) uint64 {
		ds := allocDataset(t, n)
		f, err := core.NewHierarchicalFilter(ds, core.HierarchicalConfig{MaxLevel: 5, GridBudget: 6})
		if err != nil {
			t.Fatal(err)
		}
		q, opts := topKQuery(t, ds)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := core.NewSearcher(ds, f)
		if _, _, err := s.TopK(q, opts, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := firstDescent(600), firstDescent(6000)
	perObject := float64(large-small) / (6000 - 600)
	t.Logf("first descent: %d B at 600 objects, %d B at 6000: %.2f B an object", small, large, perObject)
	const maxPerObject = 16
	if perObject > maxPerObject {
		t.Errorf("a first descent grows %.2f B an object, want <= %d", perObject, maxPerObject)
	}
}

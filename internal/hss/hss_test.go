package hss

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridtree"
	"github.com/sealdb/seal/internal/paperdata"
	"github.com/sealdb/seal/internal/testutil"
)

func newTree(t *testing.T, space geo.Rect, maxLevel int) *gridtree.Tree {
	t.Helper()
	tr, err := gridtree.New(space, maxLevel)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSelectBudgetOne(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 4)
	rects := []geo.Rect{{MinX: 1, MinY: 1, MaxX: 9, MaxY: 9}}
	grids, err := Select(tr, rects, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Splitting a node with a single non-empty child does not increase the
	// grid count, so the greedy may legally refine below the root as long as
	// the one selected grid still covers the region.
	if len(grids) != 1 {
		t.Fatalf("budget 1 should select exactly one grid, got %v", grids)
	}
	if grids[0].Count != 1 {
		t.Fatalf("grid count = %d, want 1", grids[0].Count)
	}
	cell := tr.Rect(grids[0].Node)
	if !cell.Contains(rects[0]) {
		t.Fatalf("selected grid %v (%v) must cover the region %v", grids[0].Node, cell, rects[0])
	}
}

func TestSelectInvalidBudget(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 2)
	if _, err := Select(tr, nil, 0); err == nil {
		t.Fatal("budget 0 should error")
	}
}

func TestSelectNoRegions(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 2)
	grids, err := Select(tr, []geo.Rect{{MinX: 500, MinY: 500, MaxX: 600, MaxY: 600}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 0 {
		t.Fatalf("disjoint regions should select nothing, got %v", grids)
	}
}

// TestSelectSplitsHotCorner: a tight cluster in one corner should drive the
// greedy to refine that corner rather than the empty remainder.
func TestSelectSplitsHotCorner(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 128, MaxY: 128}, 5)
	var rects []geo.Rect
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		x, y := rng.Float64()*12, rng.Float64()*12
		rects = append(rects, geo.Rect{MinX: x, MinY: y, MaxX: x + 3, MaxY: y + 3})
	}
	grids, err := Select(tr, rects, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) == 0 || len(grids) > 16 {
		t.Fatalf("selected %d grids, want 1..16", len(grids))
	}
	deepest := 0
	for _, g := range grids {
		if g.Node.Level() > deepest {
			deepest = g.Node.Level()
		}
	}
	if deepest < 2 {
		t.Fatalf("hot corner should be refined below level 2, deepest = %d", deepest)
	}
}

// coverage verifies the two structural invariants of a selection: grids are
// pairwise disjoint, and together they cover every region's in-space area.
func checkCoverage(t *testing.T, tr *gridtree.Tree, rects []geo.Rect, grids []Grid) {
	t.Helper()
	for i := 0; i < len(grids); i++ {
		ri := tr.Rect(grids[i].Node)
		for j := i + 1; j < len(grids); j++ {
			if ri.IntersectionArea(tr.Rect(grids[j].Node)) > 0 {
				t.Fatalf("grids %v and %v overlap", grids[i].Node, grids[j].Node)
			}
		}
	}
	for k, r := range rects {
		want := r.IntersectionArea(tr.Space)
		var got float64
		for _, g := range grids {
			got += tr.Rect(g.Node).IntersectionArea(r)
		}
		if math.Abs(got-want) > 1e-6*math.Max(want, 1) {
			t.Fatalf("region %d covered area %v, want %v", k, got, want)
		}
	}
}

func TestSelectCoverageOnPaperData(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 120}, 4)
	for _, mt := range []int{1, 2, 4, 8, 16, 64} {
		grids, err := Select(tr, paperdata.Regions, mt)
		if err != nil {
			t.Fatal(err)
		}
		if len(grids) > mt {
			t.Fatalf("mt=%d: selected %d grids", mt, len(grids))
		}
		checkCoverage(t, tr, paperdata.Regions, grids)
		// Counts are consistent: each grid intersects exactly Count regions.
		for _, g := range grids {
			n := 0
			for _, r := range paperdata.Regions {
				if tr.Rect(g.Node).IntersectionArea(r) > 0 {
					n++
				}
			}
			if n != g.Count {
				t.Fatalf("grid %v count %d, recomputed %d", g.Node, g.Count, n)
			}
		}
	}
}

// TestSelectProperties: budget respected, disjointness and coverage hold for
// random region sets.
func TestSelectProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := geo.Rect{MinX: 0, MinY: 0, MaxX: 512, MaxY: 512}
		tr, err := gridtree.New(space, 5)
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(20)
		rects := make([]geo.Rect, 0, n)
		for i := 0; i < n; i++ {
			x, y := rng.Float64()*500, rng.Float64()*500
			rects = append(rects, geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*60 + 0.1, MaxY: y + rng.Float64()*60 + 0.1})
		}
		mt := 1 + rng.Intn(32)
		grids, err := Select(tr, rects, mt)
		if err != nil || len(grids) > mt || len(grids) == 0 {
			return false
		}
		// Disjointness.
		for i := 0; i < len(grids); i++ {
			for j := i + 1; j < len(grids); j++ {
				if tr.Rect(grids[i].Node).IntersectionArea(tr.Rect(grids[j].Node)) > 0 {
					return false
				}
			}
		}
		// Coverage of every region.
		for _, r := range rects {
			want := r.IntersectionArea(space)
			var got float64
			for _, g := range grids {
				got += tr.Rect(g.Node).IntersectionArea(r)
			}
			if math.Abs(got-want) > 1e-6*math.Max(want, 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLargerBudgetNeverCoarser: increasing the budget must not reduce the
// total number of selected grids.
func TestLargerBudgetNeverCoarser(t *testing.T) {
	tr := newTree(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 120}, 4)
	prev := 0
	for _, mt := range []int{1, 2, 4, 8, 16, 32} {
		grids, err := Select(tr, paperdata.Regions, mt)
		if err != nil {
			t.Fatal(err)
		}
		if len(grids) < prev {
			t.Fatalf("mt=%d produced %d grids, fewer than previous %d", mt, len(grids), prev)
		}
		prev = len(grids)
	}
}

// referenceSelect is the Select this package shipped before the one-pass
// Selector — the container/heap loop over gridtree's FilterIntersecting and
// NodeError, moved here verbatim — kept as the oracle the Selector must match
// grid for grid.
type referenceItem struct {
	node   gridtree.NodeID
	subset []int // indices into the caller's rects
	err    float64
}

// referenceQueue is a max-heap on node error, with NodeID as deterministic
// tie-break.
type referenceQueue []referenceItem

func (q referenceQueue) Len() int { return len(q) }
func (q referenceQueue) Less(i, j int) bool {
	if q[i].err != q[j].err {
		return q[i].err > q[j].err
	}
	return q[i].node < q[j].node
}
func (q referenceQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *referenceQueue) Push(x any)   { *q = append(*q, x.(referenceItem)) }
func (q *referenceQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func referenceSelect(tree *gridtree.Tree, rects []geo.Rect, mt int) ([]Grid, error) {
	if mt < 1 {
		return nil, fmt.Errorf("hss: budget %d must be at least 1", mt)
	}
	rootSubset := tree.FilterIntersecting(tree.Root(), rects, nil, nil)
	if len(rootSubset) == 0 {
		return nil, nil
	}
	subsetRects := func(subset []int) []geo.Rect {
		rs := make([]geo.Rect, len(subset))
		for i, idx := range subset {
			rs[i] = rects[idx]
		}
		return rs
	}

	q := &referenceQueue{}
	heap.Push(q, referenceItem{
		node:   tree.Root(),
		subset: rootSubset,
		err:    tree.NodeError(tree.Root(), subsetRects(rootSubset)),
	})
	var out []Grid
	for q.Len() > 0 {
		it := heap.Pop(q).(referenceItem)
		if tree.IsLeaf(it.node) {
			out = append(out, Grid{Node: it.node, Count: len(it.subset)})
			continue
		}
		children := tree.Children(it.node)
		childSubsets := make([][]int, 0, 4)
		childNodes := make([]gridtree.NodeID, 0, 4)
		for _, c := range children {
			sub := tree.FilterIntersecting(c, rects, it.subset, nil)
			if len(sub) == 0 {
				continue
			}
			childSubsets = append(childSubsets, sub)
			childNodes = append(childNodes, c)
		}
		// Splitting replaces the dequeued grid with len(childNodes) grids;
		// every queued or finalized grid contributes at least one output
		// grid, so the final size would be at least the sum below. Keep the
		// node whole when that would exceed the budget (the |Gt|+|Q|+|Nc|-1
		// check of Algorithm 2, with |Q| counted before the dequeue).
		if len(out)+q.Len()+len(childNodes) > mt {
			out = append(out, Grid{Node: it.node, Count: len(it.subset)})
			continue
		}
		for i, c := range childNodes {
			heap.Push(q, referenceItem{
				node:   c,
				subset: childSubsets[i],
				err:    tree.NodeError(c, subsetRects(childSubsets[i])),
			})
		}
	}
	return out, nil
}

// TestSelectorMatchesReference is the seeded differential property test: the
// one-pass Selector and the reference must return the identical grid slice —
// same nodes, same counts, same order — for every region mix, budget and tree
// depth, with one Selector reused across all of them (so a stale queue, arena
// or result buffer would show).
func TestSelectorMatchesReference(t *testing.T) {
	spaces := []geo.Rect{
		{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024},
		{MinX: -73.5, MinY: 12.25, MaxX: 1311.7, MaxY: 777.1}, // cell edges are not exact binary fractions
	}
	var sel Selector
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, space := range spaces {
			for _, n := range []int{1, 3, 40, 400} {
				rects := testutil.AdversarialRects(rng, space, n)
				for _, maxLevel := range []int{0, 1, 7, 12} {
					tr := newTree(t, space, maxLevel)
					for _, mt := range []int{1, 2, 3, 4, 5, 7, 64, 8192} {
						want, err := referenceSelect(tr, rects, mt)
						if err != nil {
							t.Fatal(err)
						}
						got, err := sel.Select(tr, rects, mt)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("seed %d space %v n %d maxLevel %d mt %d:\n got %v\nwant %v",
								seed, space, n, maxLevel, mt, got, want)
						}
					}
				}
			}
		}
	}
	if _, err := sel.Select(newTree(t, spaces[0], 2), nil, 0); err == nil {
		t.Fatal("budget 0 should error")
	}
}

// benchRects is a token's regions as the index build sees them: small boxes
// around a few cluster centres.
func benchRects(n int) (*gridtree.Tree, []geo.Rect) {
	space := geo.Rect{MinX: 0, MinY: 0, MaxX: 36000, MaxY: 36000}
	tr, err := gridtree.New(space, 12)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(99))
	centres := make([][2]float64, 12)
	for i := range centres {
		centres[i] = [2]float64{rng.Float64() * 36000, rng.Float64() * 36000}
	}
	rects := make([]geo.Rect, n)
	for i := range rects {
		c := centres[rng.Intn(len(centres))]
		x, y := c[0]+rng.NormFloat64()*400, c[1]+rng.NormFloat64()*400
		rects[i] = geo.Rect{MinX: x, MinY: y, MaxX: x + 1 + rng.Float64()*30, MaxY: y + 1 + rng.Float64()*30}
	}
	return tr, rects
}

// TestSelectorAllocs: a warmed Selector selects without allocating (at most
// one allocation is tolerated), which is what lets an index build run one per
// worker over tens of thousands of tokens.
func TestSelectorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	tr, rects := benchRects(3000)
	var sel Selector
	for _, mt := range []int{1, 512} {
		if _, err := sel.Select(tr, rects, mt); err != nil { // warm
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := sel.Select(tr, rects, mt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("budget %d: %.1f allocs per warmed Select, want <= 1", mt, allocs)
		}
	}
}

// BenchmarkSelect covers an index build's token distribution: a rare token
// (two regions, budget 1 — most of the vocabulary), a hot one (thousands of
// regions, budget 512), and between them the shape most of a build's nodes
// come from — a handful of regions at a budget about their count, which the
// greedy follows down to single-region cells (on the benchmark corpus, 1.26M
// of the 2.42M nodes HSS visits split a one-region run).
func BenchmarkSelect(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		mt   int
	}{
		{"rare/n=2/mt=1", 2, 1},
		{"few/n=6/mt=6", 6, 6},
		{"hot/n=6000/mt=512", 6000, 512},
	} {
		b.Run(c.name, func(b *testing.B) {
			tr, rects := benchRects(c.n)
			var sel Selector
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sel.Select(tr, rects, c.mt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

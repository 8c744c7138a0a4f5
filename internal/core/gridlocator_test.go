package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridtree"
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/testutil"
	"github.com/sealdb/seal/internal/text"
)

// locatorOver freezes one token's ascending grids, with the given list
// lengths, into an index — as token 1, behind base one-posting filler lists of
// token 0, so its lists start at position base — and returns the token's
// locator as an open derives it, with the index it projects through.
func locatorOver(t testing.TB, tree *gridtree.Tree, base int, nodes, lens []uint32) (gridLocator, *invidx.Compressed) {
	t.Helper()
	run := func(group uint32, nodes, lens []uint32) invidx.CodedRun {
		r := invidx.CodedRun{Group: group, Nodes: nodes, Lens: lens}
		for _, n := range lens {
			for i := range n {
				r.Objs, r.Codes, r.TCodes = append(r.Objs, i), append(r.Codes, invidx.Code(1)), append(r.TCodes, invidx.Code(1))
			}
		}
		return r
	}
	side := 1 << tree.MaxLevel
	filler, ones := make([]uint32, base), make([]uint32, base)
	for i := range filler {
		filler[i], ones[i] = uint32(gridtree.MakeNodeID(tree.MaxLevel, i%side, i/side)), 1
	}
	idx := invidx.FromCodedRuns(2, []invidx.CodedRun{run(0, filler, ones), run(1, nodes, lens)})
	tl, err := deriveLocators(tree, 2, idx)
	if err != nil {
		t.Fatalf("locator over %d grids: %v", len(nodes), err)
	}
	loc, ok := tl.of(1)
	if !ok || loc.base != uint32(base) || !slices.Equal(loc.nodes, nodes) {
		t.Fatalf("locator over %d grids: derived %d grids at %d", len(nodes), len(loc.nodes), loc.base)
	}
	return loc, idx
}

// scanProjection is the reference projection: every grid of the run tested
// against r, sorted by the paper's global order spelled out — level, then list
// length, then node.
func scanProjection(loc gridLocator, lens []uint32, r geo.Rect) []gridHit {
	var want []gridHit
	for i, node := range loc.nodes {
		n := gridtree.NodeID(node)
		if w := loc.tree.Rect(n).IntersectionArea(r); w > 0 {
			want = append(want, gridHit{level: int32(n.Level()), n: int32(lens[i]), list: loc.base + uint32(i), w: w})
		}
	}
	slices.SortFunc(want, func(a, b gridHit) int {
		na, nb := gridtree.NodeID(loc.nodes[a.list-loc.base]), gridtree.NodeID(loc.nodes[b.list-loc.base])
		return cmp.Or(cmp.Compare(na.Level(), nb.Level()), cmp.Compare(a.n, b.n), cmp.Compare(na, nb))
	})
	return want
}

// randomGrids draws one token's grids over tree: a few levels, each holding
// from one grid to hundreds, spread uniformly or crowded into a band of rows,
// a band of columns or the space's edges — so a level's population is on
// either side of any rectangle's cell count. lens are 1 to 3 (ties are
// common, so the node tie-break is exercised).
func randomGrids(rng *rand.Rand, tree *gridtree.Tree) (nodes, lens []uint32) {
	seen := map[uint32]bool{}
	for range 1 + rng.Intn(4) {
		level := rng.Intn(tree.MaxLevel + 1)
		side := 1 << level
		k := []int{1, 2, 3, 4, 20, 200}[rng.Intn(6)]
		band := rng.Intn(side)
		for range k {
			ix, iy := rng.Intn(side), rng.Intn(side)
			switch rng.Intn(4) {
			case 1: // a band of rows
				iy = min(band+rng.Intn(3), side-1)
			case 2: // a band of columns
				ix = min(band+rng.Intn(3), side-1)
			case 3: // the edges
				ix, iy = []int{0, side - 1}[rng.Intn(2)], []int{0, side - 1, iy}[rng.Intn(3)]
			}
			seen[uint32(gridtree.MakeNodeID(level, ix, iy))] = true
		}
	}
	for n := range seen {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	for range nodes {
		lens = append(lens, uint32(1+rng.Intn(3)))
	}
	return nodes, lens
}

// probeRect draws a query rectangle over tree's space: tiny, medium, one
// covering everything, strips spanning many rows or columns, slivers on a cell
// edge of some level (on either side of it, on rows and on columns), and
// rectangles partly or wholly outside the space.
func probeRect(rng *rand.Rand, tree *gridtree.Tree) geo.Rect {
	sp := tree.Space
	w, h := sp.Width(), sp.Height()
	x, y := sp.MinX+rng.Float64()*w, sp.MinY+rng.Float64()*h
	cells := float64(int(1) << rng.Intn(tree.MaxLevel+1))
	edgeX := sp.MinX + float64(rng.Intn(int(cells)+1))*(w/cells)
	edgeY := sp.MinY + float64(rng.Intn(int(cells)+1))*(h/cells)
	eps := []float64{1e-9, 1e-6, 1e-3}[rng.Intn(3)] * min(w, h) / cells
	switch rng.Intn(10) {
	case 0: // tiny
		return geo.Rect{MinX: x, MinY: y, MaxX: x + w/500, MaxY: y + h/500}
	case 1: // medium
		return geo.Rect{MinX: x, MinY: y, MaxX: x + w/7, MaxY: y + h/7}
	case 2: // covers everything
		return geo.Rect{MinX: sp.MinX - 10, MinY: sp.MinY - 10, MaxX: sp.MaxX + 10, MaxY: sp.MaxY + 10}
	case 3: // a tall strip: many rows, few columns
		return geo.Rect{MinX: x, MinY: sp.MinY + h/50, MaxX: x + w/60, MaxY: sp.MaxY - h/50}
	case 4: // a wide strip: few rows, many columns
		return geo.Rect{MinX: sp.MinX, MinY: y, MaxX: sp.MaxX, MaxY: y + h/60}
	case 5: // a sliver along a row edge, below or above it
		if rng.Intn(2) == 0 {
			return geo.Rect{MinX: x - w/3, MinY: edgeY - eps, MaxX: x + w/3, MaxY: edgeY}
		}
		return geo.Rect{MinX: x - w/3, MinY: edgeY, MaxX: x + w/3, MaxY: edgeY + eps}
	case 6: // a sliver along a column edge, left or right of it
		if rng.Intn(2) == 0 {
			return geo.Rect{MinX: edgeX - eps, MinY: y - h/3, MaxX: edgeX, MaxY: y + h/3}
		}
		return geo.Rect{MinX: edgeX, MinY: y - h/3, MaxX: edgeX + eps, MaxY: y + h/3}
	case 7: // partly outside
		return geo.Rect{MinX: x - w, MinY: y - h/4, MaxX: x, MaxY: y + 2*h}
	case 8: // wholly outside
		return geo.Rect{MinX: sp.MaxX + 1, MinY: y, MaxX: sp.MaxX + 1 + w, MaxY: y + h}
	default: // the last cell of some level, to the space's corner
		return geo.Rect{MinX: sp.MaxX - w/cells, MinY: sp.MaxY - h/cells, MaxX: sp.MaxX, MaxY: sp.MaxY}
	}
}

// TestLocatorMatchesLinearScan: a projection must equal a linear scan of the
// token's run sorted by (level, list length, node) — grids, order, list
// positions, lengths and weights — for random grid sets and rectangles of
// every shape, on shallow trees and on trees at gridtree.MaxLevelLimit, where
// the next-level key MakeNodeID(level+1, 0, 0) is the largest a NodeID
// encodes and a cell range's end on the last column carries into the next
// row. One rule serves every level, so the check counts the levels probed
// whose population is below the rectangle's cell count and those at or above
// it, and needs both.
func TestLocatorMatchesLinearScan(t *testing.T) {
	var sparse, dense int
	check := func(loc gridLocator, idx *invidx.Compressed, lens []uint32, q geo.Rect) bool {
		if got, want := loc.project(q, idx, nil), scanProjection(loc, lens, q); !slices.Equal(got, want) {
			t.Logf("tree depth %d, grids %v, rect %v:\n got %v\nwant %v", loc.tree.MaxLevel, loc.nodes, q, got, want)
			return false
		}
		inSpace, _ := q.Intersection(loc.tree.Space)
		for lo := 0; lo < len(loc.nodes); {
			level := gridtree.NodeID(loc.nodes[lo]).Level()
			hi := lo
			for hi < len(loc.nodes) && gridtree.NodeID(loc.nodes[hi]).Level() == level {
				hi++
			}
			if ix0, iy0, ix1, iy1, ok := loc.cellRange(level, inSpace); ok && (ix1-ix0)*(iy1-iy0) > hi-lo {
				sparse++
			} else if ok {
				dense++
			}
			lo = hi
		}
		return true
	}

	spaces := []geo.Rect{
		{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024},
		{MinX: -73.5, MinY: 12.25, MaxX: 1311.7, MaxY: 777.1}, // cell edges are not exact binary fractions
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree, err := gridtree.New(spaces[rng.Intn(2)], []int{3, 6, 9, gridtree.MaxLevelLimit}[rng.Intn(4)])
		if err != nil {
			t.Fatal(err)
		}
		nodes, lens := randomGrids(rng, tree)
		loc, idx := locatorOver(t, tree, rng.Intn(1000), nodes, lens)
		for range 12 {
			if !check(loc, idx, lens, probeRect(rng, tree)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}

	// The far edges of a tree at MaxLevelLimit, every time.
	tree, err := gridtree.New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, gridtree.MaxLevelLimit)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []uint32
	for _, l := range []int{0, 13, gridtree.MaxLevelLimit} {
		e := 1<<l - 1
		for _, c := range [][2]int{{0, 0}, {e, 0}, {0, e}, {e / 2, e}, {e, e / 2}, {e, e}} {
			nodes = append(nodes, uint32(gridtree.MakeNodeID(l, c[0], c[1])))
		}
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	lens := make([]uint32, len(nodes))
	for i := range lens {
		lens[i] = uint32(1 + i%2)
	}
	loc, idx := locatorOver(t, tree, 3, nodes, lens)
	cell := 1.0 / (1 << gridtree.MaxLevelLimit)
	for _, q := range []geo.Rect{
		{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2},
		{MinX: 1 - cell/2, MinY: 1 - cell/2, MaxX: 1, MaxY: 1},
		{MinX: 0.3, MinY: 1 - cell/3, MaxX: 1.5, MaxY: 1.5},
		{MinX: 1 - cell/3, MinY: -0.5, MaxX: 1.5, MaxY: 0.7},
		{MinX: 0, MinY: 1 - 3*cell, MaxX: 1, MaxY: 1},
	} {
		if !check(loc, idx, lens, q) {
			t.Fatalf("rect %v at the far edges of a depth-%d tree", q, gridtree.MaxLevelLimit)
		}
	}
	// One-ulp slivers on every cell edge of a level's first row and column,
	// over a space whose cell edges are not exact binary fractions: there a
	// cell, as gridtree.Tree.Rect computes it, can end past its neighbour's
	// start, and the division that guesses a cell range can miss it.
	space := geo.Rect{MinX: -73.5, MinY: 12.25, MaxX: 1311.7, MaxY: 777.1}
	for level := 1; level <= 10; level++ {
		tree, err := gridtree.New(space, level)
		if err != nil {
			t.Fatal(err)
		}
		side := 1 << level
		var nodes []uint32
		for i := range side {
			nodes = append(nodes, uint32(gridtree.MakeNodeID(level, i, 0)))
		}
		for i := 1; i < side; i++ {
			nodes = append(nodes, uint32(gridtree.MakeNodeID(level, 0, i)))
		}
		slices.Sort(nodes)
		lens := make([]uint32, len(nodes))
		for i := range lens {
			lens[i] = 1
		}
		loc, idx := locatorOver(t, tree, 0, nodes, lens)
		cw, ch := space.Width()/float64(side), space.Height()/float64(side)
		for k := 1; k < side; k++ {
			x, y := space.MinX+float64(k)*cw, space.MinY+float64(k)*ch
			for _, q := range []geo.Rect{
				{MinX: math.Nextafter(x, math.Inf(-1)), MinY: space.MinY, MaxX: x, MaxY: space.MinY + ch},
				{MinX: x, MinY: space.MinY, MaxX: math.Nextafter(x, math.Inf(1)), MaxY: space.MinY + ch},
				{MinX: space.MinX, MinY: math.Nextafter(y, math.Inf(-1)), MaxX: space.MinX + cw, MaxY: y},
				{MinX: space.MinX, MinY: y, MaxX: space.MinX + cw, MaxY: math.Nextafter(y, math.Inf(1))},
			} {
				if !check(loc, idx, lens, q) {
					t.Fatalf("one-ulp sliver %v on a level-%d cell edge", q, level)
				}
			}
		}
	}
	if sparse == 0 || dense == 0 {
		t.Fatalf("levels probed: %d with fewer grids than cells in range, %d with as many or more; want both", sparse, dense)
	}
}

func TestLocatorEmptyProjection(t *testing.T) {
	tree, err := gridtree.New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024}, 6)
	if err != nil {
		t.Fatal(err)
	}
	nodes, lens := randomGrids(rand.New(rand.NewSource(5)), tree)
	loc, idx := locatorOver(t, tree, 10, nodes, lens)
	if hits := loc.project(geo.Rect{MinX: 5000, MinY: 5000, MaxX: 6000, MaxY: 6000}, idx, nil); len(hits) != 0 {
		t.Fatalf("projection outside the space = %v, want empty", hits)
	}
}

// derivationDatasets are the corpora TestLocatorsDerivedFromKeys runs over,
// each with the space its grid tree decomposes: the Twitter-like generator
// over its own extent, and adversarial region sets over a space that some of
// their regions straddle, cover or miss entirely.
type derivationCase struct {
	name  string
	ds    *model.Dataset
	space geo.Rect
}

func derivationDatasets(t *testing.T) []derivationCase {
	t.Helper()
	tw, err := gen.Twitter(gen.TwitterConfig{N: 1500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	out := []derivationCase{{"twitter", tw, tw.Space()}}
	spaces := []geo.Rect{
		{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024},
		{MinX: -73.5, MinY: 12.25, MaxX: 1311.7, MaxY: 777.1}, // cell edges are not exact binary fractions
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		space := spaces[seed%2]
		var b model.Builder
		for _, r := range testutil.AdversarialRects(rng, space, 300) {
			if _, err := b.Add(r, testutil.RandomTerms(rng, 12, 1+rng.Intn(4))); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, derivationCase{fmt.Sprintf("adversarial-%d", seed), ds, space})
	}
	return out
}

// TestLocatorsDerivedFromKeys: the locators a filter derives from its posting
// index — nodes off the keys, lengths off the lists — must project any
// rectangle onto the grids buildToken selected, in the order it bounded their
// postings in: its own projection sorted by the counts it took. That identity
// is what lets a segment directory drop the persisted grid selections without
// moving a candidate, and a mapped segment must project exactly as the index
// it was written from. Every projected hit names a list below Lists(), built
// and mapped: the positions Collect hands At can never stray.
func TestLocatorsDerivedFromKeys(t *testing.T) {
	for _, tc := range derivationDatasets(t) {
		ds, vocab := tc.ds, tc.ds.Vocab().Len()
		tree, err := gridtree.New(tc.space, 9)
		if err != nil {
			t.Fatal(err)
		}
		members := make([][]tokenPosting, vocab)
		for obj := 0; obj < ds.Len(); obj++ {
			for _, tok := range ds.Tokens(model.ObjectID(obj)) {
				members[tok] = append(members[tok], tokenPosting{obj: uint32(obj), tBound: 1})
			}
		}
		// One worker builds every token in order, as the index build does
		// per worker, keeping a copy of each token's grids and counts.
		type selection struct {
			nodes  []uint32
			counts []int32
		}
		wk := new(hierWorker)
		built := make([]selection, vocab)
		var runs []invidx.CodedRun
		for tok, tp := range members {
			if len(tp) == 0 {
				continue
			}
			mt := []int{1, 3, 8, 40, 8192}[tok%5]
			span, err := wk.buildToken(ds, tree, text.TokenID(tok), tp, mt)
			if err != nil {
				t.Fatal(err)
			}
			if span.list1 > span.list0 {
				built[tok] = selection{slices.Clone(wk.nodes), slices.Clone(wk.counts)}
				runs = append(runs, wk.run(text.TokenID(tok), span))
			}
		}
		cx := invidx.FromCodedRuns(vocab, runs)
		mapped := mapSegment(t, cx, ds.Len())
		derive := func(src *invidx.Compressed) *tokenLocators {
			tl, err := deriveLocators(tree, vocab, src)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return tl
		}
		fromBuilt, fromMapped := derive(cx), derive(mapped)
		rng := rand.New(rand.NewSource(99))
		probes := testutil.AdversarialRects(rng, tc.space, 40)
		for tok, sel := range built {
			loc, ok := fromBuilt.of(text.TokenID(tok))
			mloc, mok := fromMapped.of(text.TokenID(tok))
			if ok != (sel.nodes != nil) || mok != ok {
				t.Fatalf("%s token %d: derived locator present=%v (mapped %v), built present=%v", tc.name, tok, ok, mok, sel.nodes != nil)
			}
			if !ok {
				continue
			}
			// The build's projection: its grids, hits named by their
			// index in the selection, counted by its own tallies.
			bloc := gridLocator{tree: tree, nodes: sel.nodes}
			for _, r := range probes {
				want := bloc.appendHits(r, nil)
				for j := range want {
					want[j].n = sel.counts[want[j].list]
				}
				sortHits(want)
				got := loc.project(r, cx, nil)
				if m := mloc.project(r, mapped, nil); !slices.Equal(m, got) {
					t.Fatalf("%s token %d rect %v: mapped projection %v, built %v", tc.name, tok, r, m, got)
				}
				if len(got) != len(want) {
					t.Fatalf("%s token %d rect %v: projection has %d grids, the build's %d", tc.name, tok, r, len(got), len(want))
				}
				for j, h := range got {
					if int(h.list) >= cx.Lists() {
						t.Fatalf("%s token %d rect %v: hit at list %d of %d", tc.name, tok, r, h.list, cx.Lists())
					}
					b := want[j]
					if loc.nodes[h.list-loc.base] != bloc.nodes[b.list] || h.n != b.n || h.level != b.level || h.w != b.w {
						t.Fatalf("%s token %d rect %v: hit %d is node %x of length %d, the build's node %x of count %d",
							tc.name, tok, r, j, loc.nodes[h.list-loc.base], h.n, bloc.nodes[b.list], b.n)
					}
				}
			}
		}
	}
}

// TestDeriveLocatorsChecksRunsAndLevels: a mapped key column is outside
// input, validated by invidx as a run table and not as SEAL's. A run table of
// another vocabulary's length, a grid below the tree and an index that is not
// run-grouped at all are refused. The level check now also keeps the level
// walk finite: appendHits leaves a level by searching for MakeNodeID(level+1,
// 0, 0), and level+1 must not pass MaxLevelLimit + 1, past which the key wraps
// to 0. A token's width is no limit — there are no ranks to overflow — so a
// token with 65,536 grids opens and projects like a linear scan.
func TestDeriveLocatorsChecksRunsAndLevels(t *testing.T) {
	tree, err := gridtree.New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell of level 8: 65,536 grids of one token.
	one := invidx.Code(1)
	run := invidx.CodedRun{Group: 1}
	for iy := 0; iy < 256; iy++ {
		for ix := 0; ix < 256; ix++ {
			run.Nodes = append(run.Nodes, uint32(gridtree.MakeNodeID(8, ix, iy)))
			run.Lens = append(run.Lens, 1)
			run.Objs = append(run.Objs, 0)
			run.Codes = append(run.Codes, one)
			run.TCodes = append(run.TCodes, one)
		}
	}
	deep := invidx.CodedRun{Group: 1, Nodes: []uint32{uint32(gridtree.MakeNodeID(9, 0, 0))}, Lens: []uint32{1}, Objs: []uint32{0}, Codes: []uint16{one}, TCodes: []uint16{one}}
	var keyed invidx.Builder
	keyed.Dual = true
	keyed.AddDual(1<<32|uint64(run.Nodes[0]), 0, 1, 1)
	for name, ix := range map[string]*invidx.Compressed{
		"a run table shorter than the vocab": invidx.FromCodedRuns(2, []invidx.CodedRun{run}),
		"a run table longer than the vocab":  invidx.FromCodedRuns(4, []invidx.CodedRun{run}),
		"a grid below the tree":              invidx.FromCodedRuns(3, []invidx.CodedRun{deep}),
		"an index with a key array":          invidx.Compress(keyed.Build()),
	} {
		if _, err := deriveLocators(tree, 3, ix); err == nil {
			t.Fatalf("%s derived locators", name)
		}
	}
	loc, idx := locatorOver(t, tree, 0, run.Nodes, run.Lens)
	if len(loc.nodes) != 1<<16 {
		t.Fatalf("a token with 65,536 grids derived a locator over %d", len(loc.nodes))
	}
	rng := rand.New(rand.NewSource(3))
	for range 40 {
		q := probeRect(rng, tree)
		if got, want := loc.project(q, idx, nil), scanProjection(loc, run.Lens, q); !slices.Equal(got, want) {
			t.Fatalf("rect %v: a token with 65,536 grids projects %d hits, a linear scan %d", q, len(got), len(want))
		}
	}
}

// mapSegment writes cx to a segment file and maps it back, as a boot does.
func mapSegment(t *testing.T, cx *invidx.Compressed, objects int) *invidx.Compressed {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard.seg")
	if err := diskidx.WriteSegment(path, cx, objects); err != nil {
		t.Fatal(err)
	}
	seg, err := diskidx.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return seg.Source()
}

// TestStrayLocatorPanics: the Seal filter reaches its lists At the positions
// its locators hold. Those come from the key column the lists were validated
// with, so a position past Lists() is a bug, not bad storage, and there is no
// error to absorb: Collect panics naming the position and the count — the
// engine's runShard turns that into a shard error — when the projection reads
// the stray list's length, and scans no list.
func TestStrayLocatorPanics(t *testing.T) {
	ds, err := gen.Twitter(gen.TwitterConfig{N: 600, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewHierarchicalFilter(ds, HierarchicalConfig{MaxLevel: 8, GridBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	// A one-token query on an object's own region probes that token's lists.
	tok := slices.Max(ds.Tokens(0))
	q, err := ds.NewQuery(ds.Region(0), []string{ds.Vocab().Term(tok)}, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var st FilterStats
	f.Collect(q, NewCandidateSet(ds.Len()), &st, nil, &Scratch{})
	if tok == 0 || st.ListsProbed == 0 {
		t.Fatalf("fixture: token %d probed %d lists, want a token past 0 that probes", tok, st.ListsProbed)
	}

	// Move tok's run to start at Lists(), behind filler nodes in token 0: its
	// positions are now one past the last list and on.
	run := func(group uint32, nodes []uint32) invidx.CodedRun {
		r := invidx.CodedRun{Group: group, Nodes: nodes}
		for range nodes {
			r.Lens, r.Objs = append(r.Lens, 1), append(r.Objs, 0)
			r.Codes, r.TCodes = append(r.Codes, invidx.Code(1)), append(r.TCodes, invidx.Code(1))
		}
		return r
	}
	lists := f.idx.Lists()
	filler := make([]uint32, lists)
	for i := range filler {
		filler[i] = uint32(i)
	}
	lo, hi := f.locs.runs.Span(int(tok))
	runs, nodes := invidx.FromCodedRuns(ds.Vocab().Len(), []invidx.CodedRun{run(0, filler), run(uint32(tok), f.locs.nodes[lo:hi])}).Runs()
	f.locs = &tokenLocators{runs: *runs, tree: f.tree, nodes: nodes}

	st = FilterStats{}
	cs := NewCandidateSet(ds.Len())
	got := func() (v any) {
		defer func() { v = recover() }()
		f.Collect(q, cs, &st, nil, &Scratch{})
		return nil
	}()
	if msg, _ := got.(string); !strings.HasSuffix(msg, fmt.Sprintf("outside [0, %d)", lists)) {
		t.Fatalf("Collect over a stray position panicked with %v, want the position outside [0, %d)", got, lists)
	}
	if st.ListsProbed != 0 || st.PostingsScanned != 0 || cs.Len() != 0 {
		t.Fatalf("Collect scanned %d lists, %d postings, %d candidates before the stray position", st.ListsProbed, st.PostingsScanned, cs.Len())
	}
}

// TestTypedSortsMatchSortFunc: sortHits and sortEntries, which sort by
// insertion and, for lists, by a typed quicksort, put every slice in the
// order slices.SortFunc gives under their comparisons — at every length
// around the insertion cut-off and the quicksort's, over random, ascending,
// descending and few-valued keys.
func TestTypedSortsMatchSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, n := range []int{0, 1, 2, 3, 11, 12, 13, 14, 40, 257, 1000} {
		for shape := range 4 {
			key := func(i int) float64 {
				switch shape {
				case 1:
					return float64(i)
				case 2:
					return float64(n - i)
				case 3:
					return float64(rng.Intn(3))
				}
				return rng.Float64()
			}
			entries := make([]hierEntry, n)
			hits := make([]gridHit, n)
			for i := range entries {
				entries[i] = hierEntry{rBound: key(i), obj: uint32(rng.Intn(1 << 20)), tCode: uint16(i)}
				entries[i].obj = entries[i].obj<<11 | uint32(i) // distinct objects, as in a list
				hits[i] = gridHit{level: int32(key(i) * 3), n: int32(rng.Intn(4)), list: uint32(i), w: key(i)}
			}
			wantE := slices.Clone(entries)
			slices.SortFunc(wantE, func(a, b hierEntry) int {
				if c := cmp.Compare(b.rBound, a.rBound); c != 0 {
					return c
				}
				return cmp.Compare(a.obj, b.obj)
			})
			if sortEntries(entries); !slices.Equal(entries, wantE) {
				t.Fatalf("n %d shape %d: sortEntries disagrees with slices.SortFunc", n, shape)
			}
			wantH := slices.Clone(hits)
			slices.SortFunc(wantH, func(a, b gridHit) int {
				return cmp.Or(cmp.Compare(a.level, b.level), cmp.Compare(a.n, b.n), cmp.Compare(a.list, b.list))
			})
			if sortHits(hits); !slices.Equal(hits, wantH) {
				t.Fatalf("n %d shape %d: sortHits disagrees with slices.SortFunc", n, shape)
			}
		}
	}
}

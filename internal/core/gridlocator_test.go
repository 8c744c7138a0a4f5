package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridtree"
	"github.com/sealdb/seal/internal/hss"
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/testutil"
	"github.com/sealdb/seal/internal/text"
)

// buildLocator selects grids for a random region set and wraps them in a
// locator, returning both — the grids in the locator's global order — for
// cross-checking.
func buildLocator(t testingT, seed int64) (*gridtree.Tree, []hss.Grid, gridLocator, []geo.Rect) {
	rng := rand.New(rand.NewSource(seed))
	tree, err := gridtree.New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024}, 6)
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	n := 1 + rng.Intn(25)
	rects := make([]geo.Rect, 0, n)
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		rects = append(rects, geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*80 + 0.5, MaxY: y + rng.Float64()*80 + 0.5})
	}
	grids, err := hss.Select(tree, rects, 1+rng.Intn(40))
	if err != nil {
		t.Fatalf("hss: %v", err)
	}
	slices.SortFunc(grids, func(a, b hss.Grid) int { return cmp.Compare(a.Node, b.Node) })
	loc := gridLocator{tree: tree, pos: make([]uint16, len(grids)), base: 1000}
	var counts, order []int32
	for _, g := range grids {
		loc.nodes = append(loc.nodes, uint32(g.Node))
		counts = append(counts, int32(g.Count))
	}
	rankGrids(loc.nodes, counts, loc.pos, &order)
	ordered := make([]hss.Grid, len(grids))
	for i, g := range grids {
		ordered[loc.pos[i]] = g
	}
	for i := 1; i < len(ordered); i++ {
		a, b := ordered[i-1], ordered[i]
		if hierGridCmp(a.Node, int32(a.Count), b.Node, int32(b.Count)) >= 0 {
			t.Fatalf("grids %d and %d out of global order", i-1, i)
		}
	}
	return tree, ordered, loc, rects
}

type testingT interface {
	Fatalf(format string, args ...any)
}

// TestLocatorMatchesLinearScan: projection through the per-level index must
// agree exactly (grids, order, weights) with a brute-force scan of the grid
// set, for query rectangles of every size.
func TestLocatorMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		tree, grids, loc, _ := buildLocator(t, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5ea1))
		for trial := 0; trial < 10; trial++ {
			var q geo.Rect
			switch trial % 3 {
			case 0: // tiny
				x, y := rng.Float64()*1000, rng.Float64()*1000
				q = geo.Rect{MinX: x, MinY: y, MaxX: x + 2, MaxY: y + 2}
			case 1: // medium
				x, y := rng.Float64()*900, rng.Float64()*900
				q = geo.Rect{MinX: x, MinY: y, MaxX: x + 150, MaxY: y + 150}
			default: // covers everything (forces the scan fallback)
				q = geo.Rect{MinX: -10, MinY: -10, MaxX: 2000, MaxY: 2000}
			}
			got := loc.project(q, nil)
			// Brute force over the grid slice.
			type hit struct {
				idx int32
				w   float64
			}
			var want []hit
			for i, g := range grids {
				w := tree.Rect(g.Node).IntersectionArea(q)
				if w > 0 {
					want = append(want, hit{int32(i), w})
				}
			}
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i].idx != want[i].idx || math.Abs(got[i].w-want[i].w) > 1e-9 {
					return false
				}
				// The hit names its grid's list: the node's index, past base.
				if j := got[i].list - loc.base; uint32(grids[got[i].idx].Node) != loc.nodes[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLocatorEmptyProjection(t *testing.T) {
	_, _, loc, _ := buildLocator(t, 5)
	if hits := loc.project(geo.Rect{MinX: 5000, MinY: 5000, MaxX: 6000, MaxY: 6000}, nil); len(hits) != 0 {
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
// index — nodes off the keys, counts off the list lengths — must be the ones
// buildToken ranked from the HSS selection itself: same grids, same global
// order, so the same projection of any rectangle. That identity is what lets
// a segment directory drop the persisted grid selections without moving a
// candidate.
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
		// per worker, keeping a copy of each token's build-time locator.
		wk := new(hierWorker)
		built := make([]gridLocator, vocab)
		var runs []invidx.Run
		for tok, tp := range members {
			if len(tp) == 0 {
				continue
			}
			lists, postings := len(wk.run.Nodes), len(wk.run.Objs)
			mt := []int{1, 3, 8, 40, 8192}[tok%5]
			if err := wk.buildToken(ds, tree, text.TokenID(tok), tp, mt); err != nil {
				t.Fatal(err)
			}
			if len(wk.run.Nodes) > lists {
				pos := make([]uint16, len(wk.pos)) // the build ranks in int32
				for i, p := range wk.pos {
					pos[i] = uint16(p)
				}
				built[tok] = gridLocator{tree: tree, nodes: slices.Clone(wk.nodes), pos: pos, base: uint32(lists)}
				runs = append(runs, invidx.Run{Group: uint32(tok), Nodes: wk.run.Nodes[lists:], Lens: wk.run.Lens[lists:],
					Objs: wk.run.Objs[postings:], Bounds: wk.run.Bounds[postings:], TBounds: wk.run.TBounds[postings:]})
			}
		}
		raw := invidx.FromSortedRuns(vocab, runs)
		sources := map[string]invidx.Source{
			"raw":        raw,
			"compressed": invidx.Compress(raw),
		}
		rng := rand.New(rand.NewSource(99))
		probes := testutil.AdversarialRects(rng, tc.space, 40)
		for layout, src := range sources {
			label := tc.name + " " + layout
			derived, err := deriveLocators(tree, vocab, src)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for tok := range members {
				got, ok := derived.of(text.TokenID(tok))
				want := built[tok]
				if ok != (want.nodes != nil) {
					t.Fatalf("%s token %d: derived locator present=%v, built present=%v", label, tok, ok, want.nodes != nil)
				}
				if !slices.Equal(got.nodes, want.nodes) || !slices.Equal(got.pos, want.pos) {
					t.Fatalf("%s token %d: derived grids/ranks differ from the built ones\n got %x %v\nwant %x %v",
						label, tok, got.nodes, got.pos, want.nodes, want.pos)
				}
				if !ok {
					continue
				}
				for _, r := range probes {
					if g, w := got.project(r, nil), want.project(r, nil); !slices.Equal(g, w) {
						t.Fatalf("%s token %d rect %v: projection %v, want %v", label, tok, r, g, w)
					}
				}
			}
		}
	}
}

// TestDeriveLocatorsRejectsWideToken: a token's ranks are 16 bits wide, which
// the build's budget cap keeps far from mattering — but a mapped key column is
// outside input, validated by invidx as a run table and not as SEAL's, and a
// token with more keys than a rank can number is refused rather than ranked
// modulo 65,536. So are a run table of another vocabulary's length, a grid
// below the tree, and an index that is not run-grouped at all.
func TestDeriveLocatorsRejectsWideToken(t *testing.T) {
	tree, err := gridtree.New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell of level 8 is 65,536 grids: one too many for one token.
	run := invidx.Run{Group: 1}
	for iy := 0; iy < 256; iy++ {
		for ix := 0; ix < 256; ix++ {
			run.Nodes = append(run.Nodes, uint32(gridtree.MakeNodeID(8, ix, iy)))
			run.Lens = append(run.Lens, 1)
			run.Objs = append(run.Objs, 0)
			run.Bounds = append(run.Bounds, 1)
			run.TBounds = append(run.TBounds, 1)
		}
	}
	cut := func(r invidx.Run, n int) invidx.Run {
		return invidx.Run{Group: r.Group, Nodes: r.Nodes[:n], Lens: r.Lens[:n], Objs: r.Objs[:n], Bounds: r.Bounds[:n], TBounds: r.TBounds[:n]}
	}
	n := maxTokenKeys
	deep := cut(run, 1)
	deep.Nodes = []uint32{uint32(gridtree.MakeNodeID(9, 0, 0))}
	var keyed invidx.Builder
	keyed.Dual = true
	keyed.AddDual(1<<32|uint64(run.Nodes[0]), 0, 1, 1)
	for name, src := range map[string]invidx.Source{
		"a token with one key too many":      invidx.FromSortedRuns(3, []invidx.Run{run}),
		"a run table shorter than the vocab": invidx.FromSortedRuns(2, []invidx.Run{cut(run, n)}),
		"a run table longer than the vocab":  invidx.FromSortedRuns(4, []invidx.Run{cut(run, n)}),
		"a grid below the tree":              invidx.FromSortedRuns(3, []invidx.Run{deep}),
		"an index with a key array":          keyed.Build(),
	} {
		if _, err := deriveLocators(tree, 3, src); err == nil {
			t.Fatalf("%s derived locators", name)
		}
	}
	tl, err := deriveLocators(tree, 3, invidx.FromSortedRuns(3, []invidx.Run{cut(run, n)}))
	if err != nil {
		t.Fatalf("a token with %d keys: %v", n, err)
	}
	// Equal levels and counts: the global order is the node order.
	if loc, ok := tl.of(1); !ok || loc.pos[0] != 0 || int(loc.pos[n-1]) != n-1 {
		t.Fatalf("a token with %d keys is ranked wrong at the ends", n)
	}
}

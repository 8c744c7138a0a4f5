package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridtree"
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/text"
)

// gridLocator answers "which grids of this token's hierarchical partition
// intersect a rectangle?" without scanning the whole grid set.
//
// It needs no storage of its own. A hybrid key is token<<32 | node, the
// posting index keeps each token's nodes as one ascending run (the key column
// invidx.FromCodedRuns assembles from the build's coded runs, one run a
// token), and a NodeID carries its level in the top bits and its row above
// its column, so the token's run already is the per-level index: grouped by
// tree level, and within a level — a sparse subset of the 2^l × 2^l uniform
// grid — row-major, so a rectangle's grids at one level are one binary search
// and a short walk per row of its cell range.
//
// nodes[i] is also a posting list — list base+i of the index the run belongs
// to — so a hit names its list by position and nothing looks a key up; the
// list's length, which orders the hits, is read off the index as the query
// projects.
type gridLocator struct {
	tree  *gridtree.Tree
	nodes []uint32 // the token's grids (gridtree.NodeID), ascending
	base  uint32   // the position of nodes[0] in the index
}

// gridHit is one projected grid: its level, the length of its posting list,
// the list's position in the index, and the clipped area weight.
type gridHit struct {
	level int32
	n     int32
	list  uint32
	w     float64
}

// tokenLocators holds every token's locator for one posting index: the
// index's own run-grouped key column — for a mapped segment, its pages — and
// nothing derived from it.
type tokenLocators struct {
	runs  invidx.Extents // the index's, by value: token t's nodes are nodes[runs.Span(t)]
	tree  *gridtree.Tree
	nodes []uint32 // the index's
}

// deriveLocators checks that the posting index alone can serve as every
// token's locator. The grids of a token that hold postings are its run of
// nodes, and count(g) is the length of g's list, so the key column and list
// lengths carry the whole selection and its global order — the order
// buildToken bounded the postings in, which it takes from the same lengths.
// (A selected grid no region posts to has no key; it could never produce a
// candidate.) The column is outside input when the index is a mapped segment,
// validated by invidx as a run table but not as SEAL's: an index that is not
// run-grouped by the vocabulary's tokens, or a grid below the tree, is an
// error. The level check also keeps appendHits' level walk finite.
func deriveLocators(tree *gridtree.Tree, vocab int, src *invidx.Compressed) (*tokenLocators, error) {
	runs, nodes := src.Runs()
	if runs == nil || runs.Len() != vocab {
		return nil, fmt.Errorf("core: posting index does not group its keys into one run per token of the %d-token vocabulary", vocab)
	}
	for t := range vocab {
		lo, hi := runs.Span(t)
		if lo == hi {
			continue
		}
		// Nodes ascend: the last is deepest.
		if level := gridtree.NodeID(nodes[hi-1]).Level(); level > tree.MaxLevel {
			return nil, fmt.Errorf("core: token %d grid at level %d exceeds tree depth %d", t, level, tree.MaxLevel)
		}
	}
	return &tokenLocators{tree: tree, runs: *runs, nodes: nodes}, nil
}

// of returns token t's locator; ok is false when the token has no grids.
func (tl *tokenLocators) of(t text.TokenID) (loc gridLocator, ok bool) {
	lo, hi := tl.runs.Span(int(t))
	if lo == hi {
		return gridLocator{}, false
	}
	return gridLocator{tree: tl.tree, nodes: tl.nodes[lo:hi], base: uint32(lo)}, true
}

// project appends the grids sharing positive area with r to out in the
// token's global order, reading each hit's list length off idx, the index the
// locator's run belongs to.
func (loc gridLocator) project(r geo.Rect, idx *invidx.Compressed, out []gridHit) []gridHit {
	start := len(out)
	out = loc.appendHits(r, out)
	hits := out[start:]
	for i := range hits {
		hits[i].n = int32(idx.At(int(hits[i].list)).Len())
	}
	sortHits(hits)
	return out
}

// sortHits puts one projection in the token's global order, the paper's
// (Section 5.2): ascending level, then ascending count(g) — the number of the
// token's regions that post to g, the length of its list — then ascending
// list, which is node order because a token's nodes ascend with their lists.
// (The rare-first order, count before level, never pruned better on the
// benchmark corpus and was dropped.)
func sortHits(hits []gridHit) {
	slices.SortFunc(hits, func(a, b gridHit) int {
		switch {
		case a.level != b.level:
			return cmp.Compare(a.level, b.level)
		case a.n != b.n:
			return cmp.Compare(a.n, b.n)
		default:
			return cmp.Compare(a.list, b.list)
		}
	})
}

// appendHits is project without the lengths and the sort: hits come out in
// node order with n unset, which is all the build wants of a token whose
// lists it has yet to count.
//
// A level's nodes are row-major, so each row of the rectangle's cell range is
// one binary search, from where the last one ended, for the row's first cell,
// and a walk to its last. A search that lands on a later row skips the empty
// rows between, so a level costs O(min(rows, grids) · log) however wide the
// rectangle, and the next level starts at the search for its first node,
// MakeNodeID(level+1, 0, 0) — which exists because deriveLocators refuses a
// level past the tree, and a tree is at most gridtree.MaxLevelLimit deep.
func (loc gridLocator) appendHits(r geo.Rect, out []gridHit) []gridHit {
	inSpace, has := r.Intersection(loc.tree.Space)
	if !has || inSpace.IsDegenerate() {
		return out
	}
	nodes := loc.nodes
	for p := 0; p < len(nodes); {
		level := gridtree.NodeID(nodes[p]).Level()
		ix0, iy0, ix1, iy1, ok := loc.cellRange(level, inSpace)
		for iy := iy0; ok && iy < iy1; iy++ {
			first := uint32(gridtree.MakeNodeID(level, ix0, iy))
			end := first + uint32(ix1-ix0) // (level, ix1, iy): carries into the next row when ix1 = 2^14
			j, _ := slices.BinarySearch(nodes[p:], first)
			for p += j; p < len(nodes) && nodes[p] < end; p++ {
				if w := loc.tree.Rect(gridtree.NodeID(nodes[p])).IntersectionArea(r); w > 0 {
					out = append(out, gridHit{level: int32(level), list: loc.base + uint32(p), w: w})
				}
			}
			if p == len(nodes) || gridtree.NodeID(nodes[p]).Level() != level {
				break
			}
			iy = max(iy, gridtree.NodeID(nodes[p]).IY()-1) // the rows before the next grid are empty
		}
		j, _ := slices.BinarySearch(nodes[p:], uint32(gridtree.MakeNodeID(level+1, 0, 0)))
		p += j
	}
	return out
}

// cellRange returns the half-open cell index range at the given level of
// inter, a rectangle already clipped to the space: every cell sharing area
// with it, and at most one more on each side that only touches it.
func (loc gridLocator) cellRange(level int, inter geo.Rect) (ix0, iy0, ix1, iy1 int, ok bool) {
	space := loc.tree.Space
	p := 1 << level
	ix0, ix1 = cellSpan(inter.MinX, inter.MaxX, space.MinX, space.Width()/float64(p), p)
	iy0, iy1 = cellSpan(inter.MinY, inter.MaxY, space.MinY, space.Height()/float64(p), p)
	if ix0 >= ix1 || iy0 >= iy1 {
		return 0, 0, 0, 0, false
	}
	return ix0, iy0, ix1, iy1, true
}

// cellSpan returns the half-open range of the p cells of width c from origin
// that [lo, hi] overlaps. Cell i spans [origin + i·c, origin + i·c + c] as
// gridtree.Tree.Rect computes it, and in floating point that end can pass the
// next cell's start: the division's guess is widened while a neighbouring
// cell, so computed, still reaches into [lo, hi].
func cellSpan(lo, hi, origin, c float64, p int) (i0, i1 int) {
	i0 = clampCell(int((lo-origin)/c), p)
	for i0 > 0 && origin+float64(i0-1)*c+c > lo {
		i0--
	}
	i1 = clampCell(int((hi-origin)/c)+1, p+1)
	for i1 < p && origin+float64(i1)*c < hi {
		i1++
	}
	return i0, i1
}

func clampCell(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v >= hi {
		return hi - 1
	}
	return v
}

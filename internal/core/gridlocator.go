package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridtree"
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/text"
)

// gridLocator answers "which grids of this token's hierarchical partition
// intersect a rectangle?" without scanning the whole grid set.
//
// It needs no storage of its own beyond the grids' ranks. A hybrid key is
// token<<32 | node, the posting index keeps each token's nodes as one
// ascending run (invidx.FromSortedRuns), and a NodeID carries its level in the
// top bits, so the token's run already is the per-level index: grouped by
// tree level, and within a level — a sparse subset of the 2^l × 2^l uniform
// grid — sorted by node, so lookups are binary searches. For every level the
// locator enumerates the rectangle's cell range when it is smaller than the
// level's population, and falls back to scanning the level's grids otherwise,
// so projection is O(Σ_l min(rangeCells(l), |grids(l)|) · log).
//
// nodes[i] is also a posting list — list base+i of the index the run belongs
// to — so a hit names its list by position and nothing looks a key up.
type gridLocator struct {
	tree  *gridtree.Tree
	nodes []uint32 // the token's grids (gridtree.NodeID), ascending
	pos   []uint16 // pos[i] is the position of nodes[i] in the token's global order
	base  uint32   // the position of nodes[0] in the index
}

// gridHit is one projected grid: its position in the token's global order,
// the position of its posting list in the index, and the clipped area weight.
type gridHit struct {
	idx  int32
	list uint32
	w    float64
}

// hierGridCmp is the global order of one token's hierarchical grids, the
// paper's (Section 5.2): ascending level, then ascending count(g) — the
// number of the token's regions that post to g, the length of its list. Node
// breaks ties, so the order is total. (The rare-first order, count before
// level, never pruned better on the benchmark corpus and was dropped.)
func hierGridCmp(an gridtree.NodeID, ac int32, bn gridtree.NodeID, bc int32) int {
	return cmp.Or(cmp.Compare(an.Level(), bn.Level()), cmp.Compare(ac, bc), cmp.Compare(an, bn))
}

// rankGrids fills pos with the global-order position of each of one token's
// grids, given as its ascending nodes with their counts. order is scratch.
func rankGrids[P int32 | uint16](nodes []uint32, counts []int32, pos []P, order *[]int32) {
	o := (*order)[:0]
	for i := range nodes {
		o = append(o, int32(i))
	}
	*order = o
	slices.SortFunc(o, func(a, b int32) int {
		return hierGridCmp(gridtree.NodeID(nodes[a]), counts[a], gridtree.NodeID(nodes[b]), counts[b])
	})
	for rank, i := range o {
		pos[i] = P(rank)
	}
}

// tokenLocators holds every token's locator for one posting index as flat
// arrays over the index's own run-grouped key column — for a mapped segment,
// over its pages — so a filter keeps the ranks on the heap and nothing per
// grid beyond them.
type tokenLocators struct {
	runs  invidx.Extents // the index's, by value: token t's nodes are nodes[runs.Span(t)]
	tree  *gridtree.Tree
	nodes []uint32 // the index's
	pos   []uint16 // parallel to nodes; see gridLocator.pos
}

// maxTokenKeys is the most keys one token may have for its ranks to fit
// tokenLocators.pos. The build stops at maxTokenBudget, far below it.
const maxTokenKeys = math.MaxUint16

// deriveLocators rebuilds every token's locator from the posting index alone.
// The grids of a token that hold postings are its run of nodes, and count(g)
// is the length of g's list, so the key column and list lengths carry the
// whole selection and its global order — the very order buildToken bounded
// the postings in, which it ranks from the same lengths. (A selected grid no
// region posts to has no key; it could never produce a candidate.) The column
// is outside input when the index is a mapped segment, validated by invidx as
// a run table but not as SEAL's: an index that is not run-grouped by the
// vocabulary's tokens, a level below the tree or a token with more than
// maxTokenKeys keys is an error.
func deriveLocators(tree *gridtree.Tree, vocab int, src invidx.Source) (*tokenLocators, error) {
	runs, nodes := src.Runs()
	if runs == nil || runs.Len() != vocab {
		return nil, fmt.Errorf("core: posting index does not group its keys into one run per token of the %d-token vocabulary", vocab)
	}
	tl := &tokenLocators{tree: tree, runs: *runs, nodes: nodes, pos: make([]uint16, len(nodes))}

	// EachLen reports the lists in position order, each under its token's
	// key: gather one token's counts, and check and rank its run where the
	// next token's begins.
	var counts, order []int32
	var err error
	lo, i, token := 0, 0, uint64(0)
	endRun := func() {
		run := nodes[lo:i]
		switch n := len(run); {
		case err != nil || n == 0:
		case n > maxTokenKeys:
			err = fmt.Errorf("core: token %d has more than %d posting keys", token, maxTokenKeys)
		case gridtree.NodeID(run[n-1]).Level() > tree.MaxLevel: // nodes ascend: the last is deepest
			err = fmt.Errorf("core: token %d grid at level %d exceeds tree depth %d", token, gridtree.NodeID(run[n-1]).Level(), tree.MaxLevel)
		default:
			rankGrids(run, counts, tl.pos[lo:i], &order)
		}
		counts, lo = counts[:0], i
	}
	src.EachLen(func(key uint64, n int) {
		if key>>32 != token {
			endRun()
			token = key >> 32
		}
		counts = append(counts, int32(n))
		i++
	})
	endRun()
	if err != nil {
		return nil, err
	}
	return tl, nil
}

// of returns token t's locator; ok is false when the token has no grids.
func (tl *tokenLocators) of(t text.TokenID) (loc gridLocator, ok bool) {
	lo, hi := tl.runs.Span(int(t))
	if lo == hi {
		return gridLocator{}, false
	}
	return gridLocator{tree: tl.tree, nodes: tl.nodes[lo:hi], pos: tl.pos[lo:hi], base: uint32(lo)}, true
}

// sizeBytes is the heap the locators add to their index: the ranks.
func (tl *tokenLocators) sizeBytes() int64 { return int64(len(tl.pos)) * 2 }

// project appends the grids sharing positive area with r to out, sorted by
// global order position.
func (loc gridLocator) project(r geo.Rect, out []gridHit) []gridHit {
	start := len(out)
	out = loc.appendHits(r, out)
	hits := out[start:]
	for i := range hits {
		hits[i].idx = int32(loc.pos[hits[i].list-loc.base])
	}
	sortHits(hits)
	return out
}

// sortHits orders one projection by global order position.
func sortHits(hits []gridHit) {
	slices.SortFunc(hits, func(a, b gridHit) int {
		switch {
		case a.idx < b.idx:
			return -1
		case a.idx > b.idx:
			return 1
		default:
			return 0
		}
	})
}

// appendHits is project without the ranks and the sort: hits come out level
// by level with idx unset, which is all the build wants of a token whose
// grids it has yet to rank (loc.pos may be nil).
func (loc gridLocator) appendHits(r geo.Rect, out []gridHit) []gridHit {
	inSpace, has := r.Intersection(loc.tree.Space)
	if !has || inSpace.IsDegenerate() {
		return out
	}
	for lo := 0; lo < len(loc.nodes); {
		// One level's run: from lo to the first node of a deeper level.
		level := gridtree.NodeID(loc.nodes[lo]).Level()
		end, hi := lo+1, len(loc.nodes)
		for end < hi {
			mid := int(uint(end+hi) >> 1)
			if gridtree.NodeID(loc.nodes[mid]).Level() > level {
				hi = mid
			} else {
				end = mid + 1
			}
		}
		nodes, first := loc.nodes[lo:end], loc.base+uint32(lo)
		lo = end

		ix0, iy0, ix1, iy1, ok := loc.cellRange(level, inSpace)
		if !ok {
			continue
		}
		rangeCells := (ix1 - ix0) * (iy1 - iy0)
		if rangeCells > len(nodes) {
			// Sparse level: scanning its grids is cheaper.
			for j, n := range nodes {
				w := loc.tree.Rect(gridtree.NodeID(n)).IntersectionArea(r)
				if w > 0 {
					out = append(out, gridHit{list: first + uint32(j), w: w})
				}
			}
			continue
		}
		for iy := iy0; iy < iy1; iy++ {
			for ix := ix0; ix < ix1; ix++ {
				n := gridtree.MakeNodeID(level, ix, iy)
				// Manual binary search: sort.Search's closure would heap-escape
				// on this allocation-free path.
				j, hi := 0, len(nodes)
				for j < hi {
					mid := int(uint(j+hi) >> 1)
					if nodes[mid] < uint32(n) {
						j = mid + 1
					} else {
						hi = mid
					}
				}
				if j == len(nodes) || nodes[j] != uint32(n) {
					continue
				}
				w := loc.tree.Rect(n).IntersectionArea(r)
				if w > 0 {
					out = append(out, gridHit{list: first + uint32(j), w: w})
				}
			}
		}
	}
	return out
}

// cellRange returns the half-open cell index range at the given level of
// inter, a rectangle already clipped to the space.
func (loc gridLocator) cellRange(level int, inter geo.Rect) (ix0, iy0, ix1, iy1 int, ok bool) {
	space := loc.tree.Space
	p := 1 << level
	cw := space.Width() / float64(p)
	ch := space.Height() / float64(p)
	ix0 = clampCell(int((inter.MinX-space.MinX)/cw), p)
	iy0 = clampCell(int((inter.MinY-space.MinY)/ch), p)
	ix1 = clampCell(int((inter.MaxX-space.MinX)/cw)+1, p+1)
	iy1 = clampCell(int((inter.MaxY-space.MinY)/ch)+1, p+1)
	if ix0 >= ix1 || iy0 >= iy1 {
		return 0, 0, 0, 0, false
	}
	return ix0, iy0, ix1, iy1, true
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

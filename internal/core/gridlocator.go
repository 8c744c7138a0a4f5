package core

import (
	"cmp"
	"slices"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridtree"
	"github.com/sealdb/seal/internal/hss"
)

// gridLocator answers "which grids of this token's hierarchical partition
// intersect a rectangle?" without scanning the whole grid set. Grids are
// grouped by tree level; within a level the partition is a sparse subset of
// the 2^l × 2^l uniform grid, stored as a sorted node array so lookups are
// binary searches. For every level the locator enumerates the rectangle's
// cell range when it is smaller than the level's population, and falls back
// to scanning the level's grids otherwise, so projection is
// O(Σ_l min(rangeCells(l), |grids(l)|) · log).
type gridLocator struct {
	tree *gridtree.Tree
	// runs lists the populated levels in ascending order. Run i owns
	// nodes[start:end] — the level's grids sorted by NodeID — and the same
	// span of pos, their positions in the token's global order.
	runs  []levelRun
	nodes []gridtree.NodeID
	pos   []int32
}

type levelRun struct {
	level      int
	start, end int32
}

// gridHit is one projected grid: its position in the token's global order
// and the clipped area weight.
type gridHit struct {
	idx  int32
	node gridtree.NodeID
	w    float64
}

// newGridLocator indexes grids, which must already be in the token's global
// order (position i = order i).
func newGridLocator(tree *gridtree.Tree, grids []hss.Grid) *gridLocator {
	ordered := make([]gridtree.NodeID, len(grids))
	for i, g := range grids {
		ordered[i] = g.Node
	}
	return newGridLocatorNodes(tree, ordered)
}

// newGridLocatorNodes indexes a token's grids given only their node IDs in
// global order — all the locator ever uses of an hss.Grid, which is what
// lets a persisted segment rebuild locators without re-running HSS. It runs
// once per token on every build and every segment open, so it is a counting
// sort by level into two backing slices rather than a map of per-level ones.
func newGridLocatorNodes(tree *gridtree.Tree, ordered []gridtree.NodeID) *gridLocator {
	var count [gridtree.MaxLevelLimit + 2]int32 // NodeID keeps 4 bits of level
	for _, n := range ordered {
		count[n.Level()]++
	}
	populated := 0
	for _, c := range count {
		if c > 0 {
			populated++
		}
	}
	loc := &gridLocator{
		tree:  tree,
		runs:  make([]levelRun, 0, populated),
		nodes: make([]gridtree.NodeID, len(ordered)),
		pos:   make([]int32, len(ordered)),
	}
	var next [len(count)]int32 // next free slot of each level's run
	var off int32
	for l, c := range count {
		if c > 0 {
			loc.runs = append(loc.runs, levelRun{level: l, start: off, end: off + c})
		}
		next[l] = off
		off += c
	}
	for i, n := range ordered {
		l := n.Level()
		loc.pos[next[l]] = int32(i)
		next[l]++
	}
	for _, run := range loc.runs {
		pos := loc.pos[run.start:run.end]
		if len(pos) > 1 {
			slices.SortFunc(pos, func(a, b int32) int { return cmp.Compare(ordered[a], ordered[b]) })
		}
		for j, i := range pos {
			loc.nodes[int(run.start)+j] = ordered[i]
		}
	}
	return loc
}

// orderedNodes reconstructs the token's grids in global order, inverting the
// by-level layout.
func (loc *gridLocator) orderedNodes() []gridtree.NodeID {
	out := make([]gridtree.NodeID, len(loc.nodes))
	for j, n := range loc.nodes {
		out[loc.pos[j]] = n
	}
	return out
}

// project appends the grids sharing positive area with r to out, sorted by
// global order position.
func (loc *gridLocator) project(r geo.Rect, out []gridHit) []gridHit {
	start := len(out)
	inSpace, has := r.Intersection(loc.tree.Space)
	if !has || inSpace.IsDegenerate() {
		return out
	}
	for _, run := range loc.runs {
		level := run.level
		nodes := loc.nodes[run.start:run.end]
		pos := loc.pos[run.start:run.end]
		ix0, iy0, ix1, iy1, ok := loc.cellRange(level, inSpace)
		if !ok {
			continue
		}
		rangeCells := (ix1 - ix0) * (iy1 - iy0)
		if rangeCells > len(nodes) {
			// Sparse level: scanning its grids is cheaper.
			for j, n := range nodes {
				w := loc.tree.Rect(n).IntersectionArea(r)
				if w > 0 {
					out = append(out, gridHit{idx: pos[j], node: n, w: w})
				}
			}
			continue
		}
		for iy := iy0; iy < iy1; iy++ {
			for ix := ix0; ix < ix1; ix++ {
				n := gridtree.MakeNodeID(level, ix, iy)
				// Manual binary search: sort.Search's closure would heap-escape
				// on this allocation-free path.
				lo, hi := 0, len(nodes)
				for lo < hi {
					mid := int(uint(lo+hi) >> 1)
					if nodes[mid] < n {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				j := lo
				if j == len(nodes) || nodes[j] != n {
					continue
				}
				w := loc.tree.Rect(n).IntersectionArea(r)
				if w > 0 {
					out = append(out, gridHit{idx: pos[j], node: n, w: w})
				}
			}
		}
	}
	hits := out[start:]
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
	return out
}

// cellRange returns the half-open cell index range at the given level of
// inter, a rectangle already clipped to the space.
func (loc *gridLocator) cellRange(level int, inter geo.Rect) (ix0, iy0, ix1, iy1 int, ok bool) {
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

// sizeBytes estimates the locator's footprint.
func (loc *gridLocator) sizeBytes() int64 {
	return int64(len(loc.nodes))*8 + int64(len(loc.runs))*56
}

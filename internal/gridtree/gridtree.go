// Package gridtree implements the grid tree of Sections 4.3 and 5.2: a
// conceptual quadtree over the data space whose level-l grids form a 2^l×2^l
// uniform partition. It provides node geometry, the expected inverted-list
// size Î(g) of a grid under the uniform-query assumption, and the grid error
// of Definition 6 — the inputs of both grid-granularity selection and
// hierarchical hybrid signature selection (HSS).
//
// ExpectedListSize, NodeError and FilterIntersecting are the executable form
// of those definitions: one pass over the regions per quantity, written to be
// read against the paper. The index build does not call them — hss.Selector
// evaluates the same sums fused into one sweep per node — but it must agree
// with them bit for bit, and hss's differential test holds it to that, so a
// change to the arithmetic here is a change to every SEAL index.
package gridtree

import (
	"fmt"

	"github.com/sealdb/seal/internal/geo"
)

// MaxLevelLimit bounds the tree depth so a NodeID packs into 32 bits
// (4 bits level + 14 bits per coordinate).
const MaxLevelLimit = 14

// NodeID identifies a grid tree node: the cell (ix, iy) of the 2^level
// uniform partition of the space. The root is level 0, cell (0,0).
type NodeID uint32

// MakeNodeID packs (level, ix, iy). Arguments must satisfy
// 0 ≤ level ≤ MaxLevelLimit and 0 ≤ ix, iy < 2^level.
func MakeNodeID(level, ix, iy int) NodeID {
	return NodeID(uint32(level)<<28 | uint32(iy)<<14 | uint32(ix))
}

// Level returns the node's tree level (0 = root).
func (n NodeID) Level() int { return int(n >> 28) }

// IX returns the node's column within its level.
func (n NodeID) IX() int { return int(n & 0x3FFF) }

// IY returns the node's row within its level.
func (n NodeID) IY() int { return int((n >> 14) & 0x3FFF) }

// String formats the node as "L<level>(<ix>,<iy>)".
func (n NodeID) String() string {
	return fmt.Sprintf("L%d(%d,%d)", n.Level(), n.IX(), n.IY())
}

// Tree is a grid tree over a space rectangle with levels 0..MaxLevel.
// Level MaxLevel holds the "finest grids" of Section 5.2. A Tree comes from
// New, which fills its cell tables.
type Tree struct {
	Space    geo.Rect
	MaxLevel int
	// cellW[l] and cellH[l] are a level-l cell's width and height,
	// Space.Width()/2^l and Space.Height()/2^l, divided once here rather than
	// once a Rect.
	cellW, cellH [MaxLevelLimit + 1]float64
}

// New creates a grid tree. maxLevel must lie in [0, MaxLevelLimit] and the
// space must have positive area.
func New(space geo.Rect, maxLevel int) (*Tree, error) {
	if maxLevel < 0 || maxLevel > MaxLevelLimit {
		return nil, fmt.Errorf("gridtree: maxLevel %d outside [0,%d]", maxLevel, MaxLevelLimit)
	}
	if !space.Valid() || space.IsDegenerate() {
		return nil, fmt.Errorf("gridtree: space %v must have positive area", space)
	}
	t := &Tree{Space: space, MaxLevel: maxLevel}
	for l := range t.cellW {
		p := float64(int(1) << l)
		t.cellW[l], t.cellH[l] = space.Width()/p, space.Height()/p
	}
	return t, nil
}

// Root returns the level-0 node covering the whole space.
func (t *Tree) Root() NodeID { return MakeNodeID(0, 0, 0) }

// IsLeaf reports whether n sits at the finest level.
func (t *Tree) IsLeaf(n NodeID) bool { return n.Level() >= t.MaxLevel }

// Children returns n's four quadrant children (level+1). Calling Children
// on a leaf is a programming error and panics.
func (t *Tree) Children(n NodeID) [4]NodeID {
	l := n.Level()
	if l >= t.MaxLevel {
		panic("gridtree: Children of a leaf node")
	}
	ix, iy := n.IX()*2, n.IY()*2
	return [4]NodeID{
		MakeNodeID(l+1, ix, iy),
		MakeNodeID(l+1, ix+1, iy),
		MakeNodeID(l+1, ix, iy+1),
		MakeNodeID(l+1, ix+1, iy+1),
	}
}

// CellSize returns the width and height of a cell at the given level, the
// spans Rect adds to a cell's corner.
func (t *Tree) CellSize(level int) (w, h float64) { return t.cellW[level], t.cellH[level] }

// Rect returns the node's rectangle.
func (t *Tree) Rect(n NodeID) geo.Rect {
	w, h := t.CellSize(n.Level())
	minX := t.Space.MinX + float64(n.IX())*w
	minY := t.Space.MinY + float64(n.IY())*h
	return geo.Rect{MinX: minX, MinY: minY, MaxX: minX + w, MaxY: minY + h}
}

// ExpectedListSize returns Î(g) = Σ_o |g ∩ o.R| / |g| over the given object
// regions — the expected number of postings a uniformly-placed query would
// retrieve from g's inverted list (Section 5.2).
func (t *Tree) ExpectedListSize(n NodeID, rects []geo.Rect) float64 {
	r := t.Rect(n)
	area := r.Area()
	if area <= 0 {
		return 0
	}
	var sum float64
	for _, o := range rects {
		sum += r.IntersectionArea(o)
	}
	return sum / area
}

// NodeError returns Error(n) = Σ_{child c} (Î(n) − Î(c))², the approximation
// the HSS-Greedy algorithm uses in place of the finest-grid error of
// Definition 6. Leaves have error 0 by definition.
func (t *Tree) NodeError(n NodeID, rects []geo.Rect) float64 {
	if t.IsLeaf(n) {
		return 0
	}
	parent := t.ExpectedListSize(n, rects)
	var e float64
	for _, c := range t.Children(n) {
		d := parent - t.ExpectedListSize(c, rects)
		e += d * d
	}
	return e
}

// FilterIntersecting appends to out the indices (into rects) of regions
// sharing positive area with node n, and returns it. It is the subset that
// descends with n during greedy selection.
func (t *Tree) FilterIntersecting(n NodeID, rects []geo.Rect, subset []int, out []int) []int {
	r := t.Rect(n)
	if subset == nil {
		for i, o := range rects {
			if r.IntersectionArea(o) > 0 {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range subset {
		if r.IntersectionArea(rects[i]) > 0 {
			out = append(out, i)
		}
	}
	return out
}

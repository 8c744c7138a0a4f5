// Package rtree implements a static R-tree over axis-aligned rectangles —
// the spatial substrate of the Spatial-first baseline (Section 2.3). It is
// bulk-loaded with the Sort-Tile-Recursive (STR) algorithm and answers
// intersection (range) queries. Its level packer, Pack, also builds the
// IR-tree of internal/irtree.
package rtree

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/sealdb/seal/internal/geo"
)

// Entry is a leaf payload: a rectangle with an opaque item ID.
type Entry struct {
	Rect geo.Rect
	ID   uint32
}

type node struct {
	rect     geo.Rect
	children []*node // nil for leaves
	entries  []Entry // nil for internal nodes
}

func (n *node) isLeaf() bool { return n.children == nil }

// Tree is an R-tree. The zero value is not usable; create trees with
// BulkLoad.
type Tree struct {
	root   *node
	size   int
	height int
}

// BulkLoad builds a tree over entries with the STR algorithm (see Pack):
// entries tile into leaves, ties in a center broken by ascending ID, and each
// level's nodes tile into parents until one node is left. STR yields
// well-clustered leaves in O(n log n).
func BulkLoad(entries []Entry, fanout int) (*Tree, error) {
	if fanout < 4 {
		return nil, fmt.Errorf("rtree: fanout %d must be at least 4", fanout)
	}
	t := &Tree{size: len(entries), height: 1}
	if len(entries) == 0 {
		t.root = &node{}
		return t, nil
	}
	var level []*node
	byID := func(a, b Entry) bool { return a.ID < b.ID }
	for _, tile := range Pack(slices.Clone(entries), fanout, func(e Entry) geo.Rect { return e.Rect }, byID) {
		leaf := &node{entries: tile}
		leaf.recomputeRect()
		level = append(level, leaf)
	}
	for ; len(level) > 1; t.height++ {
		var parents []*node
		for _, tile := range Pack(level, fanout, func(n *node) geo.Rect { return n.rect }, nil) {
			p := &node{children: tile}
			p.recomputeRect()
			parents = append(parents, p)
		}
		level = parents
	}
	t.root = level[0]
	return t, nil
}

// Pack is one level of a Sort-Tile-Recursive bulk load: it cuts items into
// tiles of at most fanout, each tile one node of the level above. Items sort
// by the x-center of their rect into vertical slices of ⌈√tiles⌉·fanout
// items, each slice sorts by y-center, and each slice is cut into runs of
// fanout. tie, when not nil, orders items whose centers are equal. Pack
// reorders items and returns the tiles as subslices of it. The R-tree here
// and the IR-tree (internal/irtree) both pack their levels with it.
func Pack[T any](items []T, fanout int, rect func(T) geo.Rect, tie func(a, b T) bool) [][]T {
	less := func(a, b T, y bool) bool {
		ax, ay := rect(a).Center()
		bx, by := rect(b).Center()
		if y {
			ax, bx = ay, by
		}
		if ax != bx {
			return ax < bx
		}
		return tie != nil && tie(a, b)
	}
	n := len(items)
	tiles := (n + fanout - 1) / fanout
	sliceSize := int(math.Ceil(math.Sqrt(float64(tiles)))) * fanout
	sort.Slice(items, func(i, j int) bool { return less(items[i], items[j], false) })
	out := make([][]T, 0, tiles)
	for s := 0; s < n; s += sliceSize {
		slice := items[s:min(s+sliceSize, n)]
		sort.Slice(slice, func(i, j int) bool { return less(slice[i], slice[j], true) })
		for l := 0; l < len(slice); l += fanout {
			end := min(l+fanout, len(slice))
			out = append(out, slice[l:end:end])
		}
	}
	return out
}

func (n *node) recomputeRect() {
	if n.isLeaf() {
		if len(n.entries) == 0 {
			n.rect = geo.Rect{}
			return
		}
		r := n.entries[0].Rect
		for _, e := range n.entries[1:] {
			r = r.Extend(e.Rect)
		}
		n.rect = r
		return
	}
	r := n.children[0].rect
	for _, c := range n.children[1:] {
		r = r.Extend(c.rect)
	}
	n.rect = r
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int { return t.height }

// Bounds returns the MBR of all entries (zero Rect when empty).
func (t *Tree) Bounds() geo.Rect { return t.root.rect }

// SearchIntersecting calls fn for every entry whose rectangle intersects r
// (boundary touches included). Return false from fn to stop early.
func (t *Tree) SearchIntersecting(r geo.Rect, fn func(Entry) bool) {
	if t.size == 0 {
		return
	}
	searchNode(t.root, r, fn)
}

func searchNode(n *node, r geo.Rect, fn func(Entry) bool) bool {
	if !n.rect.Intersects(r) {
		return true
	}
	if n.isLeaf() {
		for _, e := range n.entries {
			if e.Rect.Intersects(r) {
				if !fn(e) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !searchNode(c, r, fn) {
			return false
		}
	}
	return true
}

// SearchOverlapping calls fn for every entry sharing positive area with r.
func (t *Tree) SearchOverlapping(r geo.Rect, fn func(Entry) bool) {
	t.SearchIntersecting(r, func(e Entry) bool {
		if e.Rect.IntersectionArea(r) > 0 {
			return fn(e)
		}
		return true
	})
}

// Validate checks structural invariants: every node rectangle contains its
// children/entries, leaves are at uniform depth, and fill bounds hold for
// non-root nodes after bulk load. It returns the first violation found.
func (t *Tree) Validate() error {
	if t.size == 0 {
		return nil
	}
	depth := -1
	var walk func(n *node, d int) error
	walk = func(n *node, d int) error {
		if n.isLeaf() {
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("rtree: leaves at depths %d and %d", depth, d)
			}
			for _, e := range n.entries {
				if !n.rect.Contains(e.Rect) {
					return fmt.Errorf("rtree: leaf rect %v misses entry %v", n.rect, e.Rect)
				}
			}
			return nil
		}
		for _, c := range n.children {
			if !n.rect.Contains(c.rect) {
				return fmt.Errorf("rtree: node rect %v misses child %v", n.rect, c.rect)
			}
			if err := walk(c, d+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, 0)
}

// SizeBytes estimates the index footprint: each entry costs a rect + ID,
// each internal child a rect + pointer.
func (t *Tree) SizeBytes() int64 {
	var nodes, entries, children int64
	var walk func(n *node)
	walk = func(n *node) {
		nodes++
		if n.isLeaf() {
			entries += int64(len(n.entries))
			return
		}
		children += int64(len(n.children))
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return entries*36 + children*40 + nodes*48
}

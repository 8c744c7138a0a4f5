// Package rtree implements a static R-tree over axis-aligned rectangles —
// the spatial substrate of the Spatial-first baseline (Section 2.3). It is
// bulk-loaded with the Sort-Tile-Recursive (STR) algorithm and answers
// intersection (range) queries. (The IR-tree in internal/irtree packs its
// own STR tree.)
package rtree

import (
	"fmt"
	"math"
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

// BulkLoad builds a tree over entries with the STR algorithm: entries are
// sorted into vertical slices by x-center, each slice sorted by y-center and
// cut into tiles of fanout entries; the procedure recurses over the
// resulting nodes. STR yields well-clustered leaves in O(n log n).
func BulkLoad(entries []Entry, fanout int) (*Tree, error) {
	if fanout < 4 {
		return nil, fmt.Errorf("rtree: fanout %d must be at least 4", fanout)
	}
	t := &Tree{}
	if len(entries) == 0 {
		t.root = &node{}
		t.height = 1
		return t, nil
	}
	es := make([]Entry, len(entries))
	copy(es, entries)

	leaves := strPack(es, fanout)
	t.size = len(es)
	t.height = 1
	level := leaves
	for len(level) > 1 {
		level = packNodes(level, fanout)
		t.height++
	}
	t.root = level[0]
	return t, nil
}

// strPack cuts entries into fanout-sized leaves using sort-tile-recursive.
func strPack(es []Entry, fanout int) []*node {
	n := len(es)
	leafCount := (n + fanout - 1) / fanout
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sliceSize := sliceCount * fanout

	sort.Slice(es, func(i, j int) bool {
		xi, _ := es[i].Rect.Center()
		xj, _ := es[j].Rect.Center()
		if xi != xj {
			return xi < xj
		}
		return es[i].ID < es[j].ID
	})
	var leaves []*node
	for s := 0; s < n; s += sliceSize {
		end := s + sliceSize
		if end > n {
			end = n
		}
		slice := es[s:end]
		sort.Slice(slice, func(i, j int) bool {
			_, yi := slice[i].Rect.Center()
			_, yj := slice[j].Rect.Center()
			if yi != yj {
				return yi < yj
			}
			return slice[i].ID < slice[j].ID
		})
		for l := 0; l < len(slice); l += fanout {
			lend := l + fanout
			if lend > len(slice) {
				lend = len(slice)
			}
			leaf := &node{entries: append([]Entry(nil), slice[l:lend]...)}
			leaf.recomputeRect()
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packNodes groups a level of nodes into parents of up to fanout children,
// using the same tiling strategy on node centers.
func packNodes(nodes []*node, fanout int) []*node {
	n := len(nodes)
	parentCount := (n + fanout - 1) / fanout
	sliceCount := int(math.Ceil(math.Sqrt(float64(parentCount))))
	sliceSize := sliceCount * fanout

	sort.Slice(nodes, func(i, j int) bool {
		xi, _ := nodes[i].rect.Center()
		xj, _ := nodes[j].rect.Center()
		return xi < xj
	})
	var parents []*node
	for s := 0; s < n; s += sliceSize {
		end := s + sliceSize
		if end > n {
			end = n
		}
		slice := nodes[s:end]
		sort.Slice(slice, func(i, j int) bool {
			_, yi := slice[i].rect.Center()
			_, yj := slice[j].rect.Center()
			return yi < yj
		})
		for l := 0; l < len(slice); l += fanout {
			lend := l + fanout
			if lend > len(slice) {
				lend = len(slice)
			}
			p := &node{children: append([]*node(nil), slice[l:lend]...)}
			p.recomputeRect()
			parents = append(parents, p)
		}
	}
	return parents
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

// Package hss implements the Hierarchical hybrid Signature Selection (HSS)
// problem of Section 5.2 and its greedy solution (Algorithm 2, Figure 11).
//
// Given the set of object regions that contain a token t and a budget mt,
// HSS-Greedy selects at most mt hierarchical grids from the grid tree so
// that the summed grid error (Definition 6) is small: it repeatedly splits
// the enqueued node with the largest error into its four children while the
// budget allows. The exact problem is NP-hard (Theorem 1, by reduction from
// rectangular partitioning), which is why a greedy approximation is used.
//
// The grid error is gridtree's NodeError over the regions FilterIntersecting
// keeps; those two methods are the executable definition, and the Selector
// here is a one-pass evaluation of them that must agree bit for bit (the
// differential test in this package holds it to that). One sweep over a
// node's regions yields its error and, per region, which of its four children
// the region reaches; a split then hands each child the regions its bit
// marks and the overlap sum the sweep already formed for it, so no region is
// ever tested against a child's rectangle.
package hss

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridtree"
)

// Grid is one selected hierarchical grid: the tree node plus the number of
// subject regions intersecting it (count(g), which defines the global order
// of hierarchical grids — ascending level, then ascending count).
type Grid struct {
	Node  gridtree.NodeID
	Count int
}

// Selector runs HSS-Greedy reusing its queue, subset arena and result buffer
// across calls, so a warmed Selector selects without allocating. An index
// build keeps one per worker. The zero value is ready; a Selector must not be
// used from two goroutines at once.
type Selector struct {
	queue []queueItem
	// arena holds every enqueued node's subset — ascending indices into the
	// caller's rects — as one run of arena[off:off+n]. Runs are only ever
	// appended; the arena is rewound at the start of the next Select.
	arena []int32
	// masks parallels arena: bit c of masks[k] is set when region arena[k]
	// shares positive area with child c (tree.Children order) of the node
	// whose run holds k. Entries of a leaf's run are not written.
	masks []uint8
	out   []Grid
}

// queueItem is one enqueued node with its subset's run in the arena, the
// OR of that run's masks — the children some region reaches — and each
// child's Σ|c ∩ o| over the run.
type queueItem struct {
	err  float64
	sums [4]float64
	off  int
	node gridtree.NodeID
	n    int32
	mask uint8
}

// before orders the queue: largest error first, NodeID as the deterministic
// tie-break.
func (a *queueItem) before(b *queueItem) bool {
	if a.err != b.err {
		return a.err > b.err
	}
	return a.node < b.node
}

// push and pop are container/heap's Push and Pop on the typed slice (same
// sift order, no interface boxing).
func (s *Selector) push(it queueItem) {
	q := append(s.queue, it)
	s.queue = q
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !q[j].before(&q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (s *Selector) pop() queueItem {
	q := s.queue
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].before(&q[j]) {
			j = r
		}
		if !q[j].before(&q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	s.queue = q[:n]
	return q[n]
}

// Select runs HSS-Greedy for the given object regions under budget mt and
// returns the selected grids with their intersection counts. Children that
// intersect no region are dropped (they can hold no postings), so the result
// covers every region but not necessarily the whole space. The result is
// empty when no region overlaps the tree's space. It aliases the Selector's
// buffer and is valid until the next call.
//
// Each node is swept once, when it is enqueued (see measure); the sweep
// leaves a child mask per region and one for the node. Splitting the node
// copies each reached child's regions out of the node's run by mask, in run
// order, and takes the child's overlap sum from the node: the subset
// FilterIntersecting would keep and the sum NodeError would form.
func (s *Selector) Select(tree *gridtree.Tree, rects []geo.Rect, mt int) ([]Grid, error) {
	if mt < 1 {
		return nil, fmt.Errorf("hss: budget %d must be at least 1", mt)
	}
	s.queue, s.out = s.queue[:0], s.out[:0]
	s.arena = slices.Grow(s.arena[:0], len(rects))
	root, cell := tree.Root(), tree.Rect(tree.Root())
	var whole float64
	for i, o := range rects {
		if a := cell.IntersectionArea(o); a > 0 {
			s.arena = append(s.arena, int32(i))
			whole += a
		}
	}
	if len(s.arena) == 0 {
		return s.out, nil
	}
	s.push(s.measure(tree, rects, root, whole, 0, int32(len(s.arena))))
	for len(s.queue) > 0 {
		it := s.pop()
		if tree.IsLeaf(it.node) {
			s.out = append(s.out, Grid{Node: it.node, Count: int(it.n)})
			continue
		}
		// Splitting replaces the dequeued grid with its non-empty children —
		// the bits of its mask; every queued or finalized grid contributes at
		// least one output grid, so the final size would be at least
		// len(out)+len(queue) plus their number. Keep the node whole when that
		// would exceed the budget (the |Gt|+|Q|+|Nc|-1 check of Algorithm 2).
		if bits.OnesCount8(it.mask) > mt-len(s.out)-len(s.queue) {
			s.out = append(s.out, Grid{Node: it.node, Count: int(it.n)})
			continue
		}
		for c, child := range tree.Children(it.node) {
			bit := uint8(1) << c
			if it.mask&bit == 0 {
				continue
			}
			start := len(s.arena)
			s.arena = slices.Grow(s.arena, int(it.n))
			for k, i := range s.arena[it.off : it.off+int(it.n)] {
				if s.masks[it.off+k]&bit != 0 {
					s.arena = append(s.arena, i)
				}
			}
			s.push(s.measure(tree, rects, child, it.sums[c], start, int32(len(s.arena)-start)))
		}
	}
	return s.out, nil
}

// measure sweeps node's subset, the run arena[off:off+n] of regions sharing
// positive area with it whose Σ|node ∩ o| is whole, and returns node's queue
// entry: its error, each region's child mask (written to masks[off:off+n]),
// the node's mask and its children's sums.
//
// The error must equal tree.NodeError over exactly that subset, bit for bit,
// because it decides the split order and through it the index. NodeError sums
// Rect(q).IntersectionArea(o) per quadrant q of node, in subset order. All
// four quadrants share two column and two row spans, and an intersection area
// is (overlap in x)·(overlap in y), so the sweep computes four overlaps per
// region and forms the same four products from the same operands. A quadrant
// the region misses contributes the +0 IntersectionArea would have returned,
// which leaves a sum unchanged, so it is skipped; a quadrant whose product is
// positive is one FilterIntersecting keeps the region for, so its bit is set.
// The regions are finite (model validates them), so a product of two positive
// spans is positive unless it underflows, and an underflowed +0 again leaves
// the sum unchanged: the child's whole is this sum over the regions its bit
// marks, in run order — the sum the child's own filter would have formed.
func (s *Selector) measure(tree *gridtree.Tree, rects []geo.Rect, node gridtree.NodeID, whole float64, off int, n int32) queueItem {
	it := queueItem{node: node, off: off, n: n}
	s.masks = slices.Grow(s.masks[:off], int(n))[:off+int(n)]
	if tree.IsLeaf(node) { // error 0 by definition, and never split
		return it
	}

	// The quadrants are tree.Children(node) in order: (left, bottom),
	// (right, bottom), (left, top), (right, top). A grid rect's x span
	// depends only on its column and its y span only on its row, so two of
	// them give all four.
	level, ix, iy := node.Level()+1, node.IX()*2, node.IY()*2
	lb := tree.Rect(gridtree.MakeNodeID(level, ix, iy))
	rt := tree.Rect(gridtree.MakeNodeID(level, ix+1, iy+1))
	var q0, q1, q2, q3 float64
	masks := s.masks[off:]
	for k, i := range s.arena[off : off+int(n)] {
		o := rects[i]
		wl := min(lb.MaxX, o.MaxX) - max(lb.MinX, o.MinX)
		wr := min(rt.MaxX, o.MaxX) - max(rt.MinX, o.MinX)
		hb := min(lb.MaxY, o.MaxY) - max(lb.MinY, o.MinY)
		ht := min(rt.MaxY, o.MaxY) - max(rt.MinY, o.MinY)
		var m uint8
		if wl > 0 {
			if hb > 0 {
				if a := wl * hb; a > 0 {
					q0 += a
					m |= 1
				}
			}
			if ht > 0 {
				if a := wl * ht; a > 0 {
					q2 += a
					m |= 4
				}
			}
		}
		if wr > 0 {
			if hb > 0 {
				if a := wr * hb; a > 0 {
					q1 += a
					m |= 2
				}
			}
			if ht > 0 {
				if a := wr * ht; a > 0 {
					q3 += a
					m |= 8
				}
			}
		}
		masks[k] = m
		it.mask |= m
	}
	it.sums = [4]float64{q0, q1, q2, q3}

	lt := geo.Rect{MinX: lb.MinX, MaxX: lb.MaxX, MinY: rt.MinY, MaxY: rt.MaxY}
	rb := geo.Rect{MinX: rt.MinX, MaxX: rt.MaxX, MinY: lb.MinY, MaxY: lb.MaxY}
	p := expected(whole, tree.Rect(node))
	for _, c := range [4]float64{expected(q0, lb), expected(q1, rb), expected(q2, lt), expected(q3, rt)} {
		d := p - c
		it.err += d * d
	}
	return it
}

// expected is Î(g) = Σ|g ∩ o| / |g| given the sum, and 0 for a grid without
// area, as tree.ExpectedListSize has it.
func expected(sum float64, g geo.Rect) float64 {
	area := g.Area()
	if area <= 0 {
		return 0
	}
	return sum / area
}

// Select runs HSS-Greedy once on a fresh Selector; see Selector.Select. The
// result is the caller's to keep.
func Select(tree *gridtree.Tree, rects []geo.Rect, mt int) ([]Grid, error) {
	var s Selector
	grids, err := s.Select(tree, rects, mt)
	return slices.Clone(grids), err
}

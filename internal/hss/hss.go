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
// differential test in this package holds it to that).
package hss

import (
	"fmt"
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
	out   []Grid
}

// queueItem is one enqueued node with its subset's run in the arena.
type queueItem struct {
	err  float64
	off  int
	node gridtree.NodeID
	n    int32
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
func (s *Selector) Select(tree *gridtree.Tree, rects []geo.Rect, mt int) ([]Grid, error) {
	if mt < 1 {
		return nil, fmt.Errorf("hss: budget %d must be at least 1", mt)
	}
	s.queue, s.out = s.queue[:0], s.out[:0]
	// The root filters the identity subset like any child filters its
	// parent's.
	s.arena = slices.Grow(s.arena[:0], len(rects))[:len(rects)]
	for i := range s.arena {
		s.arena[i] = int32(i)
	}
	if root, ok := s.enqueueNode(tree, rects, tree.Root(), 0, int32(len(rects))); ok {
		s.push(root)
	}
	for len(s.queue) > 0 {
		it := s.pop()
		if tree.IsLeaf(it.node) {
			s.out = append(s.out, Grid{Node: it.node, Count: int(it.n)})
			continue
		}
		children := tree.Children(it.node)
		// Splitting replaces the dequeued grid with its non-empty children;
		// every queued or finalized grid contributes at least one output
		// grid, so the final size would be at least len(out)+len(queue) plus
		// their number. Keep the node whole when that would exceed the budget
		// (the |Gt|+|Q|+|Nc|-1 check of Algorithm 2). Room for all four needs
		// no count; otherwise counting stops at the first region per child,
		// which is all the exhausted-budget tail of a run ever pays per node.
		if room := mt - len(s.out) - len(s.queue); room < len(children) {
			nonEmpty := 0
			for _, c := range children {
				if nonEmpty <= room && s.intersectsAny(tree.Rect(c), rects, it.off, it.n) {
					nonEmpty++
				}
			}
			if nonEmpty > room {
				s.out = append(s.out, Grid{Node: it.node, Count: int(it.n)})
				continue
			}
		}
		for _, c := range children {
			if child, ok := s.enqueueNode(tree, rects, c, it.off, it.n); ok {
				s.push(child)
			}
		}
	}
	return s.out, nil
}

// intersectsAny reports whether any region of the subset arena[off:off+n]
// shares positive area with cell.
func (s *Selector) intersectsAny(cell geo.Rect, rects []geo.Rect, off int, n int32) bool {
	for _, i := range s.arena[off : off+int(n)] {
		if cell.IntersectionArea(rects[i]) > 0 {
			return true
		}
	}
	return false
}

// enqueueNode filters the parent subset arena[off:off+n] down to the regions
// sharing positive area with node, appends them to the arena as node's own
// subset, and computes node's error in the same sweep. ok is false when no
// region intersects node; nothing is kept then.
//
// The error must equal tree.NodeError over exactly that subset, bit for bit,
// because it decides the split order and through it the index. NodeError sums
// Rect(q).IntersectionArea(o) per quadrant q of node, in subset order. All
// four quadrants share two column and two row spans, and an intersection area
// is (overlap in x)·(overlap in y), so the sweep computes four overlaps per
// region and forms the same four products from the same operands; a quadrant
// the region misses contributes the +0 IntersectionArea would have returned,
// which leaves a sum unchanged, so it is skipped.
func (s *Selector) enqueueNode(tree *gridtree.Tree, rects []geo.Rect, node gridtree.NodeID, off int, n int32) (queueItem, bool) {
	cell := tree.Rect(node)
	start := len(s.arena)
	// Grow first: the append below must not move the parent run mid-sweep.
	s.arena = slices.Grow(s.arena, int(n))
	parent := s.arena[off : off+int(n)]

	if tree.IsLeaf(node) { // error 0 by definition
		for _, i := range parent {
			if cell.IntersectionArea(rects[i]) > 0 {
				s.arena = append(s.arena, i)
			}
		}
		kept := int32(len(s.arena) - start)
		return queueItem{node: node, off: start, n: kept}, kept > 0
	}

	// The quadrants are tree.Children(node) in order: (left, bottom),
	// (right, bottom), (left, top), (right, top). A grid rect's x span
	// depends only on its column and its y span only on its row, so two of
	// them give all four.
	level, ix, iy := node.Level()+1, node.IX()*2, node.IY()*2
	lb := tree.Rect(gridtree.MakeNodeID(level, ix, iy))
	rt := tree.Rect(gridtree.MakeNodeID(level, ix+1, iy+1))
	var whole, q0, q1, q2, q3 float64
	for _, i := range parent {
		o := rects[i]
		a := cell.IntersectionArea(o)
		if !(a > 0) {
			continue
		}
		s.arena = append(s.arena, i)
		whole += a
		wl := min(lb.MaxX, o.MaxX) - max(lb.MinX, o.MinX)
		wr := min(rt.MaxX, o.MaxX) - max(rt.MinX, o.MinX)
		hb := min(lb.MaxY, o.MaxY) - max(lb.MinY, o.MinY)
		ht := min(rt.MaxY, o.MaxY) - max(rt.MinY, o.MinY)
		if !(wl <= 0) {
			if !(hb <= 0) {
				q0 += wl * hb
			}
			if !(ht <= 0) {
				q2 += wl * ht
			}
		}
		if !(wr <= 0) {
			if !(hb <= 0) {
				q1 += wr * hb
			}
			if !(ht <= 0) {
				q3 += wr * ht
			}
		}
	}
	kept := int32(len(s.arena) - start)
	if kept == 0 {
		return queueItem{}, false
	}

	lt := geo.Rect{MinX: lb.MinX, MaxX: lb.MaxX, MinY: rt.MinY, MaxY: rt.MaxY}
	rb := geo.Rect{MinX: rt.MinX, MaxX: rt.MaxX, MinY: lb.MinY, MaxY: lb.MaxY}
	p := expected(whole, cell)
	var e float64
	for _, c := range [4]float64{expected(q0, lb), expected(q1, rb), expected(q2, lt), expected(q3, rt)} {
		d := p - c
		e += d * d
	}
	return queueItem{err: e, node: node, off: start, n: kept}, true
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

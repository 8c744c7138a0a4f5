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
// ever tested against a child's rectangle. A run whose bounding box lies
// inside one child needs no sweep at all (see measure).
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
	// caller's rects — as one run of arena[off:off+n]. A split appends its
	// children's runs, except that a lone child every region reaches takes
	// its parent's run as it is; the arena is rewound at the start of the
	// next Select.
	arena []int32
	// masks parallels arena: bit c of masks[k] is set when region arena[k]
	// shares positive area with child c (tree.Children order) of the node
	// last swept over the run that holds k. Only a split that copies regions
	// out of a run reads them — to two or more children, or to a lone child
	// some region misses — and a node whose run was not swept (see measure)
	// is never split that way.
	masks []uint8
	out   []Grid
}

// queueItem is one enqueued node with its subset's run in the arena, the
// OR of that run's masks — the children some region reaches — and their AND
// — the children every region reaches — and each child's Σ|c ∩ o| over the
// run.
type queueItem struct {
	err         float64
	sums        [4]float64
	off         int
	node        gridtree.NodeID
	n           int32
	mask, every uint8
}

// runBox is what is known of a run without sweeping it: r bounds every
// region of it and area is Σ|o| over it, in run order. The zero runBox knows
// nothing.
type runBox struct {
	r    geo.Rect
	area float64
	ok   bool
}

// boxOf measures the run arena[off:off+n]: its regions' bounding box and
// summed areas.
func (s *Selector) boxOf(rects []geo.Rect, off int, n int32) runBox {
	run := s.arena[off : off+int(n)]
	b := runBox{r: rects[run[0]], ok: true}
	for _, i := range run {
		o := rects[i]
		b.r = b.r.Extend(o)
		b.area += (o.MaxX - o.MinX) * (o.MaxY - o.MinY)
	}
	return b
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
// Each node is measured once, when it is enqueued (see measure), which
// leaves the node its error, its children's overlap sums and which children
// its regions reach; a split hands each reached child the regions that reach
// it, in run order, and its sum: the subset FilterIntersecting would keep and
// the sum NodeError would form.
//
// The queue's order is total, so the sequence of dequeued nodes depends only
// on which nodes are queued: a split that leaves one child that would be
// dequeued next carries straight on with it, which is what the queue would
// have done, without the push and the pop.
func (s *Selector) Select(tree *gridtree.Tree, rects []geo.Rect, mt int) ([]Grid, error) {
	if mt < 1 {
		return nil, fmt.Errorf("hss: budget %d must be at least 1", mt)
	}
	s.queue, s.out = s.queue[:0], s.out[:0]
	s.arena, s.masks = slices.Grow(s.arena[:0], len(rects)), s.masks[:0]
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
	var box runBox
	it := s.measure(tree, rects, root, whole, 0, int32(len(s.arena)), box)
	for {
		if next, ok := s.split(tree, rects, it, mt, &box); ok {
			it = next
			continue
		}
		if len(s.queue) == 0 {
			return s.out, nil
		}
		it, box = s.pop(), runBox{}
	}
}

// split finalizes or splits it, the dequeued node, whose run box describes
// when it is known. Splitting replaces the node with its non-empty children —
// the bits of its mask — and every queued or finalized grid contributes at
// least one output grid, so the final size would be at least
// len(out)+len(queue) plus their number: the node stays whole when that would
// exceed the budget (the |Gt|+|Q|+|Nc|-1 check of Algorithm 2). A split that
// leaves one child which would be dequeued next returns it, with box
// describing its run, instead of queueing it.
func (s *Selector) split(tree *gridtree.Tree, rects []geo.Rect, it queueItem, mt int, box *runBox) (queueItem, bool) {
	if tree.IsLeaf(it.node) || bits.OnesCount8(it.mask) > mt-len(s.out)-len(s.queue) {
		s.out = append(s.out, Grid{Node: it.node, Count: int(it.n)})
		return queueItem{}, false
	}
	if it.mask == 0 { // only rounding slivers reach it: it splits into nothing
		return queueItem{}, false
	}
	children := tree.Children(it.node)
	if it.mask&(it.mask-1) != 0 {
		s.scatter(tree, rects, &it, &children)
		return queueItem{}, false
	}
	c := bits.TrailingZeros8(it.mask)
	off, n := it.off, it.n
	if it.every != it.mask { // some region reaches no child: keep the rest
		off = len(s.arena)
		for k, i := range s.arena[it.off : it.off+int(it.n)] {
			if s.masks[it.off+k] != 0 {
				s.arena = append(s.arena, i)
			}
		}
		n, *box = int32(len(s.arena)-off), runBox{}
	}
	if !box.ok {
		*box = s.boxOf(rects, off, n)
	}
	next := s.measure(tree, rects, children[c], it.sums[c], off, n, *box)
	if len(s.queue) == 0 || next.before(&s.queue[0]) {
		return next, true
	}
	s.push(next)
	return queueItem{}, false
}

// scatter splits it into its two or more reached children: one pass copies
// each region to the runs of the children its mask names, appended to the
// arena in child order, and each child is measured and queued.
func (s *Selector) scatter(tree *gridtree.Tree, rects []geo.Rect, it *queueItem, children *[4]gridtree.NodeID) {
	masks := s.masks[it.off : it.off+int(it.n)]
	var counts [4]int32
	for _, m := range masks {
		counts[0] += int32(m & 1)
		counts[1] += int32(m >> 1 & 1)
		counts[2] += int32(m >> 2 & 1)
		counts[3] += int32(m >> 3)
	}
	var next [4]int
	base := len(s.arena)
	for c, k := range counts {
		next[c] = base
		base += int(k)
	}
	s.arena = slices.Grow(s.arena, base-len(s.arena))[:base]
	for k, i := range s.arena[it.off : it.off+int(it.n)] {
		for m := masks[k]; m != 0; m &= m - 1 {
			c := bits.TrailingZeros8(m)
			s.arena[next[c]] = i
			next[c]++
		}
	}
	for c, k := range counts {
		if k == 0 {
			continue
		}
		off := next[c] - int(k)
		var box runBox
		if k == 1 {
			box = s.boxOf(rects, off, k)
		}
		s.push(s.measure(tree, rects, children[c], it.sums[c], off, k, box))
	}
}

// measure returns the queue entry of node, whose subset is the run
// arena[off:off+n] of regions sharing positive area with it, with Σ|node ∩ o|
// whole: its error, its children's sums and masks, and, when it sweeps the
// run, each region's child mask (written to masks[off:off+n]).
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
//
// A known box that lies inside one quadrant and shares no positive area with
// the other three spares the sweep. Every region then lies inside that
// quadrant, so its overlap there is its own extent on each axis — the
// subtraction and product box.area summed — and its overlap with the others
// is no larger than the box's, so not positive. Each region shares positive
// area with node, and its overlaps with node are no wider than its own
// extents, so its own area is positive and it reaches the quadrant: the
// quadrant's sum is box.area, the others' +0, and the run passes whole to
// the quadrant's child.
func (s *Selector) measure(tree *gridtree.Tree, rects []geo.Rect, node gridtree.NodeID, whole float64, off int, n int32, box runBox) queueItem {
	it := queueItem{node: node, off: off, n: n}
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
	if box.ok {
		if c, ok := inside(lb, rt, box.r); ok {
			it.mask, it.every = 1<<c, 1<<c
			it.sums[c] = box.area
			it.err = nodeError(tree, node, whole, lb, rt, &it.sums)
			return it
		}
	}
	if need := off + int(n); need > len(s.masks) {
		s.masks = slices.Grow(s.masks, need-len(s.masks))[:need]
	}
	var q0, q1, q2, q3 float64
	every := uint8(0xF)
	masks := s.masks[off : off+int(n)]
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
		every &= m
	}
	it.every = every
	it.sums = [4]float64{q0, q1, q2, q3}
	it.err = nodeError(tree, node, whole, lb, rt, &it.sums)
	return it
}

// inside reports the quadrant c that r lies inside while sharing no positive
// area with the other three, if there is one, by the products measure's
// sweep forms.
func inside(lb, rt, r geo.Rect) (c int, ok bool) {
	x, y := lb, lb
	if r.MinX >= rt.MinX {
		x, c = rt, 1
	}
	if r.MinY >= rt.MinY {
		y, c = rt, c|2
	}
	if x.MinX > r.MinX || r.MaxX > x.MaxX || y.MinY > r.MinY || r.MaxY > y.MaxY {
		return 0, false
	}
	// r lies inside quadrant c; it must not reach across into the column or
	// the row beside it, where the two cells' rounded edges may overlap.
	w := [2]float64{min(lb.MaxX, r.MaxX) - max(lb.MinX, r.MinX), min(rt.MaxX, r.MaxX) - max(rt.MinX, r.MinX)}
	h := [2]float64{min(lb.MaxY, r.MaxY) - max(lb.MinY, r.MinY), min(rt.MaxY, r.MaxY) - max(rt.MinY, r.MinY)}
	for d := range 4 {
		if d != c && w[d&1] > 0 && h[d>>1] > 0 && w[d&1]*h[d>>1] > 0 {
			return 0, false
		}
	}
	return c, true
}

// nodeError is NodeError from the node's sum and its quadrants' sums.
func nodeError(tree *gridtree.Tree, node gridtree.NodeID, whole float64, lb, rt geo.Rect, sums *[4]float64) float64 {
	lt := geo.Rect{MinX: lb.MinX, MaxX: lb.MaxX, MinY: rt.MinY, MaxY: rt.MaxY}
	rb := geo.Rect{MinX: rt.MinX, MaxX: rt.MaxX, MinY: lb.MinY, MaxY: lb.MaxY}
	p := expected(whole, tree.Rect(node))
	var e float64
	for _, c := range [4]float64{expected(sums[0], lb), expected(sums[1], rb), expected(sums[2], lt), expected(sums[3], rt)} {
		d := p - c
		e += d * d
	}
	return e
}

// expected is Î(g) = Σ|g ∩ o| / |g| given the sum, and 0 for a grid without
// area, as tree.ExpectedListSize has it. A sum is never -0 (it starts at +0
// and adds positive overlaps), so a zero sum's quotient is +0 without the
// division.
func expected(sum float64, g geo.Rect) float64 {
	if sum == 0 {
		return 0
	}
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

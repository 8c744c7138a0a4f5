// Package invidx implements the inverted-index substrate of SEAL's
// signature filters: posting lists keyed by signature elements, where each
// posting carries a threshold bound (Lemma 3 of the paper).
//
// The bound of object o in the list of element s is the suffix weight sum
// c_s(o) = Σ_{j≥i} w(s_j) taken at s's position i in o's globally-ordered
// signature. Lists are sorted by descending bound, so for a query threshold
// c the postings to retrieve — exactly those with s in o's signature prefix
// — form a list head found by binary search (I_c(s) = {o : c_s(o) ≥ c}).
//
// There is one list type. A token or grid posting (Section 4.2) carries the
// one bound its list is sorted by; a hybrid posting (Section 5.1) is the same
// posting with a second, textual bound in a lane of its own, checked per
// posting during the scan. An index is dual when its lists carry that lane,
// and everything else — the layout, the key column, the probe — is shared.
//
// A build is flat: a frozen Index keeps every posting in one contiguous
// objs/bounds arena, with an offset per list and one key column, and the whole
// index is a handful of allocations regardless of how many lists it holds. The
// paper's baselines read it as it is (Index.List). A signature filter serves
// its Compress form instead — the layout a segment stores — in memory as from
// a mapped segment, and reads it where it lies: a served List is a view of a
// list's 16-bit bound codes and object IDs, and a query threshold becomes a
// code once (Code) rather than every code a bound.
//
// A served list is reached by position: At(i) is the i-th list in key order.
// Every key is a (group, node) pair — its high and low 32-bit words — and
// every kind names its lists so that the group is a small, dense number: a
// token list is (token, 0), a grid list (row, column) of its cell, a
// hybrid-hash list (token, cell) or (bucket, 0), and a SEAL list (token, grid
// node). The key column is stored the way it is read: one run of ascending
// uint32 nodes per group under a table of run offsets, four bytes and a bit a
// list and a bit a group. Probe(key) selects the group's run, then
// binary-searches it; SEAL's grid locator and the hybrid-hash filter, which
// visit one token's nodes at a time, select a token's run once (Runs).
//
// Both monotone offset tables of a stored index — a compressed index's list
// extents and the key column's group runs — are one primitive, Extents:
// the sequence coded in unary as a bitmap, a bit an entry plus a bit a row
// (or a node), selected through samples derived when the table is opened. A
// compressed list's metadata is therefore its node + 1 bit in each table.
package invidx

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Posting pairs an object with its threshold bounds in one list. TBound is
// the textual bound c^T_h(o) of a hybrid posting, next to the spatial bound
// c^R_h(o) in Bound; single-bound postings leave it zero.
type Posting struct {
	Obj    uint32
	Bound  float64
	TBound float64
}

// Index maps signature elements ((group, node) keys) to posting lists.
// Build one with a Builder or FromSortedRuns. The frozen layout is parallel
// arenas: a key column in ascending key order, per-list offsets into the
// posting arena, and the postings themselves (objs and each bound lane in
// separate contiguous slices). It is what a build produces; a signature
// filter serves it Compressed.
type Index struct {
	starts  []uint32 // lists()+1; list i spans [starts[i], starts[i+1])
	objs    []uint32
	bounds  []float64
	tBounds []float64 // dual only
	dual    bool
	keyColumn
}

// Builder accumulates postings and freezes them into an Index.
// The zero value builds a single-bound index.
type Builder struct {
	// Dual makes Build freeze a dual-bound index. Postings for the same
	// (key, obj) pair — hash-bucket collisions — are then merged by taking
	// the maximum of each bound, which preserves correctness because bounds
	// are upper bounds on the thresholds at which the element sits in the
	// object's prefix. A single-bound builder drops the textual bounds.
	Dual  bool
	lists map[uint64][]Posting
	total int
}

// Add appends a single-bound posting for element key.
func (b *Builder) Add(key uint64, obj uint32, bound float64) { b.AddDual(key, obj, bound, 0) }

// AddDual appends a posting with its spatial and textual bounds.
func (b *Builder) AddDual(key uint64, obj uint32, rBound, tBound float64) {
	if b.lists == nil {
		b.lists = make(map[uint64][]Posting)
	}
	b.lists[key] = append(b.lists[key], Posting{Obj: obj, Bound: rBound, TBound: tBound})
	b.total++
}

// sortPostings orders one list by descending bound, ties by ascending
// object, for determinism.
func sortPostings(ps []Posting) {
	slices.SortFunc(ps, func(a, b Posting) int {
		switch {
		case a.Bound > b.Bound:
			return -1
		case a.Bound < b.Bound:
			return 1
		default:
			return cmp.Compare(a.Obj, b.Obj)
		}
	})
}

// mergeDuplicates folds the postings of one object into one, keeping the
// maximum of each bound.
func mergeDuplicates(ps []Posting) []Posting {
	slices.SortFunc(ps, func(a, b Posting) int { return cmp.Compare(a.Obj, b.Obj) })
	merged := ps[:0]
	for _, p := range ps {
		if n := len(merged); n > 0 && merged[n-1].Obj == p.Obj {
			merged[n-1].Bound = max(merged[n-1].Bound, p.Bound)
			merged[n-1].TBound = max(merged[n-1].TBound, p.TBound)
			continue
		}
		merged = append(merged, p)
	}
	return merged
}

// newIndex sizes an empty index for the given list and posting counts.
func newIndex(lists, postings int, dual bool) *Index {
	checkOffsetRange(postings)
	idx := &Index{
		starts: make([]uint32, 1, lists+1),
		objs:   make([]uint32, 0, postings),
		bounds: make([]float64, 0, postings),
		dual:   dual,
	}
	if dual {
		idx.tBounds = make([]float64, 0, postings)
	}
	return idx
}

// Build sorts every list by descending bound (ties by ascending object, for
// determinism), a dual builder merging duplicate objects first, and freezes
// the index into its flat layout under a run-grouped key column, as
// FromSortedRuns does: a key's high word is its group and its low word its
// node, and the groups run from 0 to the largest one. Keys are therefore
// (group, node) pairs whose groups are small, dense numbers — a token, a grid
// row, a hash bucket — since the run table costs a bit a group. The builder
// is consumed.
func (b *Builder) Build() *Index {
	keys := make([]uint64, 0, len(b.lists))
	for key := range b.lists {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	idx := newIndex(len(keys), b.total, b.Dual)
	groups := 0
	if len(keys) > 0 {
		groups = int(keys[len(keys)-1]>>32) + 1
	}
	counts := make([]uint32, groups+1)
	idx.nodes = make([]uint32, 0, len(keys))
	for _, key := range keys {
		idx.nodes = append(idx.nodes, uint32(key))
		counts[key>>32+1]++
		ps := b.lists[key]
		if b.Dual {
			ps = mergeDuplicates(ps)
		}
		sortPostings(ps)
		for _, p := range ps {
			idx.objs = append(idx.objs, p.Obj)
			idx.bounds = append(idx.bounds, p.Bound)
			if b.Dual {
				idx.tBounds = append(idx.tBounds, p.TBound)
			}
		}
		idx.starts = append(idx.starts, uint32(len(idx.objs)))
	}
	idx.runs = runTable(counts)
	b.lists = nil
	b.total = 0
	return idx
}

// Run is a stretch of finished dual-bound lists for FromSortedRuns, all of one
// key group: list i has key Group<<32 | Nodes[i] and holds the next Lens[i]
// entries of Objs, Bounds and TBounds. Nodes ascend, and every list is already
// in index order — one posting per object, descending spatial bound, ties by
// ascending object — which is what a dual Builder would have made of the same
// postings.
type Run struct {
	Group   uint32
	Nodes   []uint32
	Lens    []uint32
	Objs    []uint32
	Bounds  []float64
	TBounds []float64
}

// FromSortedRuns freezes runs, whose keys ascend from each run to the next
// and whose groups all lie below groups, into a flat dual-bound Index by
// concatenation: no map, no key sort, no list sort. It is the constructor for
// a producer that partitions the key space and sorts as it goes (the SEAL
// build, one run per token); Builder remains the one for postings that arrive
// in any order. Both freeze the same key column. Keys out of order or lengths
// that do not add up are the producer's bug and panic.
func FromSortedRuns(groups int, runs []Run) *Index {
	var lists, postings int
	for i := range runs {
		lists += len(runs[i].Nodes)
		postings += len(runs[i].Objs)
	}
	idx := newIndex(lists, postings, true)
	counts := make([]uint32, groups+1)
	idx.nodes = make([]uint32, 0, lists)
	last := int64(-1)
	for i := range runs {
		r := &runs[i]
		if len(r.Lens) != len(r.Nodes) || len(r.Bounds) != len(r.Objs) || len(r.TBounds) != len(r.Objs) {
			panic(fmt.Sprintf("invidx: run %d has mismatched lengths", i))
		}
		base := len(idx.objs)
		end := base
		for j, node := range r.Nodes {
			key := int64(r.Group)<<32 | int64(node)
			if key <= last || int(r.Group) >= groups {
				panic(fmt.Sprintf("invidx: run %d key %#x does not ascend inside %d groups", i, key, groups))
			}
			last = key
			idx.nodes = append(idx.nodes, node)
			counts[r.Group+1]++
			end += int(r.Lens[j])
			idx.starts = append(idx.starts, uint32(end))
		}
		if end-base != len(r.Objs) {
			panic(fmt.Sprintf("invidx: run %d lists hold %d postings, its arenas %d", i, end-base, len(r.Objs)))
		}
		idx.objs = append(idx.objs, r.Objs...)
		idx.bounds = append(idx.bounds, r.Bounds...)
		idx.tBounds = append(idx.tBounds, r.TBounds...)
	}
	idx.runs = runTable(counts)
	return idx
}

// runTable turns per-group node counts — group g's at counts[g+1], counts[0]
// zero — into the run table, summing them in place.
func runTable(counts []uint32) *Extents {
	for g := 1; g < len(counts); g++ {
		counts[g] += counts[g-1]
	}
	return extentsOf(counts)
}

// keyColumn names an index's lists, position i being the i-th key in
// ascending order: for every key group g — the high word of a key — the
// ascending low words of the group's keys lie in nodes[lo:hi], lo, hi =
// runs.Span(g). It costs four bytes and a bit a list, and a bit a group.
type keyColumn struct {
	runs  *Extents // one extent of nodes a group
	nodes []uint32
}

// lists counts the keys.
func (c *keyColumn) lists() int { return len(c.nodes) }

// find returns key's position, or -1: the group's run by one select, then a
// binary search of the run's nodes.
func (c *keyColumn) find(key uint64) int {
	if g := key >> 32; g < uint64(c.runs.Len()) {
		lo, hi := c.runs.Span(int(g))
		if i, ok := slices.BinarySearch(c.nodes[lo:hi], uint32(key)); ok {
			return lo + i
		}
	}
	return -1
}

// eachKey visits every position and its key in ascending order.
func (c *keyColumn) eachKey(fn func(i int, key uint64)) {
	starts := c.runs.values()
	lo := starts.next()
	for g := 0; g < c.runs.Len(); g++ {
		hi := starts.next()
		for i := lo; i < hi; i++ {
			fn(i, uint64(g)<<32|uint64(c.nodes[i]))
		}
		lo = hi
	}
}

// sizeBytes is the column's footprint: 4 bytes a node plus the run table's
// bit a node and a group.
func (c *keyColumn) sizeBytes() int64 { return int64(len(c.nodes))*4 + c.runs.sizeBytes() }

// Runs returns the key column — one extent of the nodes per group, and the
// nodes, ascending inside each — aliasing the index (for a mapped segment,
// its pages; read-only).
func (c *keyColumn) Runs() (*Extents, []uint32) { return c.runs, c.nodes }

// checkOffsetRange guards the uint32 arena offsets: past 2^32-1 postings they would wrap and List() would return
// slices of the wrong arena region. An index that large must shard first,
// and silent corruption is worse than a build-time panic.
func checkOffsetRange(postings int) {
	if uint64(postings) > math.MaxUint32 {
		panic(fmt.Sprintf("invidx: %d postings exceed the flat layout's 32-bit offsets; shard the dataset", postings))
	}
}

// List returns key's postings as zero-copy views of the arenas — objects,
// bounds and, on a dual index, textual bounds — in list order (descending
// bound); an absent key has none. The paper's baselines read the flat index
// this way, whole lists at a time. Callers must not mutate them.
func (ix *Index) List(key uint64) (objs []uint32, bounds, tBounds []float64) {
	i := ix.find(key)
	if i < 0 {
		return nil, nil, nil
	}
	lo, hi := ix.starts[i], ix.starts[i+1]
	if ix.dual {
		tBounds = ix.tBounds[lo:hi]
	}
	return ix.objs[lo:hi], ix.bounds[lo:hi], tBounds
}

// Lists returns the number of non-empty lists.
func (ix *Index) Lists() int { return ix.lists() }

// Postings returns the total number of postings.
func (ix *Index) Postings() int { return len(ix.objs) }

// SizeBytes reports the footprint of the flat build layout: 12 bytes per
// posting (uint32 obj + float64 bound), 20 with the textual lane, a 4-byte
// offset per list and one more, and the key column (4 bytes and a bit a list,
// and a bit a group). Only the
// paper's baselines report it; a signature filter serves, and Table 1 and
// Fig 15 report, its Compressed form's SizeBytes.
func (ix *Index) SizeBytes() int64 {
	perPosting := int64(4 + 8) // obj + bound
	if ix.dual {
		perPosting += 8
	}
	return int64(ix.Postings())*perPosting + int64(len(ix.starts))*4 + ix.sizeBytes()
}

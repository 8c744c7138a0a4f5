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
// and everything else — the layout, the directory, the probe — is shared.
//
// A build is flat: a frozen Index keeps every posting in one contiguous
// objs/bounds arena, with an ascending sorted key table and an offset per key,
// and the whole index is a handful of allocations regardless of how many lists
// it holds. The paper's baselines read it as it is (Index.List). A signature
// filter serves its Compress form instead — the layout a segment stores — in
// memory as from a mapped segment, and reads it where it lies: a served List
// is a view of a list's 16-bit bound codes and object IDs, and a query
// threshold becomes a code once (Code) rather than every code a bound.
//
// A served list is reached by position: At(i) is the i-th list in key order.
// The kinds that look lists up by key (token, grid, hybrid-hash: a Builder's
// indexes) keep an ascending uint64 key array and an open-addressed hash
// directory over it, so Probe(key) is an O(1) lookup and then At. SEAL's index
// (FromSortedRuns) keeps neither: its keys are (token, grid node) pairs whose
// grid locator walks one token's nodes at a time and already holds the
// position of every list it wants, so the key column is stored the way it is
// read — one run of ascending uint32 nodes per token under a table of run
// offsets, four bytes and a bit a list where the key array and its directory
// took sixteen. Probe on such an index still answers: run lookup, then a
// binary search of the run.
//
// Both monotone offset tables of a stored index — a compressed index's list
// extents and a run-grouped column's token runs — are one primitive, Extents:
// the sequence coded in unary as a bitmap, a bit an entry plus a bit a row
// (or a node), selected through samples derived when the table is opened. A
// compressed Seal list's metadata is therefore its node + 1 bit in each table.
package invidx

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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

// Index maps signature elements (opaque uint64 keys) to posting lists.
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
// the index into its flat layout. The builder is consumed.
func (b *Builder) Build() *Index {
	idx := newIndex(len(b.lists), b.total, b.Dual)
	idx.keys = make([]uint64, 0, len(b.lists))
	for key := range b.lists {
		idx.keys = append(idx.keys, key)
	}
	slices.Sort(idx.keys)
	idx.table = newKeyTable(idx.keys)
	for _, key := range idx.keys {
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
// concatenation: no map, no key sort, no list sort, and a run-grouped key
// column in place of a key array and its hash directory. It is the
// constructor for a producer that partitions the key space and sorts as it
// goes, and that reaches its lists by position afterwards (the SEAL build,
// one run per token); Builder remains the one for postings that arrive in any
// order and are looked up by key. Keys out of order or lengths that do not add
// up are the producer's bug and panic.
func FromSortedRuns(groups int, runs []Run) *Index {
	var lists, postings int
	for i := range runs {
		lists += len(runs[i].Nodes)
		postings += len(runs[i].Objs)
	}
	idx := newIndex(lists, postings, true)
	starts := make([]uint32, groups+1) // counts, then offsets: the run table's values
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
			starts[r.Group+1]++
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
	for g := 0; g < groups; g++ {
		starts[g+1] += starts[g]
	}
	idx.runs = extentsOf(starts)
	return idx
}

// keyColumn names an index's lists, position i being the i-th key in
// ascending order, in one of two forms. A Builder's index keeps the keys and
// a hash directory over them. A run-grouped one (FromSortedRuns) keeps, for
// every key group g — the high word of a key — the ascending low words of
// the group's keys in nodes[lo:hi], lo, hi = runs.Span(g); runs is non-nil
// exactly then.
type keyColumn struct {
	keys  []uint64
	table keyTable // key → position directory; the zero table binary-searches
	runs  *Extents // one extent of nodes a group
	nodes []uint32
}

// lists counts the keys: one of the two forms holds none.
func (c *keyColumn) lists() int { return len(c.keys) + len(c.nodes) }

// find returns key's position, or -1: through the directory when there is
// one, by binary search when there is not.
func (c *keyColumn) find(key uint64) int {
	t := c.table
	if len(t.slots) == 0 {
		return c.search(key)
	}
	slot := t.home(key)
	for {
		s := t.slots[slot]
		if s == 0 {
			return -1
		}
		if i := int(s - 1); c.keys[i] == key {
			return i
		}
		slot = t.next(slot)
	}
}

// search is find without a directory: a binary search of the ascending keys,
// or of the key's run of nodes.
func (c *keyColumn) search(key uint64) int {
	if c.runs == nil {
		if i, ok := slices.BinarySearch(c.keys, key); ok {
			return i
		}
	} else if g := key >> 32; g < uint64(c.runs.Len()) {
		lo, hi := c.runs.Span(int(g))
		if i, ok := slices.BinarySearch(c.nodes[lo:hi], uint32(key)); ok {
			return lo + i
		}
	}
	return -1
}

// eachKey visits every position and its key in ascending order.
func (c *keyColumn) eachKey(fn func(i int, key uint64)) {
	for i, k := range c.keys {
		fn(i, k)
	}
	if c.runs == nil {
		return
	}
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

// sizeBytes is the column's footprint: 8 bytes a key plus the directory, or
// 4 bytes a node plus the run table's bit a node and a run.
func (c *keyColumn) sizeBytes() int64 {
	n := int64(len(c.keys))*8 + c.table.sizeBytes() + int64(len(c.nodes))*4
	if c.runs != nil {
		n += c.runs.sizeBytes()
	}
	return n
}

// Runs returns the run-grouped key column — one extent of the nodes per group,
// and the nodes, ascending inside each, aliasing the index (for a mapped
// segment, its pages; read-only) — and nils for an index that keeps a key
// array.
func (c *keyColumn) Runs() (*Extents, []uint32) { return c.runs, c.nodes }

// keyTable is an open-addressed hash directory from element key to its
// position in the sorted key array. Lookup is O(1) with linear probing at a
// load factor of exactly 0.5 — two slots per key, whatever the key count —
// beating both a binary search over the key array and a Go map (no bucket
// indirection, no interface hashing). Slots hold position+1; 0 means empty.
//
// The zero keyTable (nil slots) is "no directory": the index was opened from a
// segment without one. A Builder's table is never nil, whatever the key
// count, and that is how a segment writer tells the two apart.
type keyTable struct {
	slots []uint32
}

// tableSlots is the directory size for nKeys keys. A power-of-two size would
// let a mask pick the home slot but runs at a load anywhere from 0.25 to 0.5;
// at four bytes a slot that is up to eight more bytes on every list.
func tableSlots(nKeys int) int { return 2 * nKeys }

// home maps key to its first slot: the high word of hash × size (a
// multiply-shift in place of a modulo), uniform over any table size.
func (t keyTable) home(key uint64) uint64 {
	hi, _ := bits.Mul64(mix64(key), uint64(len(t.slots)))
	return hi
}

// next is the slot probed after slot.
func (t keyTable) next(slot uint64) uint64 {
	if slot++; slot == uint64(len(t.slots)) {
		return 0
	}
	return slot
}

// newKeyTable indexes the sorted keys.
func newKeyTable(keys []uint64) keyTable {
	t := keyTable{slots: make([]uint32, tableSlots(len(keys)))}
	for i, k := range keys {
		slot := t.home(k)
		for t.slots[slot] != 0 {
			slot = t.next(slot)
		}
		t.slots[slot] = uint32(i) + 1
	}
	return t
}

// sizeBytes reports the directory's footprint.
func (t keyTable) sizeBytes() int64 { return int64(len(t.slots)) * 4 }

// checkOffsetRange guards the uint32 arena offsets (and keyTable slot
// positions): past 2^32-1 postings they would wrap and List() would return
// slices of the wrong arena region. An index that large must shard first,
// and silent corruption is worse than a build-time panic.
func checkOffsetRange(postings int) {
	if uint64(postings) > math.MaxUint32 {
		panic(fmt.Sprintf("invidx: %d postings exceed the flat layout's 32-bit offsets; shard the dataset", postings))
	}
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit hash.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
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
// offset per list and one more, and the key column (16 bytes a list with a
// directory; 4 and about a bit a list and a run when run-grouped). Only the
// paper's baselines report it; a signature filter serves, and Table 1 and
// Fig 15 report, its Compressed form's SizeBytes.
func (ix *Index) SizeBytes() int64 {
	perPosting := int64(4 + 8) // obj + bound
	if ix.dual {
		perPosting += 8
	}
	return int64(ix.Postings())*perPosting + int64(len(ix.starts))*4 + ix.sizeBytes()
}

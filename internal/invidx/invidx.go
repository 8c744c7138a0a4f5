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
// Two list flavours are provided: List with one bound (token or grid
// signatures, Section 4.2) and DualList with both a spatial and a textual
// bound (hybrid signatures, Section 5.1).
//
// Storage is flat: a frozen index keeps every posting in one contiguous
// objs/bounds arena, with an ascending sorted key table, an offset per key,
// and an open-addressed hash directory for O(1) key lookup. Traversal of a
// list is a sequential walk of the arena, and the whole index is a handful
// of allocations regardless of how many lists it holds.
package invidx

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Posting pairs an object with its threshold bound in one list.
type Posting struct {
	Obj   uint32
	Bound float64
}

// List is an immutable view of one posting list, sorted by descending
// bound. The zero List is empty; views index into the owning Index's arena
// and must not be mutated.
type List struct {
	objs   []uint32
	bounds []float64
}

// Len returns the number of postings.
func (l List) Len() int { return len(l.objs) }

// Cutoff returns the number of leading postings whose bound is >= c
// (the size of I_c(s) from Lemma 3).
func (l List) Cutoff(c float64) int { return cutoffDesc(l.bounds, c) }

// cutoffDesc returns the length of the leading run of the descending bounds
// slice whose values are >= c — the shared binary search of every list
// flavour. Hand-rolled: a sort.Search closure would heap-escape on the
// allocation-free query path.
func cutoffDesc(bounds []float64, c float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bounds[mid] < c {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Objs returns the object IDs of the first n postings. Callers must not
// mutate the result.
func (l List) Objs(n int) []uint32 { return l.objs[:n] }

// Bound returns the bound of posting i.
func (l List) Bound(i int) float64 { return l.bounds[i] }

// Obj returns the object of posting i.
func (l List) Obj(i int) uint32 { return l.objs[i] }

// Index maps signature elements (opaque uint64 keys) to posting lists.
// Build one with a Builder. The frozen layout is three parallel arenas:
// an ascending key table, per-key offsets into the posting arena, and the
// postings themselves (objs and bounds in separate contiguous slices).
type Index struct {
	keys   []uint64 // ascending
	table  keyTable // open-addressed key → position directory
	starts []uint32 // len(keys)+1; list i spans [starts[i], starts[i+1])
	objs   []uint32
	bounds []float64
}

// Builder accumulates postings and freezes them into an Index.
// The zero value is ready to use.
type Builder struct {
	lists map[uint64][]Posting
	total int
}

// Add appends a posting for element key.
func (b *Builder) Add(key uint64, obj uint32, bound float64) {
	if b.lists == nil {
		b.lists = make(map[uint64][]Posting)
	}
	b.lists[key] = append(b.lists[key], Posting{Obj: obj, Bound: bound})
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
		case a.Obj < b.Obj:
			return -1
		case a.Obj > b.Obj:
			return 1
		default:
			return 0
		}
	})
}

// Build sorts every list by descending bound (ties by ascending object, for
// determinism) and freezes the index into its flat layout. The builder is
// consumed.
func (b *Builder) Build() *Index {
	checkOffsetRange(b.total)
	idx := &Index{
		keys:   make([]uint64, 0, len(b.lists)),
		starts: make([]uint32, 1, len(b.lists)+1),
		objs:   make([]uint32, 0, b.total),
		bounds: make([]float64, 0, b.total),
	}
	for key := range b.lists {
		idx.keys = append(idx.keys, key)
	}
	slices.Sort(idx.keys)
	idx.table = newKeyTable(idx.keys)
	for _, key := range idx.keys {
		ps := b.lists[key]
		sortPostings(ps)
		for _, p := range ps {
			idx.objs = append(idx.objs, p.Obj)
			idx.bounds = append(idx.bounds, p.Bound)
		}
		idx.starts = append(idx.starts, uint32(len(idx.objs)))
	}
	b.lists = nil
	b.total = 0
	return idx
}

// keyTable is an open-addressed hash directory from element key to its
// position in the sorted key array. Lookup is O(1) with linear probing at a
// load factor of exactly 0.5 — two slots per key, whatever the key count —
// beating both a binary search over the key array and a Go map (no bucket
// indirection, no interface hashing). Slots hold position+1; 0 means empty.
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

// find returns key's position in the key array, or -1.
func (t keyTable) find(keys []uint64, key uint64) int {
	if len(keys) == 0 {
		return -1
	}
	slot := t.home(key)
	for {
		s := t.slots[slot]
		if s == 0 {
			return -1
		}
		if i := int(s - 1); keys[i] == key {
			return i
		}
		slot = t.next(slot)
	}
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

// List returns the posting list of key; absent keys yield an empty List.
func (ix *Index) List(key uint64) List {
	i := ix.table.find(ix.keys, key)
	if i < 0 {
		return List{}
	}
	lo, hi := ix.starts[i], ix.starts[i+1]
	return List{objs: ix.objs[lo:hi], bounds: ix.bounds[lo:hi]}
}

// Lists returns the number of non-empty lists.
func (ix *Index) Lists() int { return len(ix.keys) }

// Postings returns the total number of postings.
func (ix *Index) Postings() int { return len(ix.objs) }

// SizeBytes estimates the in-memory footprint of the flat layout: 12 bytes
// per posting (uint32 obj + float64 bound) plus 12 bytes per list (uint64
// key + uint32 offset). It is the figure reported in Table 1 for the
// signature indexes.
func (ix *Index) SizeBytes() int64 {
	const perPosting = 4 + 8 // obj + bound
	const perList = 8 + 4    // key + offset
	return int64(ix.Postings())*perPosting + int64(len(ix.keys))*perList + ix.table.sizeBytes()
}

// Range calls fn for every (key, list) pair in ascending key order.
func (ix *Index) Range(fn func(key uint64, l List) bool) {
	for i, k := range ix.keys {
		lo, hi := ix.starts[i], ix.starts[i+1]
		if !fn(k, List{objs: ix.objs[lo:hi], bounds: ix.bounds[lo:hi]}) {
			return
		}
	}
}

// DualPosting pairs an object with its spatial and textual bounds in one
// hybrid list (Section 5.1).
type DualPosting struct {
	Obj    uint32
	RBound float64 // spatial threshold bound c^R_h(o)
	TBound float64 // textual threshold bound c^T_h(o)
}

// DualList is an immutable view of one hybrid posting list sorted by
// descending spatial bound; the textual bound is checked per posting during
// scans. The zero DualList is empty.
type DualList struct {
	objs    []uint32
	rBounds []float64
	tBounds []float64
}

// Len returns the number of postings.
func (l DualList) Len() int { return len(l.objs) }

// Posting returns posting i (sorted by descending RBound).
func (l DualList) Posting(i int) DualPosting {
	return DualPosting{Obj: l.objs[i], RBound: l.rBounds[i], TBound: l.tBounds[i]}
}

// Obj returns the object of posting i.
func (l DualList) Obj(i int) uint32 { return l.objs[i] }

// TBound returns the textual bound of posting i.
func (l DualList) TBound(i int) float64 { return l.tBounds[i] }

// CutoffR returns the number of leading postings whose spatial bound is
// >= cR (the list is sorted by descending RBound). Filters iterate the head
// directly instead of paying a callback per posting.
func (l DualList) CutoffR(cR float64) int { return cutoffDesc(l.rBounds, cR) }

// Scan visits every posting with RBound >= cR and TBound >= cT, stopping at
// the spatial cutoff (the list is sorted by RBound). It returns the number
// of postings examined, which the experiment harness reports as probe cost.
func (l DualList) Scan(cR, cT float64, fn func(obj uint32)) int {
	n := l.CutoffR(cR)
	for i := 0; i < n; i++ {
		if l.tBounds[i] >= cT {
			fn(l.objs[i])
		}
	}
	return n
}

// DualIndex maps hybrid signature elements to dual-bound posting lists,
// stored flat exactly like Index with one extra bound arena.
type DualIndex struct {
	keys    []uint64
	table   keyTable
	starts  []uint32
	objs    []uint32
	rBounds []float64
	tBounds []float64
}

// DualBuilder accumulates dual postings. The zero value is ready to use.
// Postings for the same (key, obj) pair — hash-bucket collisions — are
// merged at Build time by taking the maximum of each bound, which preserves
// correctness because bounds are upper bounds on the thresholds at which the
// element sits in the object's prefix.
type DualBuilder struct {
	lists map[uint64][]DualPosting
	total int
}

// Add appends a posting for element key.
func (b *DualBuilder) Add(key uint64, obj uint32, rBound, tBound float64) {
	if b.lists == nil {
		b.lists = make(map[uint64][]DualPosting)
	}
	b.lists[key] = append(b.lists[key], DualPosting{Obj: obj, RBound: rBound, TBound: tBound})
	b.total++
}

// Build merges duplicate (key, obj) postings and freezes the builder into a
// flat DualIndex. The builder is consumed.
func (b *DualBuilder) Build() *DualIndex {
	checkOffsetRange(b.total)
	idx := &DualIndex{
		keys:    make([]uint64, 0, len(b.lists)),
		starts:  make([]uint32, 1, len(b.lists)+1),
		objs:    make([]uint32, 0, b.total),
		rBounds: make([]float64, 0, b.total),
		tBounds: make([]float64, 0, b.total),
	}
	for key := range b.lists {
		idx.keys = append(idx.keys, key)
	}
	slices.Sort(idx.keys)
	idx.table = newKeyTable(idx.keys)
	for _, key := range idx.keys {
		ps := mergeDualPostings(b.lists[key])
		for _, p := range ps {
			idx.objs = append(idx.objs, p.Obj)
			idx.rBounds = append(idx.rBounds, p.RBound)
			idx.tBounds = append(idx.tBounds, p.TBound)
		}
		idx.starts = append(idx.starts, uint32(len(idx.objs)))
	}
	b.lists = nil
	b.total = 0
	return idx
}

// DualRun is a stretch of finished hybrid lists for DualFromSortedRuns: list
// i has key Keys[i] and holds the next Lens[i] entries of Objs, RBounds and
// TBounds. Keys ascend, and every list is already in DualIndex order — one
// posting per object, descending spatial bound, ties by ascending object —
// which is what DualBuilder.Build would have made of the same postings.
type DualRun struct {
	Keys    []uint64
	Lens    []uint32
	Objs    []uint32
	RBounds []float64
	TBounds []float64
}

// DualFromSortedRuns freezes runs, whose keys ascend from each run to the
// next, into a flat DualIndex by concatenation: no map, no key sort, no list
// sort. It is the constructor for a producer that partitions the key space
// and sorts as it goes (the SEAL build, one run per token); DualBuilder
// remains the one for postings that arrive in any order. Keys out of order
// or lengths that do not add up are the producer's bug and panic.
func DualFromSortedRuns(runs []DualRun) *DualIndex {
	var lists, postings int
	for i := range runs {
		lists += len(runs[i].Keys)
		postings += len(runs[i].Objs)
	}
	checkOffsetRange(postings)
	idx := &DualIndex{
		keys:    make([]uint64, 0, lists),
		starts:  make([]uint32, 1, lists+1),
		objs:    make([]uint32, 0, postings),
		rBounds: make([]float64, 0, postings),
		tBounds: make([]float64, 0, postings),
	}
	for i := range runs {
		r := &runs[i]
		if len(r.Lens) != len(r.Keys) || len(r.RBounds) != len(r.Objs) || len(r.TBounds) != len(r.Objs) {
			panic(fmt.Sprintf("invidx: run %d has mismatched lengths", i))
		}
		base := len(idx.objs)
		end := base
		for j, key := range r.Keys {
			if n := len(idx.keys); n > 0 && idx.keys[n-1] >= key {
				panic(fmt.Sprintf("invidx: run %d key %#x does not ascend", i, key))
			}
			idx.keys = append(idx.keys, key)
			end += int(r.Lens[j])
			idx.starts = append(idx.starts, uint32(end))
		}
		if end-base != len(r.Objs) {
			panic(fmt.Sprintf("invidx: run %d lists hold %d postings, its arenas %d", i, end-base, len(r.Objs)))
		}
		idx.objs = append(idx.objs, r.Objs...)
		idx.rBounds = append(idx.rBounds, r.RBounds...)
		idx.tBounds = append(idx.tBounds, r.TBounds...)
	}
	idx.table = newKeyTable(idx.keys)
	return idx
}

// mergeDualPostings merges duplicate objects (max of each bound) and sorts
// by descending spatial bound, ties by ascending object.
func mergeDualPostings(ps []DualPosting) []DualPosting {
	slices.SortFunc(ps, func(a, b DualPosting) int {
		switch {
		case a.Obj < b.Obj:
			return -1
		case a.Obj > b.Obj:
			return 1
		default:
			return 0
		}
	})
	merged := ps[:0]
	for _, p := range ps {
		if n := len(merged); n > 0 && merged[n-1].Obj == p.Obj {
			if p.RBound > merged[n-1].RBound {
				merged[n-1].RBound = p.RBound
			}
			if p.TBound > merged[n-1].TBound {
				merged[n-1].TBound = p.TBound
			}
			continue
		}
		merged = append(merged, p)
	}
	ps = merged
	slices.SortFunc(ps, func(a, b DualPosting) int {
		switch {
		case a.RBound > b.RBound:
			return -1
		case a.RBound < b.RBound:
			return 1
		case a.Obj < b.Obj:
			return -1
		case a.Obj > b.Obj:
			return 1
		default:
			return 0
		}
	})
	return ps
}

// List returns the dual list of key; absent keys yield an empty DualList.
func (ix *DualIndex) List(key uint64) DualList {
	i := ix.table.find(ix.keys, key)
	if i < 0 {
		return DualList{}
	}
	lo, hi := ix.starts[i], ix.starts[i+1]
	return DualList{objs: ix.objs[lo:hi], rBounds: ix.rBounds[lo:hi], tBounds: ix.tBounds[lo:hi]}
}

// Lists returns the number of non-empty lists.
func (ix *DualIndex) Lists() int { return len(ix.keys) }

// Postings returns the total number of postings.
func (ix *DualIndex) Postings() int { return len(ix.objs) }

// SizeBytes estimates the in-memory footprint: 20 bytes per posting plus
// 12 bytes per list (key + offset).
func (ix *DualIndex) SizeBytes() int64 {
	const perPosting = 4 + 8 + 8 // obj + two bounds
	const perList = 8 + 4        // key + offset
	return int64(ix.Postings())*perPosting + int64(len(ix.keys))*perList + ix.table.sizeBytes()
}

// Range calls fn for every (key, list) pair in ascending key order.
func (ix *DualIndex) Range(fn func(key uint64, l DualList) bool) {
	for i, k := range ix.keys {
		lo, hi := ix.starts[i], ix.starts[i+1]
		if !fn(k, DualList{objs: ix.objs[lo:hi], rBounds: ix.rBounds[lo:hi], tBounds: ix.tBounds[lo:hi]}) {
			return
		}
	}
}

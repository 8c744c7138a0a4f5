package invidx

// Compressed posting lists. A compressed index is the flat index's key column
// over one byte blob of fixed-width rows and one extent table: list i holds
// rows [Get(i), Get(i+1)) of the Extents, each list laid out as columns
// starting at its first row's byte offset, and every list of one index is
// encoded the same way (its Layout). A list carries no header at all: its
// posting count is its extent. The extent table codes a list in one bit plus
// one bit a posting, where a uint32 byte offset took four bytes.
//
// A list is
//
//	n × uint16              spatial codes, descending
//	n × uint16              textual codes, dual lists only
//	n × uint16 | uint32     object IDs, in list order
//
// One code serves every bound of every list of every index — the top 16
// magnitude bits of the bound's float32 (8 exponent, 8 mantissa), rounded up —
// so a code means the same bound wherever it is read, decoding is a shift, the
// relative error is below 2⁻⁸ at every finite code, and codes order as their
// bounds do. Object IDs take two bytes when every ID of the index fits (a
// shard of at most 65,536 objects), four otherwise.
//
// A list is read where it lies (List): a query threshold is translated to a
// code once (Code) and compared with the stored codes, which selects exactly
// the rows whose decoded bounds clear it. Bounds only ever round up, so that
// head is a superset of the exact head and verification keeps answers
// unchanged. That holds at the ends too: a bound at or below zero codes to 0,
// and one above the largest finite code — about 3.396e38, reachable only
// through caller-supplied token weights or coordinates near 1e19 — saturates
// to the infinity code, which every threshold clears.
//
// This replaces, in turn, a run-length layout (a header per distinct bound,
// delta-varint or bitmap objects), a columnar one that scaled each list's
// codes by a float32 step of its own, stored with a count ahead of the
// columns, and fell back to float32 bounds under four postings — 11 bytes of
// header on a dual list where four lists in five hold one or two postings —
// and a whole-index float64 fallback for bounds past the largest finite code.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrCorrupt reports that encoded posting lists failed validation. Every
// validation error wraps it, so callers can errors.Is a refused index
// regardless of which invariant the bytes violated.
var ErrCorrupt = errors.New("invidx: corrupt posting data")

func corrupt(msg string) error { return fmt.Errorf("%w: %s", ErrCorrupt, msg) }

// Layout is how every list of one compressed index is encoded.
type Layout struct {
	Obj16 bool // object IDs take 2 bytes instead of 4
}

// rowWidth is the bytes a posting takes: its bound codes and its object ID.
func (lay Layout) rowWidth(dual bool) int {
	w := 2
	if dual {
		w = 4
	}
	if lay.Obj16 {
		return w + 2
	}
	return w + 4
}

// obj reads object ID i of the object column.
func (lay Layout) obj(col []byte, i int) uint32 {
	if lay.Obj16 {
		return uint32(binary.LittleEndian.Uint16(col[2*i:]))
	}
	return binary.LittleEndian.Uint32(col[4*i:])
}

// maxCode is the largest bound code, float32's infinity: a bound above the
// largest finite code saturates to it. The codes above it are NaNs and are
// never written.
const maxCode = 0xFF00

// ceil32 returns the smallest float32 that is >= v, for 0 <= v <= MaxFloat32.
func ceil32(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// Code returns the smallest code whose bound is >= b, for any b but NaN: 0
// for a bound at or below zero, maxCode for one above the largest finite
// code, and otherwise b's float32 ceiling, cut to its top 16 magnitude bits
// and bumped when the cut dropped anything — a carry out of the kept mantissa
// moves into the exponent, which is still the next code up. Rounding up is
// what keeps compressed filtering a superset of exact filtering. It is
// monotone in b, so descending bounds get descending codes, and, being the
// smallest, it is exact as a threshold: a stored code c decodes to a bound
// >= b exactly when c >= Code(b).
func Code(b float64) uint16 {
	switch {
	case b <= 0:
		return 0
	case b > float64(decodeBound(maxCode-1)):
		return maxCode
	}
	bits := math.Float32bits(ceil32(b))
	code := bits >> 15
	if bits&(1<<15-1) != 0 {
		code++
	}
	return uint16(code)
}

// decodeBound returns the bound a code stands for.
func decodeBound(code uint16) float32 { return math.Float32frombits(uint32(code) << 15) }

// appendList appends the rows of one canonical list (bounds descending, ties
// by ascending object) to dst: its spatial codes, its textual codes — nil on
// a single-bound list — and its objects. It is the one encoder of the list
// layout: Compress codes a flat list's bounds for it, FromCodedRuns hands it
// the codes its producer took.
func appendList(dst []byte, objs []uint32, codes, tCodes []uint16, lay Layout) []byte {
	for _, lane := range [][]uint16{codes, tCodes} {
		for _, c := range lane {
			dst = binary.LittleEndian.AppendUint16(dst, c)
		}
	}
	for _, o := range objs {
		if lay.Obj16 {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(o))
		} else {
			dst = binary.LittleEndian.AppendUint32(dst, o)
		}
	}
	return dst
}

// appendCodes appends the code of every bound to dst.
func appendCodes(dst []uint16, bounds []float64) []uint16 {
	for _, b := range bounds {
		dst = append(dst, Code(b))
	}
	return dst
}

// fitsObj16 reports whether every posted object fits two bytes, which is
// what picks an index's object width.
func fitsObj16(objs []uint32) bool { return len(objs) == 0 || slices.Max(objs) <= math.MaxUint16 }

// walkColumns checks a list of n rows where it lies, for what the query path
// relies on: spatial codes that never ascend, which is what makes Cutoff's
// binary search valid; no code past maxCode, which would decode to NaN;
// objects below the exclusive bound objects. Opening a segment walks every
// list once; a probe then reads without checking.
func walkColumns(b []byte, n int, dual bool, lay Layout, objects int) error {
	l := lay.list(b, n, dual)
	if !walkCodes(l.codes, true) || !walkCodes(l.tCodes, false) {
		return corrupt("bound code past infinity, or spatial codes ascending")
	}
	for i := 0; i < n; i++ {
		if int(l.Obj(i)) >= objects {
			return corrupt("posting object out of range")
		}
	}
	return nil
}

// walkCodes walks one lane of codes and reports whether every code is at
// most maxCode and, on the spatial lane, none ascends. Codes are checked as
// codes, which order as their bounds do.
func walkCodes(b []byte, spatial bool) bool {
	prev := uint16(maxCode)
	for i := 0; i < len(b); i += 2 {
		q := binary.LittleEndian.Uint16(b[i:])
		if q > prev {
			return false
		}
		if spatial {
			prev = q
		}
	}
	return true
}

// List is one served posting list, read where it lies: views of its columns
// in the index's blob (for a mapped segment, its pages) and the index's
// Layout. Nothing is decoded or copied, so a probe allocates nothing and the
// view stays valid for as long as the index. The zero List is empty.
type List struct {
	codes  []byte // n spatial codes, descending
	tCodes []byte // n textual codes, dual lists only
	objs   []byte // n object IDs
	layout Layout
}

// list cuts the n rows of one list, b, into its columns.
func (lay Layout) list(b []byte, n int, dual bool) List {
	l := List{codes: b[:2*n], objs: b[2*n:], layout: lay}
	if dual {
		l.tCodes, l.objs = b[2*n:4*n], b[4*n:]
	}
	return l
}

// Len returns the number of postings.
func (l List) Len() int { return len(l.codes) / 2 }

// code returns the spatial code of posting i.
func (l List) code(i int) uint16 { return binary.LittleEndian.Uint16(l.codes[2*i:]) }

// Cutoff returns the number of leading postings whose spatial code is at
// least c: for c = Code(s), the size of I_s from Lemma 3 over the decoded
// bounds. Hand-rolled: a sort.Search closure would heap-escape on the
// allocation-free query path.
func (l List) Cutoff(c uint16) int {
	lo, hi := 0, l.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.code(mid) < c {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TCode returns the textual code of posting i of a dual list.
func (l List) TCode(i int) uint16 { return binary.LittleEndian.Uint16(l.tCodes[2*i:]) }

// Obj returns the object of posting i.
func (l List) Obj(i int) uint32 { return l.layout.obj(l.objs, i) }

// Posting decodes posting i, for tests and tools; the query path compares
// codes and never widens one.
func (l List) Posting(i int) Posting {
	p := Posting{Obj: l.Obj(i), Bound: float64(decodeBound(l.code(i)))}
	if l.tCodes != nil {
		p.TBound = float64(decodeBound(l.TCode(i)))
	}
	return p
}

// Compressed is the served posting index: the key column of the flat Index it
// was built from, over a blob of fixed-width rows and the extent table that
// cuts it into lists. A probe returns a List over the rows in place.
type Compressed struct {
	// What At reads comes first, the extent table held by value: a probe's
	// select starts one dependent load sooner.
	rows   Extents // list i holds rows rows.Span(i) of blob
	blob   []byte
	width  int // bytes a row
	layout Layout
	dual   bool
	keyColumn
}

// Compress encodes a flat index for serving. The source index is unchanged
// and shares its (immutable) key column with the result. Bounds must not be
// NaN — true of every canonically built index.
func Compress(ix *Index) *Compressed {
	lay := Layout{Obj16: fitsObj16(ix.objs)}
	out := newCompressed(ix.keyColumn, ix.starts, ix.dual, lay)
	var codes, tCodes []uint16
	for i, lo := range ix.starts[:len(ix.starts)-1] {
		hi := ix.starts[i+1]
		codes = appendCodes(codes[:0], ix.bounds[lo:hi])
		if ix.dual {
			tCodes = appendCodes(tCodes[:0], ix.tBounds[lo:hi])
		}
		out.blob = appendList(out.blob, ix.objs[lo:hi], codes, tCodes, lay)
	}
	return out
}

// newCompressed wraps a key column and its lists' row offsets — list i holds
// rows [starts[i], starts[i+1]) — around an empty blob sized to hold them.
func newCompressed(col keyColumn, starts []uint32, dual bool, lay Layout) *Compressed {
	out := &Compressed{
		keyColumn: col,
		rows:      *extentsOf(starts), // a posting is a row
		width:     lay.rowWidth(dual),
		layout:    lay,
		dual:      dual,
	}
	out.blob = make([]byte, 0, int(starts[len(starts)-1])*out.width)
	return out
}

// CodedRun is a stretch of finished dual-bound lists for FromCodedRuns, all
// of one key group, already coded: list i has key Group<<32 | Nodes[i] and
// holds the next Lens[i] entries of Objs, Codes and TCodes. Nodes ascend, and
// every list is already in index order — one posting per object, descending
// spatial bound, ties by ascending object — with each bound coded by Code:
// what Compress would make of a dual Builder's lists of the same postings.
type CodedRun struct {
	Group  uint32
	Nodes  []uint32
	Lens   []uint32
	Objs   []uint32
	Codes  []uint16
	TCodes []uint16
}

// FromCodedRuns assembles runs, whose keys ascend from each run to the next
// and whose groups all lie below groups, into a dual Compressed index by
// concatenation: no map, no key sort, no list sort and no flat index — the
// key column, the row extents and the blob, its object width chosen as
// Compress chooses it. It is the constructor for a producer that partitions
// the key space and sorts as it goes (the SEAL build, one run per token);
// Builder and Compress remain the path for postings that arrive in any order.
// Keys out of order or lengths that do not add up are the producer's bug and
// panic.
func FromCodedRuns(groups int, runs []CodedRun) *Compressed {
	var lists, postings int
	obj16 := true
	for i := range runs {
		r := &runs[i]
		if len(r.Lens) != len(r.Nodes) || len(r.Codes) != len(r.Objs) || len(r.TCodes) != len(r.Objs) {
			panic(fmt.Sprintf("invidx: run %d has mismatched lengths", i))
		}
		lists += len(r.Nodes)
		postings += len(r.Objs)
		obj16 = obj16 && fitsObj16(r.Objs)
	}
	checkOffsetRange(postings)
	col := keyColumn{nodes: make([]uint32, 0, lists)}
	counts := make([]uint32, groups+1)
	starts := make([]uint32, 1, lists+1)
	last := int64(-1)
	for i := range runs {
		r := &runs[i]
		base := int(starts[len(starts)-1])
		end := base
		for j, node := range r.Nodes {
			key := int64(r.Group)<<32 | int64(node)
			if key <= last || int(r.Group) >= groups {
				panic(fmt.Sprintf("invidx: run %d key %#x does not ascend inside %d groups", i, key, groups))
			}
			last = key
			col.nodes = append(col.nodes, node)
			counts[r.Group+1]++
			end += int(r.Lens[j])
			starts = append(starts, uint32(end))
		}
		if end-base != len(r.Objs) {
			panic(fmt.Sprintf("invidx: run %d lists hold %d postings, its lanes %d", i, end-base, len(r.Objs)))
		}
	}
	col.runs = runTable(counts)
	lay := Layout{Obj16: obj16}
	out := newCompressed(col, starts, true, lay)
	for i := range runs {
		r := &runs[i]
		lo := 0
		for _, n := range r.Lens {
			hi := lo + int(n)
			out.blob = appendList(out.blob, r.Objs[lo:hi], r.Codes[lo:hi], r.TCodes[lo:hi], lay)
			lo = hi
		}
	}
	return out
}

// At returns list i, the i-th in key order. Every position a filter asks for
// comes from the key column, which was validated with the lists, so a
// position outside [0, Lists()) is a bug: it panics with the position and the
// count rather than read a neighbouring list (the extent select does not
// bounds-check).
func (ix *Compressed) At(i int) List {
	if uint(i) >= uint(ix.rows.Len()) {
		panic(fmt.Sprintf("invidx: list position %d outside [0, %d)", i, ix.rows.Len()))
	}
	lo, hi := ix.rows.Span(i)
	return ix.layout.list(ix.blob[lo*ix.width:hi*ix.width], hi-lo, ix.dual)
}

// Probe looks key up and returns the list At its position; an absent key
// yields an empty list.
func (ix *Compressed) Probe(key uint64) List {
	if i := ix.find(key); i >= 0 {
		return ix.At(i)
	}
	return List{}
}

// Dual reports whether the lists carry textual bounds.
func (ix *Compressed) Dual() bool { return ix.dual }

// Lists returns the number of lists.
func (ix *Compressed) Lists() int { return ix.lists() }

// Postings returns the total number of postings.
func (ix *Compressed) Postings() int { return len(ix.blob) / ix.width }

// SizeBytes reports the compressed footprint — the blob, the extent table and
// the key column — which is the bytes of a segment's sections.
func (ix *Compressed) SizeBytes() int64 {
	return int64(len(ix.blob)) + ix.rows.sizeBytes() + ix.sizeBytes()
}

// EachLen reports every list's key and length, read off the extent table
// alone without touching the blob.
func (ix *Compressed) EachLen(fn func(key uint64, n int)) {
	rows := ix.rows.values()
	lo := rows.next()
	ix.eachKey(func(_ int, key uint64) {
		hi := rows.next()
		fn(key, hi-lo)
		lo = hi
	})
}

// Arenas exposes the index's backing slices.
func (ix *Compressed) Arenas() CompressedArenas {
	return CompressedArenas{KeyArenas: ix.arenas(), Dual: ix.dual, Extents: ix.rows.words, Blob: ix.blob, Layout: ix.layout}
}

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
// Bounds only ever round up, so a Cutoff head over a decoded list is a
// superset of the exact head and verification keeps answers unchanged. That
// holds at the ends too: a bound at or below zero codes to 0, and one above
// the largest finite code — about 3.396e38, reachable only through
// caller-supplied token weights or coordinates near 1e19 — saturates to the
// infinity code, which every threshold clears.
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

// ErrCorrupt reports that an encoded posting list failed validation. Every
// decode error wraps it, so callers can errors.Is a probe failure regardless
// of which invariant the bytes violated.
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

// boundCode returns the smallest code whose bound is >= b, for any b but NaN:
// 0 for a bound at or below zero, maxCode for one above the largest finite
// code, and otherwise b's float32 ceiling, cut to its top 16 magnitude bits
// and bumped when the cut dropped anything — a carry out of the kept mantissa
// moves into the exponent, which is still the next code up. Rounding up is
// what keeps compressed filtering a superset of exact filtering: a list head
// selected by Cutoff(c) can only gain postings. It is monotone in b, so
// descending bounds get descending codes.
func boundCode(b float64) uint16 {
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

// appendList appends the encoding of one canonical list (bounds descending,
// ties by ascending object) to dst. tBounds is nil for single-bound lists.
func appendList(dst []byte, objs []uint32, bounds, tBounds []float64, lay Layout) []byte {
	for _, lane := range [][]float64{bounds, tBounds} {
		for _, b := range lane {
			dst = binary.LittleEndian.AppendUint16(dst, boundCode(b))
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

// walkColumns walks a list of n rows, checking what the query path relies on
// — spatial codes that never ascend, which is what makes their bounds valid
// input for cutoffDesc; no code past maxCode, which would decode to NaN;
// objects below the exclusive bound objects — and, given a scratch, widening
// each column into it. A probe passes its scratch and no bound (the index was
// held to one when it opened); opening a segment passes the bound and no
// scratch, so every list is validated where it lies.
func walkColumns(b []byte, n int, dual bool, lay Layout, objects int, scr *ListScratch) error {
	var bounds, tBounds []float64
	if scr != nil {
		bounds, tBounds = scr.bounds, scr.tBounds
	}
	if !walkCodes(b, n, true, bounds) || dual && !walkCodes(b[2*n:], n, false, tBounds) {
		return corrupt("bound code past infinity, or spatial codes ascending")
	}
	objs := b[2*n:]
	if dual {
		objs = b[4*n:]
	}
	for i := 0; i < n; i++ {
		o := lay.obj(objs, i)
		if int(o) >= objects {
			return corrupt("posting object out of range")
		}
		if scr != nil {
			scr.objs[i] = o
		}
	}
	return nil
}

// walkCodes walks one lane of n codes, widening it into out unless out is nil,
// and reports whether every code is at most maxCode and, on the spatial lane,
// none ascends. Codes are checked as codes, which order as their bounds do.
func walkCodes(b []byte, n int, spatial bool, out []float64) bool {
	prev := uint16(maxCode)
	for i := 0; i < n; i++ {
		q := binary.LittleEndian.Uint16(b[2*i:])
		if q > prev {
			return false
		}
		if spatial {
			prev = q
		}
		if out != nil {
			out[i] = float64(decodeBound(q))
		}
	}
	return true
}

// Compressed is the compressed counterpart of Index: the flat index's key
// column over a blob of fixed-width rows and the extent table that cuts it
// into lists. Probes decode into a caller-supplied ListScratch, so
// steady-state querying allocates nothing; the decoded view is valid until the
// next probe with the same scratch.
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

// Compress re-encodes a flat index. The source index is unchanged and shares
// its (immutable) key column with the result. Bounds must not be NaN — true of
// every canonically built index.
func Compress(ix *Index) *Compressed {
	lay := Layout{Obj16: len(ix.objs) == 0 || slices.Max(ix.objs) <= math.MaxUint16}
	out := &Compressed{
		keyColumn: ix.keyColumn,
		rows:      *extentsOf(ix.starts), // a posting is a row
		width:     lay.rowWidth(ix.dual),
		layout:    lay,
		dual:      ix.dual,
	}
	out.blob = make([]byte, 0, len(ix.objs)*out.width)
	for i, lo := range ix.starts[:len(ix.starts)-1] {
		hi := ix.starts[i+1]
		var tb []float64
		if ix.dual {
			tb = ix.tBounds[lo:hi]
		}
		out.blob = appendList(out.blob, ix.objs[lo:hi], ix.bounds[lo:hi], tb, lay)
	}
	return out
}

// At decodes list i into scr (a nil scr allocates a throwaway buffer, for
// non-hot callers). Corrupt encodings yield an error wrapping ErrCorrupt.
func (ix *Compressed) At(i int, scr *ListScratch) (List, error) {
	if uint(i) >= uint(ix.rows.Len()) {
		return List{}, errPosition(i, ix.rows.Len())
	}
	if scr == nil {
		scr = new(ListScratch)
	}
	lo, hi := ix.rows.Span(i)
	n := hi - lo
	scr.grow(n, ix.dual)
	if err := walkColumns(ix.blob[lo*ix.width:hi*ix.width], n, ix.dual, ix.layout, math.MaxInt, scr); err != nil {
		return List{}, fmt.Errorf("invidx: list %d: %w", i, err)
	}
	return List{objs: scr.objs, bounds: scr.bounds, tBounds: scr.tBounds}, nil
}

// Probe looks key up and decodes the list At its position. Absent keys yield
// an empty list and nil error.
func (ix *Compressed) Probe(key uint64, scr *ListScratch) (List, error) {
	i := ix.find(key)
	if i < 0 {
		return List{}, nil
	}
	return ix.At(i, scr)
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

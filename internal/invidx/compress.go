package invidx

// Compressed posting lists. A compressed index is the flat index's key column
// over one byte blob of fixed-width rows and one extent table: list i holds
// rows [Get(i), Get(i+1)) of the Extents, each list laid out as columns
// starting at its first row's byte offset, and every list of one index is
// encoded the same way (its Layout). A list carries no header at all: its
// posting count is its extent. The extent table codes a list in one bit plus
// one bit a posting, where a uint32 byte offset took four bytes.
//
// The quantized layout (the default) is
//
//	n × uint16              spatial codes, descending
//	n × uint16              textual codes, dual lists only
//	n × uint16 | uint32     object IDs, in list order
//
// One code serves every bound of every list of every index — the top 16
// magnitude bits of the bound's float32 (8 exponent, 8 mantissa), rounded up —
// so a code means the same bound wherever it is read, decoding is a shift, the
// relative error is below 2⁻⁸ at every magnitude, and codes order as their
// bounds do. Object IDs take two bytes when every ID of the index fits (a
// shard of at most 65,536 objects), four otherwise.
//
// Bounds only ever round up, so a Cutoff head over a decoded list is a
// superset of the exact head and verification keeps answers unchanged.
//
// The exact layout is the same columns with float64 lanes — every bound bit
// for bit — and is the whole-index fallback for bounds the quantized layout
// cannot hold (see quantizable):
//
//	n × float64             spatial bounds, descending
//	n × float64             textual bounds, dual lists only
//	n × uint16 | uint32     object IDs, in list order
//
// One column walk reads both; only the reader of a bound lane differs.
//
// This replaces, in turn, a run-length layout (a header per distinct bound,
// delta-varint or bitmap objects) and a columnar one that scaled each list's
// codes by a float32 step of its own, stored with a count ahead of the
// columns, and fell back to float32 bounds under four postings — 11 bytes of
// header on a dual list where four lists in five hold one or two postings.

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
	Exact bool // float64 bound lanes; false is the quantized layout's uint16 codes
	Obj16 bool // object IDs take 2 bytes instead of 4
}

// boundWidth is the bytes a bound takes in one of the layout's lanes.
func (lay Layout) boundWidth() int {
	if lay.Exact {
		return 8
	}
	return 2
}

// rowWidth is the bytes a posting takes: its bound lanes and its object ID.
func (lay Layout) rowWidth(dual bool) int {
	w := lay.boundWidth()
	if dual {
		w *= 2
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

// maxCode is the largest bound code: the top bits of the largest float32
// whose low 15 bits are clear. The codes above it are float32's infinity and
// NaNs and are never written.
const maxCode = 0xFEFF

// ceil32 returns the smallest float32 that is >= v, for 0 <= v <= MaxFloat32.
func ceil32(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// boundCode returns the smallest code whose bound is >= b, for 0 <= b <=
// decodeBound(maxCode) (see quantizable): b's float32 ceiling, cut to its top
// 16 magnitude bits and bumped when the cut dropped anything — a carry out of
// the kept mantissa moves into the exponent, which is still the next code up.
// Rounding up is what keeps compressed filtering a superset of exact
// filtering: a list head selected by Cutoff(c) can only gain postings. It is
// monotone in b, so descending bounds get descending codes.
func boundCode(b float64) uint16 {
	bits := math.Float32bits(ceil32(b))
	code := bits >> 15
	if bits&(1<<15-1) != 0 {
		code++
	}
	return uint16(code)
}

// decodeBound returns the bound a code stands for.
func decodeBound(code uint16) float32 { return math.Float32frombits(uint32(code) << 15) }

// quantizable reports whether every bound lies in [0, decodeBound(maxCode)] —
// the domain of the quantized layout; anything larger would round up into the
// infinity and NaN codes. Canonical indexes (suffix weight sums) always
// qualify; an index with exotic builder inputs is encoded exact.
func quantizable(lanes ...[]float64) bool {
	for _, lane := range lanes {
		for _, b := range lane {
			if !(b >= 0 && b <= float64(decodeBound(maxCode))) {
				return false
			}
		}
	}
	return true
}

// appendList appends the encoding of one canonical list (bounds descending,
// ties by ascending object) to dst. tBounds is nil for single-bound lists.
func appendList(dst []byte, objs []uint32, bounds, tBounds []float64, lay Layout) []byte {
	for _, lane := range [][]float64{bounds, tBounds} {
		for _, b := range lane {
			if lay.Exact {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b))
			} else {
				dst = binary.LittleEndian.AppendUint16(dst, boundCode(b))
			}
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
// — spatial bounds that never ascend, which is what makes them valid input for
// cutoffDesc; bounds no NaN, nor a quantized one past the largest finite code;
// objects below the exclusive bound objects — and, given a scratch, widening
// each column into it. A probe passes its scratch and no bound (the index was
// held to one when it opened); opening a segment passes the bound and no
// scratch, so every list is validated where it lies.
func walkColumns(b []byte, n int, dual bool, lay Layout, objects int, scr *ListScratch) error {
	var bounds, tBounds []float64
	if scr != nil {
		bounds, tBounds = scr.bounds, scr.tBounds
	}
	lanes := 1
	if dual {
		lanes = 2
	}
	for l, lane := 0, lay.boundWidth()*n; l < lanes; l++ {
		out := bounds
		if l == 1 {
			out = tBounds
		}
		var ok bool
		if lay.Exact {
			ok = walkFloats(b[:lane], n, l == 0, out)
		} else {
			ok = walkCodes(b[:lane], n, l == 0, out)
		}
		if !ok {
			return corrupt("bound NaN, past the largest finite code, or spatial bounds ascending")
		}
		b = b[lane:]
	}
	for i := 0; i < n; i++ {
		o := lay.obj(b, i)
		if int(o) >= objects {
			return corrupt("posting object out of range")
		}
		if scr != nil {
			scr.objs[i] = o
		}
	}
	return nil
}

// walkCodes and walkFloats walk one bound lane of n entries, of the quantized
// and the exact layout, widening it into out unless out is nil; they report
// whether every bound is valid — not past the largest finite code, not NaN —
// and, on the spatial lane, none ascends. Quantized codes are checked as
// codes, which order as their bounds do.
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

func walkFloats(b []byte, n int, spatial bool, out []float64) bool {
	prev := math.Inf(1)
	for i := 0; i < n; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		if !(v <= prev) {
			return false
		}
		if spatial {
			prev = v
		}
		if out != nil {
			out[i] = v
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
// every canonically built index — and bounds the quantized layout cannot hold
// switch the whole index to the exact one.
func Compress(ix *Index) *Compressed {
	lay := Layout{
		Exact: !quantizable(ix.bounds, ix.tBounds),
		Obj16: len(ix.objs) == 0 || slices.Max(ix.objs) <= math.MaxUint16,
	}
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

package invidx

// Compressed posting lists. A compressed index is the flat index's key column
// over one byte blob; list i spans blob[offs[i]:offs[i+1]], and every list of
// one index is encoded the same way (its Layout).
//
// The quantized layout (the default) is columnar and fixed-width:
//
//	n × uint16              spatial codes, descending
//	n × uint16              textual codes, dual lists only
//	n × uint16 | uint32     object IDs, in list order
//
// so a list carries no header at all: its posting count is its extent divided
// by the row width, and an extent off that lattice is corrupt. One code serves
// every bound of every list of every index — the top 16 magnitude bits of the
// bound's float32 (8 exponent, 8 mantissa), rounded up — so a code means the
// same bound wherever it is read, decoding is a shift, the relative error is
// below 2⁻⁸ at every magnitude, and codes order as their bounds do. Object
// IDs take two bytes when every ID of the index fits (a shard of at most
// 65,536 objects), four otherwise.
//
// Bounds only ever round up, so a Cutoff head over a decoded list is a
// superset of the exact head and verification keeps answers unchanged.
//
// This replaces, in turn, a run-length layout (a header per distinct bound,
// delta-varint or bitmap objects) and a columnar one that scaled each list's
// codes by a float32 step of its own, stored with a count ahead of the
// columns, and fell back to float32 bounds under four postings — 11 bytes of
// header on a dual list where four lists in five hold one or two postings.
//
// The exact layout keeps every bound bit for bit. It is the whole-index
// fallback for bounds the quantized layout cannot hold (see quantizable):
//
//	uvarint n, uvarint first object, n-1 zig-zag varint object deltas,
//	n × float64 bounds, n × float64 textual bounds (dual lists only)

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
	Exact bool // exact layout; false is the quantized one
	Obj16 bool // quantized object IDs take 2 bytes instead of 4
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

// checkBlobRange guards the uint32 blob offsets, mirroring checkOffsetRange.
func checkBlobRange(n int) {
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("invidx: compressed blob of %d bytes exceeds 32-bit offsets; shard the dataset", n))
	}
}

// appendList appends the encoding of one canonical list (bounds descending,
// ties by ascending object) to dst. tBounds is nil for single-bound lists.
func appendList(dst []byte, objs []uint32, bounds, tBounds []float64, lay Layout) []byte {
	if lay.Exact {
		return appendExact(dst, objs, bounds, tBounds)
	}
	for _, b := range bounds {
		dst = binary.LittleEndian.AppendUint16(dst, boundCode(b))
	}
	for _, tb := range tBounds {
		dst = binary.LittleEndian.AppendUint16(dst, boundCode(tb))
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

// appendExact emits an exact list: its count, then object IDs as zig-zag
// deltas in canonical list order (bound-descending order is not ID-ascending,
// so gaps can be negative), followed by the raw bound bits.
func appendExact(dst []byte, objs []uint32, bounds, tBounds []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(objs)))
	if len(objs) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(objs[0]))
	for i := 1; i < len(objs); i++ {
		dst = binary.AppendVarint(dst, int64(objs[i])-int64(objs[i-1]))
	}
	for _, b := range bounds {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b))
	}
	for _, tb := range tBounds {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(tb))
	}
	return dst
}

// rowWidth is the number of bytes a posting takes in a quantized list.
func rowWidth(dual, obj16 bool) int {
	w := 2 + 4
	if dual {
		w += 2
	}
	if obj16 {
		w -= 2
	}
	return w
}

// decodeList materializes one encoded list (exactly data, no more, no less)
// into scr and returns its posting count. Every read is bounds-checked and
// every structural invariant the query path relies on — descending finite
// bounds, 32-bit object IDs, a payload that is exactly as long as its count
// needs — is verified, so a corrupt or truncated list returns an error
// wrapping ErrCorrupt instead of panicking or silently mis-decoding. The hot
// path allocates nothing once scr has grown.
func decodeList(data []byte, dual bool, lay Layout, scr *ListScratch) (int, error) {
	if !lay.Exact {
		n, err := quantLen(data, dual, lay.Obj16)
		if err != nil {
			return 0, err
		}
		scr.grow(n, dual)
		return n, scanQuant(data, n, dual, lay.Obj16, math.MaxInt, scr)
	}
	v, k := binary.Uvarint(data)
	// The shortest exact list spends one varint byte per object, so this caps
	// the count — and with it everything computed from it below — by the
	// payload size rather than by a number read from an untrusted file.
	perPosting := uint64(1 + 8)
	if dual {
		perPosting += 8
	}
	if k <= 0 || v > uint64(len(data)) || uint64(len(data)-k) < v*perPosting {
		return 0, corrupt("posting count exceeds payload")
	}
	scr.grow(int(v), dual)
	return int(v), decodeExact(data[k:], int(v), dual, scr)
}

// quantLen is the posting count of a quantized list: its extent in rows.
func quantLen(data []byte, dual, obj16 bool) (int, error) {
	w := rowWidth(dual, obj16)
	if len(data)%w != 0 {
		return 0, corrupt("list extent off the row lattice")
	}
	return len(data) / w, nil
}

// scanQuant walks a quantized list of n rows, checking what the query path
// relies on — spatial codes that never ascend, which is what makes the decoded
// bounds valid input for cutoffDesc, and start at or below the largest finite
// one; finite textual codes; objects below the exclusive bound objects — and,
// given a scratch, widening each column into it. A probe passes its scratch
// and no bound (the index was held to one when it opened); opening a segment
// passes the bound and no scratch, so every list is validated where it lies.
func scanQuant(b []byte, n int, dual, obj16 bool, objects int, scr *ListScratch) error {
	prev := uint16(maxCode)
	for i := 0; i < n; i++ {
		q := binary.LittleEndian.Uint16(b[2*i:])
		if q > prev {
			return corrupt("bound codes not descending")
		}
		prev = q
		if scr != nil {
			scr.bounds[i] = float64(decodeBound(q))
		}
	}
	b = b[2*n:]
	if dual {
		for i := 0; i < n; i++ {
			q := binary.LittleEndian.Uint16(b[2*i:])
			if q > maxCode {
				return corrupt("invalid textual bound code")
			}
			if scr != nil {
				scr.tBounds[i] = float64(decodeBound(q))
			}
		}
		b = b[2*n:]
	}
	for i := 0; i < n; i++ {
		var o uint32
		if obj16 {
			o = uint32(binary.LittleEndian.Uint16(b[2*i:]))
		} else {
			o = binary.LittleEndian.Uint32(b[4*i:])
		}
		if int(o) >= objects {
			return corrupt("posting object out of range")
		}
		if scr != nil {
			scr.objs[i] = o
		}
	}
	return nil
}

func decodeExact(b []byte, n int, dual bool, scr *ListScratch) error {
	if n == 0 {
		if len(b) != 0 {
			return corrupt("trailing bytes after empty list")
		}
		return nil
	}
	v, k := binary.Uvarint(b)
	if k <= 0 || v > math.MaxUint32 {
		return corrupt("bad first object")
	}
	b = b[k:]
	scr.objs[0] = uint32(v)
	cur := int64(v)
	for i := 1; i < n; i++ {
		d, k := binary.Varint(b)
		if k <= 0 {
			return corrupt("bad object delta")
		}
		b = b[k:]
		cur += d
		if cur < 0 || cur > math.MaxUint32 {
			return corrupt("object delta out of range")
		}
		scr.objs[i] = uint32(cur)
	}
	boundBytes := n * 8
	if dual {
		boundBytes *= 2
	}
	if len(b) != boundBytes {
		return corrupt("bound payload length mismatch")
	}
	// NaNs and any violation of the descending order Cutoff's binary search
	// depends on are rejected.
	for i := range scr.bounds {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		if math.IsNaN(v) || (i > 0 && v > scr.bounds[i-1]) {
			return corrupt("bounds not descending")
		}
		scr.bounds[i] = v
	}
	if dual {
		b = b[n*8:]
		for i := range scr.tBounds {
			v := math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
			if math.IsNaN(v) {
				return corrupt("NaN textual bound")
			}
			scr.tBounds[i] = v
		}
	}
	return nil
}

// Compressed is the compressed counterpart of Index: the flat index's key
// column over a byte blob of per-list encodings. Probes decode into a
// caller-supplied ListScratch, so steady-state querying allocates nothing; the
// decoded view is valid until the next probe with the same scratch.
type Compressed struct {
	keyColumn
	offs     []uint32 // lists()+1; list i's encoding spans blob[offs[i]:offs[i+1]]
	blob     []byte
	postings int
	layout   Layout
	dual     bool
}

// Compress re-encodes a flat index. The source index is unchanged and shares
// its (immutable) key column with the result. Bounds must not be NaN — true of
// every canonically built index — and bounds the quantized layout cannot hold
// switch the whole index to the exact one.
func Compress(ix *Index) *Compressed {
	out := &Compressed{
		keyColumn: ix.keyColumn,
		offs:      make([]uint32, 1, len(ix.starts)),
		postings:  len(ix.objs),
		layout:    Layout{Exact: !quantizable(ix.bounds, ix.tBounds)},
		dual:      ix.dual,
	}
	if !out.layout.Exact {
		out.layout.Obj16 = len(ix.objs) == 0 || slices.Max(ix.objs) <= math.MaxUint16
	}
	for i, lo := range ix.starts[:len(ix.starts)-1] {
		hi := ix.starts[i+1]
		var tb []float64
		if ix.dual {
			tb = ix.tBounds[lo:hi]
		}
		out.blob = appendList(out.blob, ix.objs[lo:hi], ix.bounds[lo:hi], tb, out.layout)
		checkBlobRange(len(out.blob))
		out.offs = append(out.offs, uint32(len(out.blob)))
	}
	return out
}

// At decodes list i into scr (a nil scr allocates a throwaway buffer, for
// non-hot callers). Corrupt encodings yield an error wrapping ErrCorrupt.
func (ix *Compressed) At(i int, scr *ListScratch) (List, error) {
	if uint(i) >= uint(len(ix.offs)-1) {
		return List{}, errPosition(i, len(ix.offs)-1)
	}
	if scr == nil {
		scr = new(ListScratch)
	}
	n, err := decodeList(ix.blob[ix.offs[i]:ix.offs[i+1]], ix.dual, ix.layout, scr)
	if err != nil {
		return List{}, fmt.Errorf("invidx: list %d: %w", i, err)
	}
	return List{objs: scr.objs[:n], bounds: scr.bounds[:n], tBounds: scr.tBounds}, nil
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
func (ix *Compressed) Postings() int { return ix.postings }

// SizeBytes reports the compressed footprint: the blob plus offsets and the
// key column.
func (ix *Compressed) SizeBytes() int64 {
	return int64(len(ix.blob)) + int64(len(ix.offs))*4 + ix.sizeBytes()
}

// EachLen reports every list's key and length without decoding the postings:
// a quantized list's length is its extent in rows, read off offs alone, and an
// exact one's is the count that leads its encoding.
func (ix *Compressed) EachLen(fn func(key uint64, n int)) {
	w := uint32(rowWidth(ix.dual, ix.layout.Obj16))
	ix.eachKey(func(i int, key uint64) {
		n := uint64((ix.offs[i+1] - ix.offs[i]) / w)
		if ix.layout.Exact {
			n, _ = binary.Uvarint(ix.blob[ix.offs[i]:ix.offs[i+1]])
		}
		fn(key, int(n))
	})
}

// Arenas exposes the index's backing slices.
func (ix *Compressed) Arenas() CompressedArenas {
	return CompressedArenas{KeyArenas: ix.arenas(), Dual: ix.dual, Offs: ix.offs, Blob: ix.blob, Layout: ix.layout}
}

package invidx

// Compressed posting lists. A compressed index is the flat index's key table
// (and hash directory, where it has one) over one byte blob; offs[i] is where
// list i starts, and every list of one index is encoded the same way (its
// Layout).
//
// The quantized layout (the default) is columnar and fixed-width, so a list's
// encoded length is an exact function of its posting count n:
//
//	n ≥ 4   uvarint n
//	        float32 step            spatial quantization step, rounded up
//	        float32 tstep           dual lists only
//	        n × uint16              spatial codes, descending
//	        n × uint16              textual codes, dual lists only
//	        n × uint16 | uint32     object IDs, in list order
//
//	n < 4   uvarint n
//	        n × float32             spatial bounds, rounded up, descending
//	        n × float32             textual bounds, dual lists only
//	        n × uint16 | uint32     object IDs
//
// A code q stands for the bound step·q. step is the list's largest bound
// divided by 65535 and rounded up to a float32 with step·65535 ≥ that bound,
// and a float32 times a 16-bit integer is exact in float64: decoding is one
// multiplication per bound with no rounding, and every code is chosen so that
// its bound is at least the exact one. Lists of one to three postings — six
// in seven of the lists SEAL builds — spend the header's bytes on float32
// bounds instead. Object IDs take two bytes when every ID of the index fits
// (a shard of at most 65,536 objects), four otherwise.
//
// Bounds only ever round up, so a Cutoff head over a decoded list is a
// superset of the exact head and verification keeps answers unchanged.
//
// This replaces a run-length layout (one header per distinct quantized bound,
// objects as delta varints or a bitmap, smallest-of-raw-or-encoded per list).
// On the index SEAL builds for 50k objects 95.5 % of those runs held a single
// posting, so each posting paid a code delta, a run length, a container byte
// and a first-object varint — about 9 bytes — where the columns cost 6, and
// the 86 % of lists under four postings were stored raw at 21 bytes each.
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

// quantLevels is the resolution of quantized bounds: codes 0..65535 are
// multiples of the list's quantization step.
const quantLevels = 65535

// directCutoff is the list length below which the quantized layout stores
// float32 bounds instead of a step and codes.
const directCutoff = 4

// ceil32 returns the smallest float32 that is >= v, for 0 <= v <= MaxFloat32.
func ceil32(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// quantStep returns the quantization step for a list whose largest bound is
// maxB: the smallest float32 whose 65535th multiple reaches maxB, so the
// largest bound always has a code.
func quantStep(maxB float64) float32 {
	s := ceil32(maxB / quantLevels)
	for float64(s)*quantLevels < maxB {
		s = math.Nextafter32(s, float32(math.Inf(1)))
	}
	return s
}

// quant returns a 16-bit code whose bound step·q is >= b (ceiling
// quantization), for b no larger than step·65535. Rounding up is what keeps
// compressed filtering a superset of exact filtering: a list head selected by
// Cutoff(c) can only gain postings, never lose one the exact index kept. It
// is monotone in b, so descending bounds get descending codes.
func quant(b, step float64) uint16 {
	if b <= 0 || step <= 0 {
		return 0
	}
	r := math.Ceil(b / step)
	if r >= quantLevels {
		return quantLevels
	}
	q := uint16(r)
	for q < quantLevels && step*float64(q) < b {
		q++
	}
	return q
}

// quantizable reports whether every bound is non-negative and within float32
// range — the domain of the quantized layout. Canonical indexes (suffix weight
// sums) always qualify; an index with exotic builder inputs is encoded exact.
func quantizable(lanes ...[]float64) bool {
	for _, lane := range lanes {
		for _, b := range lane {
			if !(b >= 0 && b <= math.MaxFloat32) {
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

func appendF32(dst []byte, f float32) []byte {
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
}

// appendList appends the encoding of one canonical list (bounds descending,
// ties by ascending object) to dst. tBounds is nil for single-bound lists.
func appendList(dst []byte, objs []uint32, bounds, tBounds []float64, lay Layout) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(objs)))
	if len(objs) == 0 {
		return dst
	}
	if lay.Exact {
		return appendExact(dst, objs, bounds, tBounds)
	}
	if len(objs) < directCutoff {
		for _, b := range bounds {
			dst = appendF32(dst, ceil32(b))
		}
		for _, tb := range tBounds {
			dst = appendF32(dst, ceil32(tb))
		}
	} else {
		step := quantStep(bounds[0]) // canonical lists are bound-descending
		dst = appendF32(dst, step)
		var tstep float32
		if tBounds != nil {
			tstep = quantStep(slices.Max(tBounds))
			dst = appendF32(dst, tstep)
		}
		for _, b := range bounds {
			dst = binary.LittleEndian.AppendUint16(dst, quant(b, float64(step)))
		}
		for _, tb := range tBounds {
			dst = binary.LittleEndian.AppendUint16(dst, quant(tb, float64(tstep)))
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

// appendExact emits the exact layout's body: object IDs as zig-zag deltas in
// canonical list order (bound-descending order is not ID-ascending, so gaps
// can be negative), followed by the raw bound bits.
func appendExact(dst []byte, objs []uint32, bounds, tBounds []float64) []byte {
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

// quantBodyLen is the exact number of bytes a quantized list of n postings
// takes after its count (uint64: n may come from an untrusted file).
func quantBodyLen(n uint64, dual, obj16 bool) uint64 {
	lanes, objBytes := uint64(1), uint64(4)
	if dual {
		lanes = 2
	}
	if obj16 {
		objBytes = 2
	}
	if n < directCutoff {
		return n * (4*lanes + objBytes)
	}
	return 4*lanes + n*(2*lanes+objBytes)
}

// decodeList materializes one encoded list (exactly data, no more, no less)
// into scr and returns its posting count. Every read is bounds-checked and
// every structural invariant the query path relies on — descending bounds,
// 32-bit object IDs, a payload that is exactly as long as its count says —
// is verified, so a corrupt or truncated list returns an error wrapping
// ErrCorrupt instead of panicking or silently mis-decoding. The hot path
// allocates nothing once scr has grown.
func decodeList(data []byte, dual bool, lay Layout, scr *ListScratch) (int, error) {
	v, k := binary.Uvarint(data)
	// A posting costs more than a byte, so this caps the count — and with it
	// everything computed from it below — by the payload size rather than by
	// a number read from an untrusted file.
	if k <= 0 || v > uint64(len(data)) {
		return 0, corrupt("bad posting count")
	}
	n, body := int(v), data[k:]
	if lay.Exact {
		// The shortest exact list spends one varint byte per object.
		perPosting := uint64(1 + 8)
		if dual {
			perPosting += 8
		}
		if uint64(len(body)) < v*perPosting {
			return 0, corrupt("posting count exceeds payload")
		}
		scr.grow(n, dual)
		return n, decodeExact(body, n, dual, scr)
	}
	// Nothing is allocated for a count the payload does not back exactly.
	if uint64(len(body)) != quantBodyLen(v, dual, lay.Obj16) {
		return 0, corrupt("payload length does not match posting count")
	}
	scr.grow(n, dual)
	return n, decodeQuant(body, n, dual, lay.Obj16, scr)
}

// finite32 reports whether f is a non-negative finite number — false for NaN.
func finite32(f float32) bool { return f >= 0 && f <= math.MaxFloat32 }

func f32At(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
}

// decodeQuant decodes a quantized body whose length quantBodyLen has already
// matched against n: straight-line loops that widen each column into scr.
func decodeQuant(b []byte, n int, dual, obj16 bool, scr *ListScratch) error {
	bounds, tBounds := scr.bounds[:n], scr.tBounds
	switch {
	case n == 0:
		return nil
	case n < directCutoff:
		for i := range bounds {
			f := f32At(b, i)
			if !finite32(f) || (i > 0 && float64(f) > bounds[i-1]) {
				return corrupt("bounds not descending")
			}
			bounds[i] = float64(f)
		}
		b = b[4*n:]
		if dual {
			for i := range tBounds[:n] {
				f := f32At(b, i)
				if !finite32(f) {
					return corrupt("invalid textual bound")
				}
				tBounds[i] = float64(f)
			}
			b = b[4*n:]
		}
	default:
		step := f32At(b, 0)
		b = b[4:]
		var tstep float32
		if dual {
			tstep = f32At(b, 0)
			b = b[4:]
		}
		if !finite32(step) || !finite32(tstep) {
			return corrupt("invalid quantization step")
		}
		// Codes never ascend, which is what makes the decoded bounds valid
		// input for cutoffDesc.
		codes, prev := b[:2*n], uint16(quantLevels)
		for i := range bounds {
			q := binary.LittleEndian.Uint16(codes[2*i:])
			if q > prev {
				return corrupt("bound codes not descending")
			}
			prev = q
			bounds[i] = float64(step) * float64(q)
		}
		b = b[2*n:]
		if dual {
			codes = b[:2*n]
			for i := range tBounds[:n] {
				tBounds[i] = float64(tstep) * float64(binary.LittleEndian.Uint16(codes[2*i:]))
			}
			b = b[2*n:]
		}
	}
	objs := scr.objs[:n]
	if obj16 {
		b = b[:2*n]
		for i := range objs {
			objs[i] = uint32(binary.LittleEndian.Uint16(b[2*i:]))
		}
	} else {
		b = b[:4*n]
		for i := range objs {
			objs[i] = binary.LittleEndian.Uint32(b[4*i:])
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
// table — and its directory, when it has one — over a byte blob of per-list
// encodings. A list's posting count leads its encoding. Probes decode into a
// caller-supplied ListScratch, so steady-state querying allocates nothing; the
// decoded view is valid until the next probe with the same scratch.
type Compressed struct {
	keys     []uint64
	table    keyTable
	offs     []uint32 // len(keys)+1; list i's encoding spans blob[offs[i]:offs[i+1]]
	blob     []byte
	postings int
	layout   Layout
	dual     bool
}

// Compress re-encodes a flat index. The source index is unchanged and shares
// its (immutable) key table, and directory if any, with the result. Bounds
// must not be NaN — true of every canonically built index — and bounds the
// quantized layout cannot hold switch the whole index to the exact one.
func Compress(ix *Index) *Compressed {
	out := &Compressed{
		keys:     ix.keys,
		table:    ix.table,
		offs:     make([]uint32, 1, len(ix.keys)+1),
		postings: len(ix.objs),
		layout:   Layout{Exact: !quantizable(ix.bounds, ix.tBounds)},
		dual:     ix.dual,
	}
	if !out.layout.Exact {
		out.layout.Obj16 = len(ix.objs) == 0 || slices.Max(ix.objs) <= math.MaxUint16
	}
	for i := range ix.keys {
		lo, hi := ix.starts[i], ix.starts[i+1]
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
	if uint(i) >= uint(len(ix.keys)) {
		return List{}, errPosition(i, len(ix.keys))
	}
	if scr == nil {
		scr = new(ListScratch)
	}
	n, err := decodeList(ix.blob[ix.offs[i]:ix.offs[i+1]], ix.dual, ix.layout, scr)
	if err != nil {
		return List{}, fmt.Errorf("invidx: list %#x: %w", ix.keys[i], err)
	}
	return List{objs: scr.objs[:n], bounds: scr.bounds[:n], tBounds: scr.tBounds}, nil
}

// Probe looks key up and decodes the list At its position. Absent keys yield
// an empty list and nil error.
func (ix *Compressed) Probe(key uint64, scr *ListScratch) (List, error) {
	i := ix.table.find(ix.keys, key)
	if i < 0 {
		return List{}, nil
	}
	return ix.At(i, scr)
}

// Dual reports whether the lists carry textual bounds.
func (ix *Compressed) Dual() bool { return ix.dual }

// Lists returns the number of lists.
func (ix *Compressed) Lists() int { return len(ix.keys) }

// Postings returns the total number of postings.
func (ix *Compressed) Postings() int { return ix.postings }

// SizeBytes reports the compressed footprint: the blob plus keys, offsets
// and the hash directory if the index carries one.
func (ix *Compressed) SizeBytes() int64 {
	return int64(len(ix.blob)) + int64(len(ix.keys))*8 + int64(len(ix.offs))*4 + ix.table.sizeBytes()
}

// EachLen reports every list's key and length from the count that leads its
// encoding, without decoding the postings.
func (ix *Compressed) EachLen(fn func(key uint64, n int)) {
	for i, k := range ix.keys {
		n, _ := binary.Uvarint(ix.blob[ix.offs[i]:ix.offs[i+1]])
		fn(k, int(n))
	}
}

// Keys returns the ascending key array.
func (ix *Compressed) Keys() []uint64 { return ix.keys }

// Arenas exposes the index's backing slices.
func (ix *Compressed) Arenas() CompressedArenas {
	return CompressedArenas{Dual: ix.dual, Keys: ix.keys, Offs: ix.offs, Blob: ix.blob, Slots: ix.table.slots, Layout: ix.layout}
}

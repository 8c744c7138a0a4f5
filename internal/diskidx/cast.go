package diskidx

// Typed views over raw segment bytes. SEALIDX2 stores arenas little endian;
// on little-endian hosts (every deployment target) the views are zero-copy
// unsafe casts — this is what makes a mapped segment free to open — and on
// big-endian hosts they fall back to a decoded copy so the format stays
// portable. Sections are page-aligned in the file and the read fallback
// allocates 8-byte-aligned buffers, so the casts never misalign.

import (
	"encoding/binary"
	"math"
	"os"
	"unsafe"

	"github.com/sealdb/seal/internal/geo"
)

// hostLittleEndian reports the native byte order, probed once at init.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// u64Bytes views v as its little-endian byte representation.
func u64Bytes(v []uint64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
	}
	out := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], x)
	}
	return out
}

func u32Bytes(v []uint32) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
	}
	out := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], x)
	}
	return out
}

func f64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
	}
	out := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

// viewU64 views little-endian section bytes as a []uint64. b must be
// 8-byte aligned and a multiple of 8 long (guaranteed by the page-aligned
// section layout and the caller's length checks).
func viewU64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func viewU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func viewF64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// viewString views section bytes as a string; bytes have no byte order, so
// this is a view on every host.
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// readFallback loads the file into an 8-byte-aligned heap buffer, for
// platforms without mmap or when mapping fails. The []uint64 backing keeps
// the section casts alignment-safe.
func readFallback(f *os.File, size int) ([]byte, func() error, error) {
	buf := make([]uint64, (size+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}

// rectBytes views v as its little-endian representation: four float64 per
// rectangle in field order.
func rectBytes(v []geo.Rect) []byte {
	if len(v) == 0 {
		return nil
	}
	return f64Bytes(unsafe.Slice(&v[0].MinX, len(v)*4))
}

// viewRects views little-endian section bytes as rectangles; b must be a
// multiple of 32 bytes long.
func viewRects(b []byte) []geo.Rect {
	f := viewF64(b)
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*geo.Rect)(unsafe.Pointer(&f[0])), len(f)/4)
}

// u32sOf views a slice of 32-bit IDs as plain uint32s, and idsOf is its
// inverse; both alias their argument.
func u32sOf[T ~uint32](v []T) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

func idsOf[T ~uint32](v []uint32) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

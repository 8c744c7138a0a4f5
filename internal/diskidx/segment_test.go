package diskidx

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/testutil"
)

const segTestObjects = 10000

func buildSingle(rng *rand.Rand, lists, maxLen int) *invidx.Index {
	var b invidx.Builder
	for k := 0; k < lists; k++ {
		n := 1 + rng.Intn(maxLen)
		for i := 0; i < n; i++ {
			b.Add(uint64(k*7+1), uint32(rng.Intn(segTestObjects)), float64(rng.Intn(1000))/10)
		}
	}
	return b.Build()
}

func buildDual(rng *rand.Rand, lists, maxLen int) *invidx.Index {
	b := invidx.Builder{Dual: true}
	for k := 0; k < lists; k++ {
		n := 1 + rng.Intn(maxLen)
		for i := 0; i < n; i++ {
			b.AddDual(uint64(k*13+5), uint32(rng.Intn(segTestObjects)),
				float64(rng.Intn(500))/10, float64(rng.Intn(50))/10)
		}
	}
	return b.Build()
}

// expectMatch checks that a mapped source answers every probe identically to
// the in-memory source it was written from.
func expectMatch(t *testing.T, want, got invidx.Source) {
	t.Helper()
	if got.Dual() != want.Dual() || got.Lists() != want.Lists() || got.Postings() != want.Postings() {
		t.Fatalf("dual/lists/postings = %v/%d/%d, want %v/%d/%d",
			got.Dual(), got.Lists(), got.Postings(), want.Dual(), want.Lists(), want.Postings())
	}
	var wscr, gscr invidx.ListScratch
	for _, key := range want.Keys() {
		wl, err := want.Probe(key, &wscr)
		if err != nil {
			t.Fatal(err)
		}
		gl, err := got.Probe(key, &gscr)
		if err != nil {
			t.Fatalf("Probe(%d): %v", key, err)
		}
		if gl.Len() != wl.Len() {
			t.Fatalf("key %d: len %d, want %d", key, gl.Len(), wl.Len())
		}
		for i := 0; i < wl.Len(); i++ {
			if wp, gp := wl.Posting(i), gl.Posting(i); gp != wp {
				t.Fatalf("key %d posting %d: %+v, want %+v", key, i, gp, wp)
			}
		}
	}
	if l, err := got.Probe(0xdeadbeefcafe, &gscr); err != nil || l.Len() != 0 {
		t.Fatalf("missing key: len=%d err=%v", l.Len(), err)
	}
}

// TestSegmentRoundTrip: every layout — {single, dual} × {raw, quantized, the
// exact fallback} — must survive write → OpenMapped with every probe
// bit-identical. (The compress tests tie the compressed index to the flat one.)
func TestSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	for _, dual := range []bool{false, true} {
		ix := buildSingle(rng, 60, 300)
		// One bound past float32 range switches Compress to the exact layout.
		huge := invidx.Builder{Dual: dual}
		huge.AddDual(3, 1, 1e39, 0.5)
		huge.AddDual(3, 2, 7, 0.25)
		if dual {
			ix = buildDual(rng, 40, 200)
		}
		exact := invidx.Compress(huge.Build())
		if !exact.Arenas().Layout.Exact {
			t.Fatal("fixture did not fall back to the exact layout")
		}
		for name, src := range map[string]invidx.Source{"raw": ix, "quant": invidx.Compress(ix), "exact": exact} {
			path := filepath.Join(dir, name+".seg")
			if err := WriteSegment(path, src, segTestObjects); err != nil {
				t.Fatal(err)
			}
			seg, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			if seg.Source().Dual() != dual || seg.Compressed() != (name != "raw") {
				t.Fatalf("%s: dual=%v compressed=%v, want %v/%v",
					name, seg.Source().Dual(), seg.Compressed(), dual, name != "raw")
			}
			if seg.Objects() != segTestObjects {
				t.Fatalf("%s: objects = %d, want %d", name, seg.Objects(), segTestObjects)
			}
			if seg.FileSize() <= 0 {
				t.Fatalf("%s: non-positive file size", name)
			}
			expectMatch(t, src, seg.Source())
			seg.Close()
		}
	}
}

// sectionIDs lists the section table of a sealed file, in file order.
func sectionIDs(b []byte) []uint32 {
	ids := make([]uint32, binary.LittleEndian.Uint32(b[40:]))
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint32(b[segHeaderSize+i*segEntrySize:])
	}
	return ids
}

// withoutDirectory returns src over the same arenas, less its key directory.
func withoutDirectory(t testing.TB, src invidx.Source) invidx.Source {
	t.Helper()
	bare, err := testutil.WithoutDirectory(src, segTestObjects)
	if err != nil {
		t.Fatal(err)
	}
	return bare
}

// TestSegmentDirectoryOptional: the dir section is written exactly when the
// index carries a key directory, and a reader serves the segment either way.
// A Builder's index — the keyed filters' — keeps it as the last section; the
// same index rewritten without it is 8 bytes a list shorter and answers every
// probe, present key or absent, identically by binary search; an index frozen
// from sorted runs — the Seal filter's — never had one.
func TestSegmentDirectoryOptional(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dir := t.TempDir()
	single, dual := buildSingle(rng, 700, 12), buildDual(rng, 700, 12)
	for name, keyed := range map[string]invidx.Source{
		"single raw": single, "dual raw": dual,
		"single quant": invidx.Compress(single), "dual quant": invidx.Compress(dual),
	} {
		path, bare := filepath.Join(dir, "keyed.seg"), filepath.Join(dir, "bare.seg")
		if err := WriteSegment(path, keyed, segTestObjects); err != nil {
			t.Fatal(err)
		}
		seg, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteSegment(bare, withoutDirectory(t, seg.Source()), segTestObjects); err != nil {
			t.Fatal(err)
		}
		seg.Close()

		with, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		without, err := os.ReadFile(bare)
		if err != nil {
			t.Fatal(err)
		}
		ids := sectionIDs(with)
		if ids[len(ids)-1] != secDir || !slices.Equal(sectionIDs(without), ids[:len(ids)-1]) {
			t.Fatalf("%s: sections %v with a directory, %v without", name, ids, sectionIDs(without))
		}
		if saved, dirBytes := len(with)-len(without), 8*keyed.Lists(); saved < dirBytes || saved >= dirBytes+segPage {
			t.Fatalf("%s: dropping the directory saved %d bytes, want its %d up to page padding", name, saved, dirBytes)
		}
		seg, err = OpenMapped(bare)
		if err != nil {
			t.Fatalf("%s: segment without a directory: %v", name, err)
		}
		expectMatch(t, keyed, seg.Source())
		if seg.Source().SizeBytes() != keyed.SizeBytes()-int64(8*keyed.Lists()) {
			t.Fatalf("%s: SizeBytes should fall by the directory's bytes", name)
		}
		seg.Close()
	}

	// The Seal producer: one run, no directory, in memory or on disk.
	var run invidx.Run
	for _, key := range dual.Keys() {
		l := dual.List(key)
		run.Keys = append(run.Keys, key)
		run.Lens = append(run.Lens, uint32(l.Len()))
		for i := 0; i < l.Len(); i++ {
			p := l.Posting(i)
			run.Objs, run.Bounds, run.TBounds = append(run.Objs, p.Obj), append(run.Bounds, p.Bound), append(run.TBounds, p.TBound)
		}
	}
	sorted := invidx.FromSortedRuns([]invidx.Run{run})
	for name, tc := range map[string]struct {
		src  invidx.Source
		want []uint32
	}{
		"raw":   {sorted, []uint32{secKeys, secStarts, secObjs, secBounds, secTBounds}},
		"quant": {invidx.Compress(sorted), []uint32{secKeys, secOffs, secBlob}},
	} {
		path := filepath.Join(dir, "sorted.seg")
		if err := WriteSegment(path, tc.src, segTestObjects); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := sectionIDs(b); !slices.Equal(got, tc.want) {
			t.Fatalf("sorted-runs %s segment carries sections %v, want %v", name, got, tc.want)
		}
		seg, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		expectMatch(t, tc.src, seg.Source())
		seg.Close()
	}
}

// TestSegmentEmpty: an empty index still round-trips (empty directory,
// one-entry starts arena, no postings), and keeps its flavour.
func TestSegmentEmpty(t *testing.T) {
	for _, dual := range []bool{false, true} {
		b := invidx.Builder{Dual: dual}
		path := filepath.Join(t.TempDir(), "empty.seg")
		if err := WriteSegment(path, b.Build(), 0); err != nil {
			t.Fatal(err)
		}
		seg, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		if src := seg.Source(); src.Lists() != 0 || src.Dual() != dual {
			t.Fatalf("lists = %d dual = %v, want 0 and %v", src.Lists(), src.Dual(), dual)
		}
		seg.Close()
	}
}

// TestSegmentRejectsWrongType: only invidx's own layouts are writable.
func TestSegmentRejectsWrongType(t *testing.T) {
	other := struct{ invidx.Source }{buildSingle(rand.New(rand.NewSource(1)), 1, 1)}
	if err := WriteSegment(filepath.Join(t.TempDir(), "x.seg"), other, 10); err == nil {
		t.Fatal("WriteSegment of a foreign Source should fail")
	}
}

// occupiedSlots returns the byte offsets of the first two occupied slots of a
// directory payload.
func occupiedSlots(p []byte) (a, b int) {
	var at []int
	for i := 0; i+4 <= len(p) && len(at) < 2; i += 4 {
		if binary.LittleEndian.Uint32(p[i:]) != 0 {
			at = append(at, i)
		}
	}
	return at[0], at[1]
}

// dropSlot empties an occupied slot — one key is now unreachable — and
// doubleSlot makes two slots name the same key.
func dropSlot(p []byte) {
	a, _ := occupiedSlots(p)
	clear(p[a : a+4])
}

func doubleSlot(p []byte) {
	a, b := occupiedSlots(p)
	copy(p[b:b+4], p[a:a+4])
}

// TestSegmentMalformed: a table of header, section-table, and payload
// corruptions — every one must be rejected at open with ErrCorrupt, never a
// panic, out-of-range allocation, or silently wrong view.
func TestSegmentMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	idx := buildSingle(rng, 20, 100)
	dir := t.TempDir()
	path := filepath.Join(dir, "good.seg")
	if err := WriteSegment(path, idx, segTestObjects); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The list-layout cases need a compressed segment: quantized, 16-bit
	// objects (segTestObjects fits), every list under 128 postings so its
	// count is the one byte that leads it.
	compPath := filepath.Join(dir, "good-comp.seg")
	if err := WriteSegment(compPath, invidx.Compress(idx), segTestObjects); err != nil {
		t.Fatal(err)
	}
	goodComp, err := os.ReadFile(compPath)
	if err != nil {
		t.Fatal(err)
	}
	if f := binary.LittleEndian.Uint32(goodComp[12:]); f != segFlagCompressed|segFlagObj16 {
		t.Fatalf("compressed fixture flags %#x, want compressed|obj16", f)
	}
	flipFlag := func(flag uint32) func(b []byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], binary.LittleEndian.Uint32(b[12:])^flag)
			return b
		}
	}

	cases := []struct {
		name   string
		comp   bool // mutate the compressed fixture instead of the raw one
		mutate func(b []byte) []byte
	}{
		{"wrong object-width flag", true, flipFlag(segFlagObj16)},
		{"wrong list-layout flag", true, flipFlag(segFlagExact | segFlagObj16)},
		{"both list layouts claimed", true, flipFlag(segFlagExact)},
		{"list-layout flag on a raw segment", false, flipFlag(segFlagObj16)},
		{"list count disagrees with its length", true, func(b []byte) []byte {
			// One more posting claimed by the first list and by the header,
			// behind a re-sealed checksum: only the list's own length is off.
			binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])+1)
			return damage(t, b, secBlob, func(p []byte) { p[0]++ })
		}},
		// Optional is not unchecked: a directory that is there must be the one
		// the keys hash to.
		{"directory present but a key short", false, func(b []byte) []byte { return damage(t, b, secDir, dropSlot) }},
		{"directory present but a key short, compressed", true, func(b []byte) []byte { return damage(t, b, secDir, dropSlot) }},
		{"directory present but a key twice", false, func(b []byte) []byte { return damage(t, b, secDir, doubleSlot) }},
		{"directory present but truncated", false, func(b []byte) []byte {
			e, _, length := tableEntry(t, b, secDir)
			binary.LittleEndian.PutUint64(e[16:], length-8)
			return damage(t, b, secDir, func([]byte) {})
		}},
		{"bad magic", false, func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad version", false, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 99); return b }},
		{"unknown flags", false, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 0x80); return b }},
		{"truncated header", false, func(b []byte) []byte { return b[:32] }},
		{"huge list count", false, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<60)
			return b
		}},
		{"huge posting count", false, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], 1<<60)
			return b
		}},
		{"posting count mismatch", false, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])+1)
			return b
		}},
		{"object bound too small", false, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:], 1)
			return b
		}},
		{"implausible section count", false, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[40:], 1000)
			return b
		}},
		{"section unaligned", false, func(b []byte) []byte {
			off := binary.LittleEndian.Uint64(b[segHeaderSize+8:])
			binary.LittleEndian.PutUint64(b[segHeaderSize+8:], off+1)
			return b
		}},
		{"section out of bounds", false, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[segHeaderSize+16:], 1<<40)
			return b
		}},
		{"duplicate section id", false, func(b []byte) []byte {
			// Rewrite the second entry's id to match the first.
			id := binary.LittleEndian.Uint32(b[segHeaderSize:])
			binary.LittleEndian.PutUint32(b[segHeaderSize+segEntrySize:], id)
			return b
		}},
		{"missing section", false, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[segHeaderSize:], 200)
			return b
		}},
		{"payload bit flip", false, func(b []byte) []byte {
			// Flip a byte inside the first section's payload.
			off := binary.LittleEndian.Uint64(b[segHeaderSize+8:])
			b[off] ^= 0xFF
			return b
		}},
		{"truncated payload", false, func(b []byte) []byte { return b[:len(b)-16] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := good
			if tc.comp {
				base = goodComp
			}
			bad := tc.mutate(append([]byte(nil), base...))
			p := filepath.Join(dir, "bad.seg")
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			seg, err := OpenMapped(p)
			if err == nil {
				seg.Close()
				t.Fatal("corrupt segment opened cleanly")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
		})
	}
}

// TestSegmentStaleVersion: a version this package once wrote is marked stale
// as well as unreadable, so the engine can tell another generation's file
// from a damaged one; any other version is only corrupt.
func TestSegmentStaleVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.seg")
	if err := WriteSegment(path, buildSingle(rand.New(rand.NewSource(22)), 5, 10), segTestObjects); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for v, stale := range map[uint32]bool{0: false, 1: true, segVersion + 1: false, 99: false} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[8:], v)
		_, err := openSegment(b)
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrStaleVersion) != stale {
			t.Errorf("version %d: %v, want ErrCorrupt and stale=%v", v, err, stale)
		}
	}
}

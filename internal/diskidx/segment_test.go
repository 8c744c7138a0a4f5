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

// keysOf lists src's keys in position order, as EachLen reports them.
func keysOf(src invidx.Source) (keys []uint64) {
	src.EachLen(func(key uint64, _ int) { keys = append(keys, key) })
	return keys
}

// expectMatch checks that a mapped source answers every probe — by key and by
// position — identically to the in-memory source it was written from, under
// the same kind of key column.
func expectMatch(t *testing.T, want, got invidx.Source) {
	t.Helper()
	if got.Dual() != want.Dual() || got.Lists() != want.Lists() || got.Postings() != want.Postings() {
		t.Fatalf("dual/lists/postings = %v/%d/%d, want %v/%d/%d",
			got.Dual(), got.Lists(), got.Postings(), want.Dual(), want.Lists(), want.Postings())
	}
	wruns, wnodes := want.Runs()
	if gruns, gnodes := got.Runs(); !slices.Equal(gruns, wruns) || !slices.Equal(gnodes, wnodes) || (gruns == nil) != (wruns == nil) {
		t.Fatalf("run-grouped key column differs: %d runs over %d nodes, want %d over %d", len(gruns), len(gnodes), len(wruns), len(wnodes))
	}
	var wscr, gscr invidx.ListScratch
	for pos, key := range keysOf(want) {
		wl, err := want.Probe(key, &wscr)
		if err != nil {
			t.Fatal(err)
		}
		for by, probe := range map[string]func() (invidx.List, error){
			"key":      func() (invidx.List, error) { return got.Probe(key, &gscr) },
			"position": func() (invidx.List, error) { return got.At(pos, &gscr) },
		} {
			gl, err := probe()
			if err != nil {
				t.Fatalf("key %#x by %s: %v", key, by, err)
			}
			if gl.Len() != wl.Len() {
				t.Fatalf("key %#x by %s: len %d, want %d", key, by, gl.Len(), wl.Len())
			}
			for i := 0; i < wl.Len(); i++ {
				if wp, gp := wl.Posting(i), gl.Posting(i); gp != wp {
					t.Fatalf("key %#x by %s posting %d: %+v, want %+v", key, by, i, gp, wp)
				}
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

	// The Seal producer: sorted runs, a run table over 32-bit nodes in place of
	// keys and directory, in memory or on disk.
	sorted := sortedRuns(dual)
	for name, tc := range map[string]struct {
		src  invidx.Source
		want []uint32
	}{
		"raw":   {sorted, []uint32{secRuns, secNodes, secStarts, secObjs, secBounds, secTBounds}},
		"quant": {invidx.Compress(sorted), []uint32{secRuns, secNodes, secOffs, secBlob}},
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

// sortedRuns refreezes a dual Builder index through invidx.FromSortedRuns, one
// run per key group (buildDual's keys all lie in group 0; two more stay empty).
func sortedRuns(dual *invidx.Index) *invidx.Index {
	var runs []invidx.Run
	for _, key := range keysOf(dual) {
		if g := uint32(key >> 32); len(runs) == 0 || runs[len(runs)-1].Group != g {
			runs = append(runs, invidx.Run{Group: g})
		}
		run, l := &runs[len(runs)-1], dual.List(key)
		run.Nodes = append(run.Nodes, uint32(key))
		run.Lens = append(run.Lens, uint32(l.Len()))
		for i := 0; i < l.Len(); i++ {
			p := l.Posting(i)
			run.Objs, run.Bounds, run.TBounds = append(run.Objs, p.Obj), append(run.Bounds, p.Bound), append(run.TBounds, p.TBound)
		}
	}
	return invidx.FromSortedRuns(3, runs)
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
	fixture := func(name string, src invidx.Source) []byte {
		path := filepath.Join(dir, name)
		if err := WriteSegment(path, src, segTestObjects); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// The list-layout cases need a compressed segment — quantized, 16-bit
	// objects (segTestObjects fits), so a single-bound row is 4 bytes — and
	// the key-column cases a run-grouped one: the Seal filter's shape, dual
	// and quantized, group 0 holding every node and groups 1 and 2 none.
	const raw, comp, runs = 0, 1, 2
	good := [3][]byte{
		fixture("good.seg", idx),
		fixture("good-comp.seg", invidx.Compress(idx)),
		fixture("good-runs.seg", invidx.Compress(sortedRuns(buildDual(rng, 20, 100)))),
	}
	if f := binary.LittleEndian.Uint32(good[comp][12:]); f != segFlagCompressed|segFlagObj16 {
		t.Fatalf("compressed fixture flags %#x, want compressed|obj16", f)
	}
	flipFlag := func(flag uint32) func(b []byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], binary.LittleEndian.Uint32(b[12:])^flag)
			return b
		}
	}
	// in damages one section behind a re-sealed checksum.
	in := func(id uint32, f func(p []byte)) func(b []byte) []byte {
		return func(b []byte) []byte { return damage(t, b, id, f) }
	}
	// firstLong finds blob's first list of two postings or more whose two
	// leading spatial codes differ, given the row width: where it starts in
	// the blob, and its posting count.
	firstLong := func(b []byte, w uint32) (at, rows uint64) {
		_, off, n := tableEntry(t, b, secOffs)
		_, blob, _ := tableEntry(t, b, secBlob)
		for i := uint64(0); i+8 <= n; i += 4 {
			lo, hi := binary.LittleEndian.Uint32(b[off+i:]), binary.LittleEndian.Uint32(b[off+i+4:])
			if l := b[blob+uint64(lo):]; hi-lo >= 2*w && !slices.Equal(l[0:2], l[2:4]) {
				return uint64(lo), uint64((hi - lo) / w)
			}
		}
		t.Fatal("no multi-posting list in fixture")
		return 0, 0
	}
	nRunLists := uint32(binary.LittleEndian.Uint64(good[runs][16:]))

	cases := []struct {
		name   string
		base   int // which fixture to mutate
		mutate func(b []byte) []byte
	}{
		{"wrong object-width flag", comp, flipFlag(segFlagObj16)},
		{"wrong list-layout flag", comp, flipFlag(segFlagExact | segFlagObj16)},
		{"both list layouts claimed", comp, flipFlag(segFlagExact)},
		{"list-layout flag on a raw segment", raw, flipFlag(segFlagObj16)},
		// A list's length is its extent: every rule of the open-time validator.
		{"list extent off the row lattice", comp, in(secOffs, func(p []byte) { p[4]++ })},
		{"spatial codes ascend", comp, func(b []byte) []byte {
			at, _ := firstLong(b, 4)
			return damage(t, b, secBlob, func(p []byte) { p[at], p[at+1], p[at+2], p[at+3] = p[at+2], p[at+3], p[at], p[at+1] })
		}},
		{"spatial code past the largest finite one", comp, in(secBlob, func(p []byte) { p[0], p[1] = 0x00, 0xFF })},
		{"textual code past the largest finite one", runs, func(b []byte) []byte {
			at, rows := firstLong(b, 6) // the textual column follows the spatial one
			return damage(t, b, secBlob, func(p []byte) { p[at+2*rows], p[at+2*rows+1] = 0x80, 0xFF })
		}},
		{"compressed object out of range", comp, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:], 1)
			return b
		}},
		{"compressed posting count mismatch", comp, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])+1)
			return b
		}},
		// The run-grouped key column: every rule of its validator.
		{"runs do not start at 0", runs, in(secRuns, putU32(0, 1))},
		{"runs descend", runs, in(secRuns, putU32(2, nRunLists-1))},
		{"runs end short of the lists", runs, in(secRuns, func(p []byte) { putU32(1, nRunLists-1)(p); putU32(2, nRunLists-1)(p); putU32(3, nRunLists-1)(p) })},
		{"runs end past the lists", runs, in(secRuns, putU32(3, nRunLists+1))},
		{"run offset past the lists mid-table", runs, in(secRuns, putU32(1, nRunLists+5))},
		{"nodes descend inside a run", runs, in(secNodes, func(p []byte) { copy(p[0:4], p[8:12]) })},
		{"node repeated inside a run", runs, in(secNodes, func(p []byte) { copy(p[4:8], p[0:4]) })},
		{"run table empty", runs, func(b []byte) []byte {
			e, _, _ := tableEntry(t, b, secRuns)
			binary.LittleEndian.PutUint64(e[16:], 0)
			return damage(t, b, secRuns, func([]byte) {})
		}},
		{"run table without nodes", runs, func(b []byte) []byte {
			e, _, _ := tableEntry(t, b, secNodes)
			binary.LittleEndian.PutUint32(e[0:], 200)
			return b
		}},
		// Optional is not unchecked: a directory that is there must be the one
		// the keys hash to.
		{"directory present but a key short", raw, func(b []byte) []byte { return damage(t, b, secDir, dropSlot) }},
		{"directory present but a key short, compressed", comp, func(b []byte) []byte { return damage(t, b, secDir, dropSlot) }},
		{"directory present but a key twice", raw, func(b []byte) []byte { return damage(t, b, secDir, doubleSlot) }},
		{"directory present but truncated", raw, func(b []byte) []byte {
			e, _, length := tableEntry(t, b, secDir)
			binary.LittleEndian.PutUint64(e[16:], length-8)
			return damage(t, b, secDir, func([]byte) {})
		}},
		{"bad magic", raw, func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad version", raw, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 99); return b }},
		{"unknown flags", raw, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 0x80); return b }},
		{"truncated header", raw, func(b []byte) []byte { return b[:32] }},
		{"huge list count", raw, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<60)
			return b
		}},
		{"huge posting count", raw, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], 1<<60)
			return b
		}},
		{"posting count mismatch", raw, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])+1)
			return b
		}},
		{"object bound too small", raw, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:], 1)
			return b
		}},
		{"implausible section count", raw, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[40:], 1000)
			return b
		}},
		{"section unaligned", raw, func(b []byte) []byte {
			off := binary.LittleEndian.Uint64(b[segHeaderSize+8:])
			binary.LittleEndian.PutUint64(b[segHeaderSize+8:], off+1)
			return b
		}},
		{"section out of bounds", raw, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[segHeaderSize+16:], 1<<40)
			return b
		}},
		{"duplicate section id", raw, func(b []byte) []byte {
			// Rewrite the second entry's id to match the first.
			id := binary.LittleEndian.Uint32(b[segHeaderSize:])
			binary.LittleEndian.PutUint32(b[segHeaderSize+segEntrySize:], id)
			return b
		}},
		{"missing section", raw, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[segHeaderSize:], 200)
			return b
		}},
		{"payload bit flip", raw, func(b []byte) []byte {
			// Flip a byte inside the first section's payload.
			off := binary.LittleEndian.Uint64(b[segHeaderSize+8:])
			b[off] ^= 0xFF
			return b
		}},
		{"truncated payload", raw, func(b []byte) []byte { return b[:len(b)-16] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mutate(slices.Clone(good[tc.base]))
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
	for v, stale := range map[uint32]bool{0: false, 1: true, 2: true, segVersion + 1: false, 99: false} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[8:], v)
		_, err := openSegment(b)
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrStaleVersion) != stale {
			t.Errorf("version %d: %v, want ErrCorrupt and stale=%v", v, err, stale)
		}
	}
}

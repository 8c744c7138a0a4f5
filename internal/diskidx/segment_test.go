package diskidx

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	gruns, gnodes := got.Runs()
	if (gruns == nil) != (wruns == nil) || !slices.Equal(gnodes, wnodes) {
		t.Fatalf("run-grouped key column differs: %v over %d nodes, want %v over %d", gruns, len(gnodes), wruns, len(wnodes))
	}
	if wruns != nil {
		if gruns.Len() != wruns.Len() {
			t.Fatalf("%d runs, want %d", gruns.Len(), wruns.Len())
		}
		for g := 0; g <= wruns.Len(); g++ {
			if gruns.Get(g) != wruns.Get(g) {
				t.Fatalf("run %d starts at node %d, want %d", g, gruns.Get(g), wruns.Get(g))
			}
		}
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

// sectionBytes sums the payload lengths of a sealed file's sections.
func sectionBytes(b []byte) (n int64) {
	for i := 0; i < int(binary.LittleEndian.Uint32(b[40:])); i++ {
		n += int64(binary.LittleEndian.Uint64(b[segHeaderSize+i*segEntrySize+16:]))
	}
	return n
}

// pathsFixture is a Builder index over keys in three groups; saturate adds a
// bound past the largest finite code, which compresses to infinity.
func pathsFixture(rng *rand.Rand, dual, saturate bool) *invidx.Index {
	b := invidx.Builder{Dual: dual}
	for k := 0; k < 90; k++ {
		key := uint64(k%3)<<32 | uint64(k*7+1)
		for i := 1 + rng.Intn(1+rng.Intn(40)); i > 0; i-- {
			b.AddDual(key, uint32(rng.Intn(segTestObjects)), float64(rng.Intn(1000))/10, float64(rng.Intn(50))/10)
		}
	}
	if saturate {
		b.AddDual(1, 3, 1e39, 0.5)
	}
	return b.Build()
}

// TestSegmentRoundTrip: every way to reach a list agrees. Over {raw,
// compressed} × {finite bounds, a bound that saturates} × {single, dual} ×
// {keyed, run-grouped — the Seal filter's column, which FromSortedRuns freezes
// dual only} × {in memory, written and mapped}, At(i) and Probe of the i-th
// key reach list i of the flat index: the same objects in the same order, raw
// bounds bit for bit, compressed ones never below them. SizeBytes — the figure
// IndexStats and Table 1 report — is exactly the bytes of the segment's
// sections.
func TestSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	for _, dual := range []bool{false, true} {
		for _, saturate := range []bool{false, true} {
			flat := pathsFixture(rng, dual, saturate)
			cols := map[string]invidx.Source{"keyed": flat}
			if dual {
				cols["run-grouped"] = sortedRuns(flat)
			}
			for col, ix := range cols {
				for layout, src := range map[string]invidx.Source{"raw": ix, "compressed": invidx.Compress(ix.(*invidx.Index))} {
					name := fmt.Sprintf("dual=%v saturated=%v %s %s", dual, saturate, col, layout)
					path := filepath.Join(dir, "paths.seg")
					if err := WriteSegment(path, src, segTestObjects); err != nil {
						t.Fatal(err)
					}
					b, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					seg, err := OpenMapped(path)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if seg.Source().Dual() != dual || seg.Compressed() != (layout == "compressed") || seg.Objects() != segTestObjects || seg.FileSize() != int64(len(b)) {
						t.Fatalf("%s: dual=%v compressed=%v objects=%d size=%d", name, seg.Source().Dual(), seg.Compressed(), seg.Objects(), seg.FileSize())
					}
					for where, got := range map[string]invidx.Source{"in memory": src, "mapped": seg.Source()} {
						if got.SizeBytes() != sectionBytes(b) {
							t.Fatalf("%s %s: SizeBytes %d, sections %d", name, where, got.SizeBytes(), sectionBytes(b))
						}
						expectFlat(t, name+" "+where, flat, got, layout == "raw")
					}
					expectMatch(t, src, seg.Source())
					seg.Close()
				}
			}
		}
	}
}

// expectFlat checks that got reaches every list of flat by position and by
// key: the same objects, and bounds equal to flat's when bitwise, else never
// below them.
func expectFlat(t *testing.T, name string, flat *invidx.Index, got invidx.Source, bitwise bool) {
	t.Helper()
	var scr invidx.ListScratch
	for i, key := range keysOf(flat) {
		want, _ := flat.At(i, nil)
		at, err := got.At(i, &scr)
		if err != nil {
			t.Fatalf("%s: At(%d): %v", name, i, err)
		}
		ats := make([]invidx.Posting, at.Len())
		for j := range ats {
			ats[j] = at.Posting(j)
		}
		probed, err := got.Probe(key, &scr)
		if err != nil || probed.Len() != want.Len() || at.Len() != want.Len() {
			t.Fatalf("%s: list %d: At %d postings, Probe %d (err %v), flat %d", name, i, at.Len(), probed.Len(), err, want.Len())
		}
		for j, a := range ats {
			p, w := probed.Posting(j), want.Posting(j)
			switch {
			case a != p:
				t.Fatalf("%s: list %d posting %d: At %+v, Probe %+v", name, i, j, a, p)
			case bitwise && a != w:
				t.Fatalf("%s: list %d posting %d: %+v, flat %+v", name, i, j, a, w)
			case a.Obj != w.Obj || a.Bound < w.Bound || a.TBound < w.TBound:
				t.Fatalf("%s: list %d posting %d: %+v below or beside flat %+v", name, i, j, a, w)
			}
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
	firstLong := func(b []byte, w uint64) (at, rows uint64) {
		_, off, n := tableEntry(t, b, secOffs)
		_, blob, _ := tableEntry(t, b, secBlob)
		starts := extentValues(b[off : off+n])
		for i := 0; i+1 < len(starts); i++ {
			lo, hi := starts[i], starts[i+1]
			if l := b[blob+lo*w:]; hi-lo >= 2 && !slices.Equal(l[0:2], l[2:4]) {
				return lo * w, hi - lo
			}
		}
		t.Fatal("no multi-posting list in fixture")
		return 0, 0
	}
	// An extent table's bits, in place: bit i of the table is bit i%8 of byte
	// i/8 of its little-endian words.
	flip := func(p []byte, i int) { p[i/8] ^= 1 << (i % 8) }
	firstZero := func(p []byte) {
		for i := 0; ; i++ {
			if p[i/8]>>(i%8)&1 == 0 {
				flip(p, i)
				return
			}
		}
	}
	pastTerminal := func(d int) func(p []byte) {
		return func(p []byte) {
			at := terminal(p) + d
			if at >= 8*len(p) {
				t.Fatalf("no room %d bits past the terminal one", d)
			}
			flip(p, at)
		}
	}
	shorten := func(id uint32) func(b []byte) []byte {
		return func(b []byte) []byte {
			e, _, length := tableEntry(t, b, id)
			binary.LittleEndian.PutUint64(e[16:], length-8)
			return damage(t, b, id, func([]byte) {})
		}
	}

	cases := []struct {
		name   string
		base   int // which fixture to mutate
		mutate func(b []byte) []byte
	}{
		{"wrong object-width flag", comp, flipFlag(segFlagObj16)},
		{"list-layout flag on a raw segment", raw, flipFlag(segFlagObj16)},
		// The extent table: every rule of its validator, and the list count.
		{"extents do not start at 0", comp, in(secOffs, func(p []byte) { p[0] &^= 1 })},
		{"extent table one bit too many", comp, in(secOffs, firstZero)},
		{"extent table lacks its terminal bit", comp, in(secOffs, func(p []byte) { flip(p, terminal(p)) })},
		{"extent table holds a list too many", comp, in(secOffs, pastTerminal(1))},
		{"extent table bit past the terminal one", comp, in(secOffs, pastTerminal(2))},
		{"extent table truncated", comp, shorten(secOffs)},
		{"spatial codes ascend", comp, func(b []byte) []byte {
			at, _ := firstLong(b, 4)
			return damage(t, b, secBlob, func(p []byte) { p[at], p[at+1], p[at+2], p[at+3] = p[at+2], p[at+3], p[at], p[at+1] })
		}},
		{"spatial code past infinity", comp, in(secBlob, func(p []byte) { p[0], p[1] = 0x01, 0xFF })},
		{"textual code past infinity", runs, func(b []byte) []byte {
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
		{"runs do not start at 0", runs, in(secRuns, func(p []byte) { p[0] &^= 1 })},
		{"run table one bit too many", runs, in(secRuns, firstZero)},
		{"run table bit past the terminal one", runs, in(secRuns, pastTerminal(2))},
		{"runs end short of the lists", runs, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], binary.LittleEndian.Uint64(b[16:])-1)
			e, _, length := tableEntry(t, b, secNodes)
			binary.LittleEndian.PutUint64(e[16:], length-4)
			return damage(t, b, secNodes, func([]byte) {})
		}},
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

// extentValues decodes an extent table's little-endian words: the i-th set
// bit, at position p, is the value p - i.
func extentValues(p []byte) (vals []uint64) {
	for i := 0; i < 8*len(p); i++ {
		if p[i/8]>>(i%8)&1 == 1 {
			vals = append(vals, uint64(i-len(vals)))
		}
	}
	return vals
}

// terminal is the position of an extent table's last set bit.
func terminal(p []byte) int {
	i := 8*len(p) - 1
	for p[i/8]>>(i%8)&1 == 0 {
		i--
	}
	return i
}

// TestSegmentStaleVersion: a version this package once wrote is marked stale
// as well as unreadable, so the engine can tell another generation's file
// from a damaged one; any other version is only corrupt. So is a current
// version's file with the retired flag bit 2 — the float64 fallback's — set,
// raw or compressed, and bit 2 is never written.
func TestSegmentStaleVersion(t *testing.T) {
	dir := t.TempDir()
	ix := buildSingle(rand.New(rand.NewSource(22)), 5, 10)
	var files [][]byte
	for name, src := range map[string]invidx.Source{"raw.seg": ix, "comp.seg": invidx.Compress(pathsFixture(rand.New(rand.NewSource(23)), true, true))} {
		path := filepath.Join(dir, name)
		if err := WriteSegment(path, src, segTestObjects); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if flags := binary.LittleEndian.Uint32(b[12:]); flags&segFlagRetired != 0 {
			t.Fatalf("%s written with flags %#x: bit 2 is retired", name, flags)
		}
		files = append(files, b)
	}
	for v, stale := range map[uint32]bool{0: false, 1: true, 2: true, 3: true, segVersion + 1: false, 99: false} {
		b := append([]byte(nil), files[0]...)
		binary.LittleEndian.PutUint32(b[8:], v)
		_, err := openSegment(b)
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrStaleVersion) != stale {
			t.Errorf("version %d: %v, want ErrCorrupt and stale=%v", v, err, stale)
		}
	}
	for i, good := range files {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[12:], binary.LittleEndian.Uint32(b[12:])|segFlagRetired)
		if _, err := openSegment(b); !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrStaleVersion) {
			t.Errorf("file %d with flag bit 2: %v, want ErrCorrupt and stale", i, err)
		}
	}
}

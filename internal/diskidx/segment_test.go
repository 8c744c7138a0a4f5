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
func keysOf(src *invidx.Compressed) (keys []uint64) {
	src.EachLen(func(key uint64, _ int) { keys = append(keys, key) })
	return keys
}

// expectMatch checks that a mapped source answers every probe — by key and by
// position — identically to the in-memory source it was written from, under
// the same key column.
func expectMatch(t *testing.T, want, got *invidx.Compressed) {
	t.Helper()
	if got.Dual() != want.Dual() || got.Lists() != want.Lists() || got.Postings() != want.Postings() {
		t.Fatalf("dual/lists/postings = %v/%d/%d, want %v/%d/%d",
			got.Dual(), got.Lists(), got.Postings(), want.Dual(), want.Lists(), want.Postings())
	}
	wruns, wnodes := want.Runs()
	gruns, gnodes := got.Runs()
	if gruns.Len() != wruns.Len() || !slices.Equal(gnodes, wnodes) {
		t.Fatalf("key column differs: %d runs over %d nodes, want %d over %d", gruns.Len(), len(gnodes), wruns.Len(), len(wnodes))
	}
	for g := 0; g <= wruns.Len(); g++ {
		if gruns.Get(g) != wruns.Get(g) {
			t.Fatalf("run %d starts at node %d, want %d", g, gruns.Get(g), wruns.Get(g))
		}
	}
	for pos, key := range keysOf(want) {
		wl := want.Probe(key)
		for by, probe := range map[string]func() invidx.List{
			"key":      func() invidx.List { return got.Probe(key) },
			"position": func() invidx.List { return got.At(pos) },
		} {
			gl := probe()
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
	if l := got.Probe(0xdeadbeefcafe); l.Len() != 0 {
		t.Fatalf("missing key: len=%d", l.Len())
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

// TestSegmentRoundTrip: every way to reach a list agrees. Over {finite bounds,
// a bound that saturates} × {single, dual} × {compressed from a Builder's
// index, assembled by FromCodedRuns — the Seal filter's constructor, dual
// only} × {in memory, written and mapped}, At(i) and Probe of the i-th key reach list i of
// the flat index: the same objects in the same order, bounds never below
// flat's. SizeBytes — the figure IndexStats and Table 1 report — is exactly the
// bytes of the segment's sections.
func TestSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	for _, dual := range []bool{false, true} {
		for _, saturate := range []bool{false, true} {
			flat := pathsFixture(rng, dual, saturate)
			cols := map[string]*invidx.Compressed{"built": invidx.Compress(flat)}
			if dual {
				cols["coded runs"] = codedRuns(flat)
			}
			for col, src := range cols {
				name := fmt.Sprintf("dual=%v saturated=%v %s", dual, saturate, col)
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
				if seg.Source().Dual() != dual || seg.Objects() != segTestObjects {
					t.Fatalf("%s: dual=%v objects=%d", name, seg.Source().Dual(), seg.Objects())
				}
				if flags := binary.LittleEndian.Uint32(b[12:]); flags&segFlagCompressed == 0 {
					t.Fatalf("%s: written with flags %#x, bit 1 clear", name, flags)
				}
				for where, got := range map[string]*invidx.Compressed{"in memory": src, "mapped": seg.Source()} {
					if got.SizeBytes() != sectionBytes(b) {
						t.Fatalf("%s %s: SizeBytes %d, sections %d", name, where, got.SizeBytes(), sectionBytes(b))
					}
					expectFlat(t, name+" "+where, flat, got)
				}
				expectMatch(t, src, seg.Source())
				seg.Close()
			}
		}
	}
}

// expectFlat checks that got reaches every list of flat by position and by
// key: the same objects, and bounds never below flat's.
func expectFlat(t *testing.T, name string, flat *invidx.Index, got *invidx.Compressed) {
	t.Helper()
	for i, key := range keysOf(got) {
		objs, bounds, tBounds := flat.List(key)
		at, probed := got.At(i), got.Probe(key)
		if probed.Len() != len(objs) || at.Len() != len(objs) || len(objs) == 0 {
			t.Fatalf("%s: list %d: At %d postings, Probe %d, flat %d", name, i, at.Len(), probed.Len(), len(objs))
		}
		for j := range objs {
			a, p, w := at.Posting(j), probed.Posting(j), invidx.Posting{Obj: objs[j], Bound: bounds[j]}
			if tBounds != nil {
				w.TBound = tBounds[j]
			}
			switch {
			case a != p:
				t.Fatalf("%s: list %d posting %d: At %+v, Probe %+v", name, i, j, a, p)
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

// TestSegmentSections: every posting segment carries the same four sections
// — runs, nodes, offs, blob — whichever constructor froze its index and
// whatever its flavour, and maps back to the index it was written from.
func TestSegmentSections(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dir := t.TempDir()
	dual := buildDual(rng, 700, 12)
	for name, src := range map[string]*invidx.Compressed{
		"single":     invidx.Compress(buildSingle(rng, 700, 12)),
		"dual":       invidx.Compress(dual),
		"coded runs": codedRuns(dual),
		"empty":      invidx.Compress(new(invidx.Builder).Build()),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, "sections.seg")
			if err := WriteSegment(path, src, segTestObjects); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sectionIDs(b), []uint32{secRuns, secNodes, secOffs, secBlob}; !slices.Equal(got, want) {
				t.Fatalf("segment carries sections %v, want %v", got, want)
			}
			seg, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			expectMatch(t, src, seg.Source())
			seg.Close()
		})
	}
}

// TestSegmentRetiredKeySections: a version-4 file whose key column is the
// retired one — a key array (section 1) and its open-addressed directory
// (section 6), as the token, grid and hybrid-hash kinds once wrote, the key
// array alone, or a directory beside a run table — is of an earlier
// generation: it opens as ErrCorrupt and ErrStaleVersion, so the engine
// rebuilds it rather than quarantine it. The rest of each file is sound.
func TestSegmentRetiredKeySections(t *testing.T) {
	src := invidx.Compress(buildSingle(rand.New(rand.NewSource(32)), 40, 8))
	a := src.Arenas()
	keys := make([]byte, 0, 8*src.Lists())
	src.EachLen(func(key uint64, _ int) { keys = binary.LittleEndian.AppendUint64(keys, key) })
	dirSlots := make([]byte, 8*src.Lists()) // two empty uint32 slots a list
	runs, nodes := section{id: secRuns, data: u64Bytes(a.Runs)}, section{id: secNodes, data: u32Bytes(a.Nodes)}
	offs, blob := section{id: secOffs, data: u64Bytes(a.Extents)}, section{id: secBlob, data: a.Blob}
	key, dir := section{id: secKeys, data: keys}, section{id: secDir, data: dirSlots}
	path := filepath.Join(t.TempDir(), "retired.seg")
	for _, tc := range []struct {
		name  string
		secs  []section
		stale bool
	}{
		{"key array and directory", []section{key, offs, blob, dir}, true},
		{"key array alone", []section{key, offs, blob}, true},
		{"directory beside a run table", []section{runs, nodes, offs, blob, dir}, true},
		{"key array beside a run table", []section{key, runs, nodes, offs, blob}, true},
		{"the current layout", []section{runs, nodes, offs, blob}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flags := uint32(segFlagCompressed | segFlagObj16)
			if err := writeContainer(path, magic2, segVersion, flags, [3]uint64{uint64(src.Lists()), uint64(src.Postings()), segTestObjects}, tc.secs); err != nil {
				t.Fatal(err)
			}
			seg, err := OpenMapped(path)
			switch {
			case !tc.stale && err != nil:
				t.Fatal(err)
			case !tc.stale:
				expectMatch(t, src, seg.Source())
				seg.Close()
			case err == nil:
				seg.Close()
				t.Fatal("opened")
			case !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrStaleVersion):
				t.Fatalf("%v, want ErrCorrupt and ErrStaleVersion", err)
			}
		})
	}
}

// codedRuns reassembles a dual Builder index through invidx.FromCodedRuns,
// one run per key group, each bound coded (buildDual's keys all lie in group
// 0; two more stay empty).
func codedRuns(dual *invidx.Index) *invidx.Compressed {
	var runs []invidx.CodedRun
	for _, key := range keysOf(invidx.Compress(dual)) {
		if g := uint32(key >> 32); len(runs) == 0 || runs[len(runs)-1].Group != g {
			runs = append(runs, invidx.CodedRun{Group: g})
		}
		run := &runs[len(runs)-1]
		objs, bounds, tBounds := dual.List(key)
		run.Nodes = append(run.Nodes, uint32(key))
		run.Lens = append(run.Lens, uint32(len(objs)))
		run.Objs = append(run.Objs, objs...)
		for i := range objs {
			run.Codes, run.TCodes = append(run.Codes, invidx.Code(bounds[i])), append(run.TCodes, invidx.Code(tBounds[i]))
		}
	}
	return invidx.FromCodedRuns(3, runs)
}

// TestSegmentEmpty: an empty index still round-trips (empty directory,
// one-entry extent table, no postings), and keeps its flavour.
func TestSegmentEmpty(t *testing.T) {
	for _, dual := range []bool{false, true} {
		b := invidx.Builder{Dual: dual}
		path := filepath.Join(t.TempDir(), "empty.seg")
		if err := WriteSegment(path, invidx.Compress(b.Build()), 0); err != nil {
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

// TestSegmentMalformed: a table of header, section-table, and payload
// corruptions — every one must be rejected at open with ErrCorrupt, never a
// panic, out-of-range allocation, or silently wrong view.
func TestSegmentMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	idx := buildSingle(rng, 20, 100)
	dir := t.TempDir()
	fixture := func(name string, src *invidx.Compressed) []byte {
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
	// Every fixture has 16-bit objects (segTestObjects fits). The list-layout
	// cases need a single-bound one, whose row is 4 bytes; the key-column cases
	// one assembled from coded runs: the Seal filter's shape, dual, group 0
	// holding every node and groups 1 and 2 none; the container cases take a
	// built dual one.
	const dual, comp, runs = 0, 1, 2
	var good [3][]byte
	good[comp] = fixture("good-comp.seg", invidx.Compress(idx))
	good[runs] = fixture("good-runs.seg", codedRuns(buildDual(rng, 20, 100)))
	good[dual] = fixture("good-dual.seg", invidx.Compress(buildDual(rng, 20, 100)))
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
	shortenBy := func(id uint32, n uint64) func(b []byte) []byte {
		return func(b []byte) []byte {
			e, _, length := tableEntry(t, b, id)
			binary.LittleEndian.PutUint64(e[16:], length-n)
			return damage(t, b, id, func([]byte) {})
		}
	}
	shorten := func(id uint32) func(b []byte) []byte { return shortenBy(id, 8) }

	cases := []struct {
		name   string
		base   int // which fixture to mutate
		mutate func(b []byte) []byte
	}{
		{"wrong object-width flag", comp, flipFlag(segFlagObj16)},
		{"compressed flag cleared", dual, flipFlag(segFlagCompressed)},
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
		{"nodes truncated", runs, shortenBy(secNodes, 4)},
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
		{"bad magic", dual, func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad version", dual, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 99); return b }},
		{"unknown flags", dual, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 0x80); return b }},
		{"truncated header", dual, func(b []byte) []byte { return b[:32] }},
		{"huge list count", dual, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<60)
			return b
		}},
		{"huge posting count", dual, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], 1<<60)
			return b
		}},
		{"posting count mismatch", dual, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])+1)
			return b
		}},
		{"object bound too small", dual, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:], 1)
			return b
		}},
		{"implausible section count", dual, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[40:], 1000)
			return b
		}},
		{"section unaligned", dual, func(b []byte) []byte {
			off := binary.LittleEndian.Uint64(b[segHeaderSize+8:])
			binary.LittleEndian.PutUint64(b[segHeaderSize+8:], off+1)
			return b
		}},
		{"section out of bounds", dual, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[segHeaderSize+16:], 1<<40)
			return b
		}},
		{"duplicate section id", dual, func(b []byte) []byte {
			// Rewrite the second entry's id to match the first.
			id := binary.LittleEndian.Uint32(b[segHeaderSize:])
			binary.LittleEndian.PutUint32(b[segHeaderSize+segEntrySize:], id)
			return b
		}},
		{"missing section", dual, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[segHeaderSize:], 200)
			return b
		}},
		{"payload bit flip", dual, func(b []byte) []byte {
			// Flip a byte inside the first section's payload.
			off := binary.LittleEndian.Uint64(b[segHeaderSize+8:])
			b[off] ^= 0xFF
			return b
		}},
		{"truncated payload", dual, func(b []byte) []byte { return b[:len(b)-16] }},
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
// version's file of a retired posting layout: flag bit 2 set — the float64
// fallback's — or bit 1 clear — the raw float64 arenas' — on a single- or
// dual-bound file. Bit 1 is always written and bit 2 never.
func TestSegmentStaleVersion(t *testing.T) {
	dir := t.TempDir()
	files := []struct {
		name string
		ix   *invidx.Compressed
		data []byte
	}{
		{name: "single", ix: invidx.Compress(buildSingle(rand.New(rand.NewSource(22)), 5, 10))},
		{name: "dual saturated", ix: invidx.Compress(pathsFixture(rand.New(rand.NewSource(23)), true, true))},
	}
	for i := range files {
		path := filepath.Join(dir, files[i].name+".seg")
		if err := WriteSegment(path, files[i].ix, segTestObjects); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if flags := binary.LittleEndian.Uint32(b[12:]); flags&(segFlagCompressed|segFlagRetired) != segFlagCompressed {
			t.Fatalf("%s written with flags %#x: bit 1 is always set, bit 2 retired", files[i].name, flags)
		}
		files[i].data = b
	}
	stale := func(t *testing.T, b []byte, want bool) {
		t.Helper()
		if _, err := openSegment(b); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrStaleVersion) != want {
			t.Errorf("%v, want ErrCorrupt and stale=%v", err, want)
		}
	}
	for _, v := range []uint32{0, 1, 2, 3, segVersion + 1, 99} {
		t.Run(fmt.Sprintf("version %d", v), func(t *testing.T) {
			b := slices.Clone(files[0].data)
			binary.LittleEndian.PutUint32(b[8:], v)
			stale(t, b, v >= 1 && v < segVersion)
		})
	}
	for _, f := range files {
		for name, patch := range map[string]func(uint32) uint32{
			"flag bit 2 set":   func(fl uint32) uint32 { return fl | segFlagRetired },
			"flag bit 1 clear": func(fl uint32) uint32 { return fl &^ segFlagCompressed },
		} {
			t.Run(f.name+" "+name, func(t *testing.T) {
				b := slices.Clone(f.data)
				binary.LittleEndian.PutUint32(b[12:], patch(binary.LittleEndian.Uint32(b[12:])))
				stale(t, b, true)
			})
		}
	}
}

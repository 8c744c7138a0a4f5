package diskidx

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/sealdb/seal/internal/faultfs"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/testutil"
	"github.com/sealdb/seal/internal/text"
)

// datasetFixture is a randomized dataset (multi-region objects included),
// its rows shuffled into a permuted copy cut into three shards, each shard's
// rows then ascending by ID as the engine stores them, written as a dataset
// segment. It returns the insertion-ordered dataset, the permuted one the
// segment stores, and the shard row bounds.
func datasetFixture(t testing.TB, dir string) (path string, ds, perm *model.Dataset, bounds []uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ds, err := testutil.RandomDataset(rng, 120, 30)
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(ds.Len())
	bounds = []uint32{0, n / 3, 2 * n / 3, n}
	rows := make([]model.ObjectID, ds.Len())
	for i, r := range rng.Perm(ds.Len()) {
		rows[i] = model.ObjectID(r)
	}
	for i := 1; i < len(bounds); i++ {
		slices.Sort(rows[bounds[i-1]:bounds[i]])
	}
	if perm, err = ds.Permute(rows); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, "dataset.seg")
	if err := WriteDataset(path, perm, bounds); err != nil {
		t.Fatal(err)
	}
	return path, ds, perm, bounds
}

// oneRowShardsFixture writes the fixture's dataset with every row its own
// shard and the IDs descending, so the ID column has one ascending run a row.
func oneRowShardsFixture(t testing.TB, dir string) (path string, perm *model.Dataset) {
	t.Helper()
	_, ds, _, _ := datasetFixture(t, dir)
	n := ds.Len()
	rows := make([]model.ObjectID, n)
	bounds := make([]uint32, n+1)
	for i := range rows {
		rows[i] = model.ObjectID(n - 1 - i)
		bounds[i+1] = uint32(i + 1)
	}
	perm, err := ds.Permute(rows)
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, "one-row-shards.seg")
	if err := WriteDataset(path, perm, bounds); err != nil {
		t.Fatal(err)
	}
	return path, perm
}

// expectSameDataset compares everything observable of two datasets: each
// object by ID, the row each object lies in, and the vocabulary.
func expectSameDataset(t *testing.T, got, want *model.Dataset) {
	t.Helper()
	if got.Len() != want.Len() || got.Space() != want.Space() ||
		got.SpatialSimFn() != want.SpatialSimFn() || got.TextualSimFn() != want.TextualSimFn() {
		t.Fatalf("dataset shape differs: %d objects in %v", got.Len(), got.Space())
	}
	for i := 0; i < want.Len(); i++ {
		id := model.ObjectID(i)
		g, w := got.Row(id), want.Row(id)
		if g != w || got.ID(g) != id {
			t.Fatalf("object %d in row %d, want %d", i, g, w)
		}
		if got.Region(g) != want.Region(w) || !slices.Equal(got.Tokens(g), want.Tokens(w)) ||
			got.TotalWeight(g) != want.TotalWeight(w) || !slices.Equal(got.MultiRegion(g), want.MultiRegion(w)) {
			t.Fatalf("object %d differs", i)
		}
	}
	if got.Vocab().Len() != want.Vocab().Len() {
		t.Fatalf("vocabulary %d terms, want %d", got.Vocab().Len(), want.Vocab().Len())
	}
	for tok := 0; tok < want.Vocab().Len(); tok++ {
		id := text.TokenID(tok)
		term := want.Vocab().Term(id)
		if got.Vocab().Term(id) != term || got.TokenWeight(id) != want.TokenWeight(id) {
			t.Fatalf("token %d differs", tok)
		}
		if back, ok := got.Vocab().Lookup(term); !ok || back != id {
			t.Fatalf("Lookup(%q) = %d, %v", term, back, ok)
		}
	}
}

// TestDatasetSegmentRoundTrip: write → OpenDataset reproduces the dataset in
// its row order, its object IDs, its vocabulary and the shard bounds exactly,
// and the terms it hands out are heap strings that outlive the mapping.
func TestDatasetSegmentRoundTrip(t *testing.T) {
	path, ds, perm, bounds := datasetFixture(t, t.TempDir())
	seg, err := OpenDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	expectSameDataset(t, seg.Dataset(), perm)
	if !slices.Equal(seg.Bounds(), bounds) {
		t.Fatalf("bounds %v, want %v", seg.Bounds(), bounds)
	}
	term := seg.Dataset().Vocab().Term(3)
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if term != ds.Vocab().Term(3) {
		t.Fatalf("term read before Close is %q after it", term)
	}

	// A dataset in insertion order is written with the identity ID column.
	one := filepath.Join(t.TempDir(), "one.seg")
	if err := WriteDataset(one, ds, []uint32{0, uint32(ds.Len())}); err != nil {
		t.Fatal(err)
	}
	seg, err = OpenDataset(one)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if b := seg.Bounds(); len(b) != 2 || b[1] != uint32(ds.Len()) {
		t.Fatalf("one-shard bounds read back as %v", b)
	}
	expectSameDataset(t, seg.Dataset(), ds)

	// One row a shard, IDs descending: the ID column has a run a row, and
	// its footprints still open and answer by ID.
	descPath, desc := oneRowShardsFixture(t, t.TempDir())
	descSeg, err := OpenDataset(descPath)
	if err != nil {
		t.Fatal(err)
	}
	defer descSeg.Close()
	if len(descSeg.Bounds()) != ds.Len()+1 {
		t.Fatalf("one-row shards read back as %d bounds", len(descSeg.Bounds()))
	}
	expectSameDataset(t, descSeg.Dataset(), desc)

	sub, err := perm.Subset(0, int(bounds[1]))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDataset(filepath.Join(t.TempDir(), "sub.seg"), sub, bounds[:2]); err == nil {
		t.Fatal("a subset was written as a dataset segment")
	}
}

// tableEntry locates section id's table entry and payload extent in b.
func tableEntry(t testing.TB, b []byte, id uint32) (entry []byte, off, length uint64) {
	t.Helper()
	n := int(binary.LittleEndian.Uint32(b[40:]))
	for i := 0; i < n; i++ {
		e := b[segHeaderSize+i*segEntrySize:]
		if binary.LittleEndian.Uint32(e) == id {
			return e[:segEntrySize], binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		}
	}
	t.Fatalf("no section %d", id)
	return nil, 0, 0
}

// damage rewrites section id's payload in place and re-seals its checksum,
// so the corruption reaches the structural validators instead of the CRC.
func damage(t testing.TB, b []byte, id uint32, f func(payload []byte)) []byte {
	t.Helper()
	e, off, length := tableEntry(t, b, id)
	payload := b[off : off+length]
	f(payload)
	binary.LittleEndian.PutUint32(e[4:], crc32.ChecksumIEEE(payload))
	return b
}

func putU32(i int, v uint32) func([]byte) {
	return func(p []byte) { binary.LittleEndian.PutUint32(p[4*i:], v) }
}

func putF64(i int, v float64) func([]byte) {
	return func(p []byte) { binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(v)) }
}

// TestDatasetSegmentMalformed: header, geometry and — behind re-sealed
// checksums — every structural violation must be rejected at open with
// ErrCorrupt, never a panic or a dataset that misbehaves later.
func TestDatasetSegmentMalformed(t *testing.T) {
	dir := t.TempDir()
	path, ds, perm, bounds := datasetFixture(t, dir)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(ds.Len())
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"posting-segment magic", func(b []byte) []byte { copy(b, magic2[:]); return b }},
		{"bad version", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 3); return b }},
		{"retired version", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 1); return b }},
		{"unknown flag bits", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 1<<16); return b }},
		{"unknown spatial sim", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 7); return b }},
		{"unknown textual sim", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 7<<8); return b }},
		{"huge object count", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[16:], 1<<60); return b }},
		{"huge token count", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[24:], 1<<60); return b }},
		{"huge term count", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[32:], 1<<60); return b }},
		{"object count off by one", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[16:], uint64(n)+1); return b }},
		{"zero objects", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[16:], 0); return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-8] }},
		{"missing section", func(b []byte) []byte {
			e, _, _ := tableEntry(t, b, dsecWeights)
			binary.LittleEndian.PutUint32(e, 200)
			return b
		}},
		{"payload bit flip", func(b []byte) []byte {
			_, off, _ := tableEntry(t, b, dsecTokIDs)
			b[off] ^= 1
			return b
		}},
		{"token offsets not monotone", func(b []byte) []byte { return damage(t, b, dsecTokOff, putU32(1, 1<<30)) }},
		{"token offsets short of the arena", func(b []byte) []byte { return damage(t, b, dsecTokOff, putU32(int(n), 0)) }},
		{"token outside vocabulary", func(b []byte) []byte { return damage(t, b, dsecTokIDs, putU32(0, 1<<31)) }},
		{"tokens not ascending", func(b []byte) []byte {
			at := 0 // the first token of the first row of two tokens or more
			for row := model.ObjectID(0); len(perm.Tokens(row)) < 2; row++ {
				at += 4 * len(perm.Tokens(row))
			}
			return damage(t, b, dsecTokIDs, func(p []byte) { copy(p[at+4:at+8], p[at:at+4]) })
		}},
		{"NaN region", func(b []byte) []byte { return damage(t, b, dsecRegions, putF64(2, math.NaN())) }},
		{"inverted region", func(b []byte) []byte { return damage(t, b, dsecRegions, putF64(0, 1e12)) }},
		{"term offsets past the blob", func(b []byte) []byte { return damage(t, b, dsecTermOff, putU32(1, 1<<30)) }},
		{"duplicate term", func(b []byte) []byte {
			return damage(t, b, dsecTerms, func(p []byte) {
				for i := range p {
					p[i] = 'x'
				}
			})
		}},
		{"negative weight", func(b []byte) []byte { return damage(t, b, dsecWeights, putF64(0, -1)) }},
		{"NaN weight", func(b []byte) []byte { return damage(t, b, dsecWeights, putF64(1, math.NaN())) }},
		{"ID out of range", func(b []byte) []byte { return damage(t, b, dsecIDs, putU32(0, n)) }},
		{"duplicate ID", func(b []byte) []byte {
			return damage(t, b, dsecIDs, func(p []byte) { copy(p[0:4], p[4:8]) })
		}},
		{"IDs descending inside a shard", func(b []byte) []byte {
			// Swap the IDs of two neighbouring single-region rows, so the
			// column stays a permutation and every footprint its region.
			at := 0
			for perm.MultiRegion(model.ObjectID(at)) != nil || perm.MultiRegion(model.ObjectID(at+1)) != nil {
				at++
			}
			return damage(t, b, dsecIDs, func(p []byte) {
				var id [4]byte
				copy(id[:], p[4*at:])
				copy(p[4*at:4*at+4], p[4*at+4:4*at+8])
				copy(p[4*at+4:4*at+8], id[:])
			})
		}},
		{"empty shard", func(b []byte) []byte { return damage(t, b, dsecBounds, putU32(2, bounds[1])) }},
		{"descending bounds", func(b []byte) []byte { return damage(t, b, dsecBounds, putU32(1, bounds[2]+1)) }},
		{"bounds short of the rows", func(b []byte) []byte { return damage(t, b, dsecBounds, putU32(3, n-1)) }},
		{"bounds past the rows", func(b []byte) []byte { return damage(t, b, dsecBounds, putU32(3, n+1)) }},
		{"bounds off row 0", func(b []byte) []byte { return damage(t, b, dsecBounds, putU32(0, 1)) }},
		{"multi-region ID out of range", func(b []byte) []byte { return damage(t, b, dsecMultiIDs, putU32(0, n)) }},
		{"multi-region offsets past the rects", func(b []byte) []byte { return damage(t, b, dsecMultiOff, putU32(1, 1<<30)) }},
		{"footprint off its region", func(b []byte) []byte { return damage(t, b, dsecMultiRects, putF64(0, -1e9)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, "bad.seg")
			if err := os.WriteFile(p, tc.mutate(slices.Clone(good)), 0o644); err != nil {
				t.Fatal(err)
			}
			seg, err := OpenDataset(p)
			if err == nil {
				seg.Close()
				t.Fatal("corrupt dataset segment opened cleanly")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
		})
	}
	if _, err := OpenDataset(filepath.Join(dir, "absent.seg")); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file: %v, want a plain open error", err)
	}
}

// TestDatasetSegmentBitFlips: one flipped bit anywhere that matters — the
// header's used fields, the section table, the middle of every non-empty
// section — read back through the faultfs corruption seam must fail the open
// with ErrCorrupt.
func TestDatasetSegmentBitFlips(t *testing.T) {
	path, _, _, _ := datasetFixture(t, t.TempDir())
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bits := map[string]int{
		"magic":          3,
		"version":        8 * 8,
		"flags":          12*8 + 20,
		"object count":   16 * 8,
		"token count":    24 * 8,
		"term count":     32 * 8,
		"section count":  40 * 8,
		"table id":       segHeaderSize * 8,
		"table crc":      (segHeaderSize + 4) * 8,
		"table offset":   (segHeaderSize+8)*8 + 13,
		"table length":   (segHeaderSize + 16) * 8,
		"last table len": (segHeaderSize+10*segEntrySize+16)*8 + 1,
	}
	for id := uint32(dsecRegions); id <= dsecMultiRects; id++ {
		_, off, length := tableEntry(t, good, id)
		if length == 0 {
			t.Fatalf("fixture leaves section %d empty", id)
		}
		bits[sectionName(id)] = int(off+length/2)*8 + 5
	}
	t.Cleanup(faultfs.Uninstall)
	for name, bit := range bits {
		faultfs.Install((&faultfs.Injector{}).FlipBit("dataset.seg", bit))
		seg, err := OpenDataset(path)
		if err == nil {
			seg.Close()
			t.Errorf("%s: bit %d flipped, segment still opened", name, bit)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
	faultfs.Uninstall()
	seg, err := OpenDataset(path)
	if err != nil {
		t.Fatalf("undamaged read: %v", err)
	}
	seg.Close()
}

func sectionName(id uint32) string {
	return [...]string{"", "regions", "tokOff", "tokIDs", "terms", "termOff", "weights",
		"ids", "bounds", "multiIDs", "multiOff", "multiRects"}[id]
}

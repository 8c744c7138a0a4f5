package diskidx

// FuzzSegmentHeader: openSegment parses attacker-shaped bytes — a segment
// file is trusted only after its header geometry, section table, CRCs, and
// arena invariants all check out, and no input may panic the parser or make
// it accept structurally unsound postings. The corpus seeds two genuine
// segments — a built dual one and one assembled from coded runs, the Seal
// filter's shape — plus systematic
// truncations and header mutations so the fuzzer starts from the format's real
// shape rather than random noise.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
)

func FuzzSegmentHeader(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.seg")
	if err := WriteSegment(path, invidx.Compress(buildDual(rand.New(rand.NewSource(42)), 12, 6)), segTestObjects); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	grouped := filepath.Join(f.TempDir(), "grouped.seg")
	if err := WriteSegment(grouped, codedRuns(buildDual(rand.New(rand.NewSource(44)), 12, 6)), segTestObjects); err != nil {
		f.Fatal(err)
	}
	runs, err := os.ReadFile(grouped)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(runs)
	// One payload word of each of its sections behind a re-sealed checksum, so
	// mutations of the run table, nodes, extents and codes start beyond the
	// CRC wall.
	for _, id := range []uint32{secRuns, secNodes, secOffs, secBlob} {
		f.Add(damage(f, append([]byte(nil), runs...), id, func(p []byte) { p[len(p)/2] ^= 0x80 }))
	}
	// Truncations at every structurally interesting boundary: mid-header,
	// end of header, mid-table, first section page, mid-payload.
	for _, n := range []int{0, 7, 8, 63, 64, 100, segHeaderSize + segEntrySize, 4096, 4100, len(valid) / 2, len(valid) - 1} {
		if n <= len(valid) {
			f.Add(valid[:n:n])
		}
	}
	// Header field mutations on full-length copies: version, flags, the
	// three counts, and the section count.
	for _, off := range []int{8, 12, 16, 24, 32, 40} {
		m := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(m[off:], 0xffffffff)
		f.Add(m)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// OpenMapped rejects files below the header size before openSegment
		// ever runs; mirror that guard here.
		if len(data) < segHeaderSize {
			return
		}
		seg, err := openSegment(data)
		if err != nil {
			return
		}
		// A probe checks nothing, so an accepted segment must be sound enough
		// to read in place: a plausible and an absent key probe without a
		// panic, and every list, walked by position through its view, holds
		// codes no larger than the infinity code (so none decodes to NaN),
		// spatial codes that never ascend and objects in range. The position
		// one past the last list panics.
		src := seg.Source()
		src.Probe(5)
		src.Probe(0xdeadbeefcafe)
		inf := invidx.Code(math.Inf(1))
		for i := 0; i < src.Lists(); i++ {
			l := src.At(i)
			for j := 0; j < l.Len(); j++ {
				p := l.Posting(j)
				if int(l.Obj(j)) >= seg.Objects() || math.IsNaN(p.Bound) || src.Dual() && l.TCode(j) > inf ||
					j > 0 && p.Bound > l.Posting(j-1).Bound {
					t.Fatalf("accepted segment read list %d posting %d as %+v", i, j, p)
				}
			}
		}
		defer func() {
			if recover() == nil {
				t.Fatalf("accepted segment answered At(%d), one past its last list", src.Lists())
			}
		}()
		src.At(src.Lists())
	})
}

// FuzzDatasetSegment: openDataset parses attacker-shaped bytes the same way —
// a dataset segment is trusted only after its geometry, checksums and every
// columnar invariant check out. No input may panic the parser, and whatever
// it accepts must be safe to walk end to end: every object's region, tokens
// and footprint, every term, every row of every shard — and every object's ID
// and row must be inverse.
func FuzzDatasetSegment(f *testing.F) {
	path, _, _, _ := datasetFixture(f, f.TempDir())
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, n := range []int{0, 8, 63, 64, 100, segHeaderSize + 11*segEntrySize, 4096, 4100, len(valid) / 2, len(valid) - 1} {
		if n <= len(valid) {
			f.Add(valid[:n:n])
		}
	}
	// Header fields, then one payload word of each section behind a re-sealed
	// checksum, so mutations start beyond the CRC wall.
	for _, off := range []int{8, 12, 16, 24, 32, 40} {
		m := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(m[off:], 0xffffffff)
		f.Add(m)
	}
	for id := uint32(dsecRegions); id <= dsecMultiRects; id++ {
		f.Add(damage(f, append([]byte(nil), valid...), id, func(p []byte) { p[len(p)/2] ^= 0x80 }))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < segHeaderSize { // mapPath's guard
			return
		}
		seg, err := openDataset(data)
		if err != nil {
			return
		}
		ds := seg.Dataset()
		vocab := ds.Vocab()
		for i := 0; i < ds.Len(); i++ {
			row := model.ObjectID(i)
			if !ds.Region(row).Valid() {
				t.Fatalf("accepted dataset has invalid region %d", i)
			}
			for _, tok := range ds.Tokens(row) {
				if back, ok := vocab.Lookup(vocab.Term(tok)); !ok || back != tok {
					t.Fatalf("accepted dataset: row %d token %d does not resolve", i, tok)
				}
			}
			_ = ds.MultiRegion(row).Area()
			if id := ds.ID(row); int(id) >= ds.Len() || ds.Row(id) != row {
				t.Fatalf("accepted dataset: row %d holds object %d, whose row is not %d", i, id, i)
			}
			if id := model.ObjectID(i); ds.ID(ds.Row(id)) != id {
				t.Fatalf("accepted dataset: object %d's row holds object %d", i, ds.ID(ds.Row(id)))
			}
		}
		bounds := seg.Bounds()
		for i := 0; i+1 < len(bounds); i++ {
			sub, err := ds.Subset(int(bounds[i]), int(bounds[i+1]))
			if err != nil {
				t.Fatalf("accepted bounds %v: shard %d: %v", bounds, i, err)
			}
			for r := 0; r < sub.Len(); r++ {
				if sub.ID(model.ObjectID(r)) != ds.ID(model.ObjectID(int(bounds[i])+r)) {
					t.Fatalf("accepted dataset: shard %d row %d is not root row %d", i, r, int(bounds[i])+r)
				}
			}
		}
		if len(bounds) < 2 || bounds[len(bounds)-1] != uint32(ds.Len()) {
			t.Fatalf("accepted bounds %v do not span %d rows", bounds, ds.Len())
		}
	})
}

package seal_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/server"
)

// goldenSegmentDigests are the sha256 digests of every file of the segment
// directory that the production build (seal / 4 shards / quantized / segments,
// the options of benchmark/run.go) writes for gen.Twitter{N: 2000, Seed: 42}.
// dataset.seg was recorded when the directory went gob-free and is unchanged
// since. manifest.json and the four posting segments were last re-recorded for
// manifest version 4: a Seal segment no longer carries a key directory (its
// lists are reached by position), so each shard-N.seg is the file of manifest
// version 3 / segment version 2 — columnar lists, the count inside each list —
// less its dir section and that section's table entry; keys, offs and blob
// are the same bytes, and the segment version is 2 still. A change that means
// to alter the index format or the selection re-records them and says so.
var goldenSegmentDigests = map[string]string{
	"dataset.seg":   "995c77afd4caa883cb2179d7b82294ec38afa9397a64e3d5ce3907f0fd9f500d",
	"manifest.json": "d290d80beefda4d536858244c028dd8a9c1cb9998dd343096136b4cca0178ba2",
	"shard-0.seg":   "b9424e9cd0583d26a6db199b913a02afc08b0be5090de85044472bf14c9dc2bb",
	"shard-1.seg":   "9dcb000d792e05405072002cf746ccc338c813084b8772bc0bff1e19c056c2ce",
	"shard-2.seg":   "8150bc2d2f600793a28a98cf4fe830fe2001c6586d89c5a4973d016f6ebbe46b",
	"shard-3.seg":   "3ee9a3adb3c9bbd9c0703815805fb5a1681cde89632e83b6ce559ac4dcc39833",
}

// goldenFlavours are the builds whose segment directories are pinned: the
// production one above, and the three other on-disk flavours — single-bound
// raw, single-bound quantized, dual-bound raw — on the same corpus at 2 shards.
// Those three were recorded before the single- and dual-bound index types were
// folded into one, and the fold left every byte of every flavour where it was.
// They look lists up by key and keep their directory: manifest version 4
// re-recorded their manifest.json (the version field) and nothing else.
var goldenFlavours = []struct {
	name    string
	opts    []seal.Option
	digests map[string]string
}{
	{"seal/quantized", productionOptions, goldenSegmentDigests},
	{"token/raw", []seal.Option{seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(2)}, map[string]string{
		"dataset.seg":   golden2ShardDataset,
		"manifest.json": "87d69c1f6f83b579d67ac8f21eea6bb4b46cb965d0ac98965c238ca0b35a4572",
		"shard-0.seg":   "94a19b9027c443027e4ac98a37ff15ad6865cb5f9d063378c87f165ba3b86321",
		"shard-1.seg":   "b7855161df2e3db5f7f380015d34c85ee02b1447e34e36e7c06181f24064ed12",
	}},
	{"grid/quantized", []seal.Option{seal.WithMethod(seal.MethodGridFilter), seal.WithShards(2),
		seal.WithCompression(seal.CompressionQuantized)}, map[string]string{
		"dataset.seg":   golden2ShardDataset,
		"manifest.json": "c6c79dffdcbd0c34d3fd9d3f831132d0c34558603604bcddd88c36b62e075389",
		"shard-0.seg":   "f4848ff257cdece45335b6efcd507538d8493722ece81e217dfc319e25aa1fc6",
		"shard-1.seg":   "a669172277ce1c9bf8914ecf51093022775c63a9480e07d3d64f54febaa13292",
	}},
	{"hybrid-hash/raw", []seal.Option{seal.WithMethod(seal.MethodHybridHash), seal.WithShards(2)}, map[string]string{
		"dataset.seg":   golden2ShardDataset,
		"manifest.json": "682c888c7c4e68c84536aeb13ee46f255d5b2e473d29f09a26fef527e9c87255",
		"shard-0.seg":   "8573e613e5fc8fa53ff9cb526e0bece0477ecf557340bcd1bdaf49024fc39f78",
		"shard-1.seg":   "60e55ac76ad3e99cdb48c58ef01ffc2bad2788f386d8bb1cc1147e25d971d3fe",
	}},
}

// golden2ShardDataset is the dataset segment of the golden corpus cut in two.
const golden2ShardDataset = "599f8fb2f72268095fa31dba1d5a6377a48ac99f4dbb57bb67c670f9630444d1"

// productionOptions are the options of benchmark/run.go.
var productionOptions = []seal.Option{seal.WithMethod(seal.MethodSeal), seal.WithShards(4),
	seal.WithCompression(seal.CompressionQuantized)}

// buildGoldenDir writes the golden corpus's segment directory under opts at
// the given GOMAXPROCS and returns its path.
func buildGoldenDir(t *testing.T, objects []seal.Object, procs int, opts []seal.Option) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "segments")
	prev := runtime.GOMAXPROCS(procs)
	ix, err := seal.Build(objects, append(slices.Clone(opts), seal.WithSegmentDir(dir))...)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func goldenObjects(t *testing.T) []seal.Object {
	t.Helper()
	ds, err := gen.Twitter(gen.TwitterConfig{N: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return server.SnapshotObjects(ds)
}

// TestGoldenSegmentDigests builds the golden corpus in every pinned flavour at
// GOMAXPROCS 1 and N, twice each, and compares every file of the segment
// directory with its recorded digest: the directory is a pure function of the
// corpus and the options — not of the worker count, and not of what the
// process did before.
func TestGoldenSegmentDigests(t *testing.T) {
	objects := goldenObjects(t)
	for _, fl := range goldenFlavours {
		for _, p := range []int{1, max(4, runtime.NumCPU()), 1, max(4, runtime.NumCPU())} {
			dir := buildGoldenDir(t, objects, p, fl.opts)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(fl.digests) {
				t.Errorf("%s, GOMAXPROCS %d: %d files in the segment directory, want %d", fl.name, p, len(entries), len(fl.digests))
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				if got, want := hex.EncodeToString(sum[:]), fl.digests[e.Name()]; got != want {
					t.Errorf("%s, GOMAXPROCS %d: %s: sha256 %s, want %s", fl.name, p, e.Name(), got, want)
				}
			}
		}
	}
}

// The golden directory's size, committed: what the index costs on disk (the
// benchmark's index_mb, at 2,000 objects) and what a posting costs once keys,
// offsets, directory and page padding are spread over the lists' postings.
// A rise is a regression; a fall is a result, and updates the numbers.
// Version 1 of the segment format stood at 3,825,857 B and 39.66 B a posting,
// version 2 with a key directory in every segment at 2,544,617 B and 24.99.
const (
	goldenDirBytes        = 2029418
	goldenPostings        = 87378
	goldenBytesPerPosting = 19.10 // the four posting segments' bytes / goldenPostings
)

// TestSegmentBytesBudget holds the golden directory to its committed size.
func TestSegmentBytesBudget(t *testing.T) {
	dir := buildGoldenDir(t, goldenObjects(t), runtime.GOMAXPROCS(0), productionOptions)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dirBytes, shardBytes, postings int64
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		dirBytes += int64(len(data))
		if strings.HasPrefix(e.Name(), "shard-") {
			shardBytes += int64(len(data))
			postings += int64(binary.LittleEndian.Uint64(data[24:])) // the header's nPostings
		}
	}
	if postings != goldenPostings {
		t.Fatalf("golden corpus indexes %d postings, want %d: the selection changed, not the encoding", postings, goldenPostings)
	}
	perPosting := math.Round(float64(shardBytes)/float64(postings)*100) / 100
	switch {
	case dirBytes > goldenDirBytes || perPosting > goldenBytesPerPosting:
		t.Errorf("segment directory grew: %d B (%.2f B a posting), budget %d B (%.2f)", dirBytes, perPosting, goldenDirBytes, goldenBytesPerPosting)
	case dirBytes < goldenDirBytes || perPosting < goldenBytesPerPosting:
		t.Errorf("segment directory shrank to %d B (%.2f B a posting) from %d B (%.2f): record the new numbers", dirBytes, perPosting, goldenDirBytes, goldenBytesPerPosting)
	}
}

// TestSegmentSectionTables pins which sections a posting segment carries, by
// the ids of diskidx/segment.go: a Seal shard is keys/offs/blob compressed and
// keys/starts/objs/bounds/tbounds raw — no key directory, its lists being
// reached by position — and the kinds that look lists up by key end with the
// directory (6).
func TestSegmentSectionTables(t *testing.T) {
	objects := goldenObjects(t)
	for _, tc := range []struct {
		name string
		opts []seal.Option
		want []uint32
	}{
		{"seal/quantized", productionOptions, []uint32{1, 7, 9}},
		{"seal/raw", []seal.Option{seal.WithMethod(seal.MethodSeal), seal.WithShards(4)}, []uint32{1, 2, 3, 4, 5}},
		{"token/raw", goldenFlavours[1].opts, []uint32{1, 2, 3, 4, 6}},
		{"grid/quantized", goldenFlavours[2].opts, []uint32{1, 7, 9, 6}},
		{"hybrid-hash/raw", goldenFlavours[3].opts, []uint32{1, 2, 3, 4, 5, 6}},
	} {
		dir := buildGoldenDir(t, objects, runtime.GOMAXPROCS(0), tc.opts)
		shards, err := filepath.Glob(filepath.Join(dir, "shard-*.seg"))
		if err != nil || len(shards) == 0 {
			t.Fatalf("%s: no posting segments (%v)", tc.name, err)
		}
		for _, path := range shards {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Header: section count at 40; 24-byte table entries from 64, id first.
			ids := make([]uint32, binary.LittleEndian.Uint32(data[40:]))
			for i := range ids {
				ids[i] = binary.LittleEndian.Uint32(data[64+24*i:])
			}
			if !slices.Equal(ids, tc.want) {
				t.Errorf("%s: %s carries sections %v, want %v", tc.name, filepath.Base(path), ids, tc.want)
			}
		}
	}
}

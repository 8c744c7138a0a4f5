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
// Every file was last re-recorded for manifest version 8, which stores the
// rows in shard-major Z-order: dataset.seg (version 2) holds the permuted
// columns under a row→ID column and shard row bounds where version 1 held them
// in ID order under partition lists, and each posting segment names the same
// postings by their new rows. The posting format is still segment version 4:
// both offset tables — the lists' extents in rows (offs) and the token runs
// over 32-bit grid nodes (runs) — are unary-coded bitmaps, and a list is
// columns of self-scaling 16-bit bound codes with nothing ahead of them. The
// sizes did not move (TestSegmentBytesBudget). A change that means to alter
// the index format, the row order or the selection re-records them and says
// so.
var goldenSegmentDigests = map[string]string{
	"dataset.seg":   "3335754b9ee9a913b9b314753be3fd4df885d353a1cb9e6da45c5d2eaf1ee08a",
	"manifest.json": "0643c7254b32be12c577da5ae02d4b9ddae5283d1f1e39b63b22928785a8968b",
	"shard-0.seg":   "b17dd068fc0c7af6c79c7a623ec3ec9c464ebf80229281399b30b36ff27c6796",
	"shard-1.seg":   "af0caf7177b913036214c5a754bf23c2310f88a23672ddd03f93843dcbb04a16",
	"shard-2.seg":   "daf34f7dd6fdfbe5de7d0a1c7490c25c1d4923fe85e7a54af258b93264d802fe",
	"shard-3.seg":   "f93bc978b694ea4820632bc2adaaf575b81bcb7d637aec39daa7dca9c3c90073",
}

// goldenFlavours are the builds whose segment directories are pinned: the
// production one above, and the other kinds on the same corpus at 2 shards —
// single-bound token and grid, dual-bound hybrid-hash. Every index serves and
// saves quantized postings whatever its options, so no flavour names a
// layout. The other kinds' posting segments were last re-recorded when their
// key column became Seal's: a run table over 32-bit nodes — token lists named
// (token, 0), grid lists (row, column), hybrid-hash lists (token, cell) — in
// place of a uint64 key a list and a hash directory over them. The same
// lists hold the same postings in the same order; only the key sections
// changed. Their manifests and dataset segments, and Seal's files, did not
// move.
//
// The last flavour is the production build over tiedObjects, whose Seal lists
// are runs of postings with equal spatial bounds that only the object
// tie-break orders.
var goldenFlavours = []struct {
	name    string
	corpus  func(*testing.T) []seal.Object
	opts    []seal.Option
	digests map[string]string
}{
	{"seal/quantized", goldenObjects, productionOptions, goldenSegmentDigests},
	{"token/quantized", goldenObjects, []seal.Option{seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(2)}, map[string]string{
		"dataset.seg":   golden2ShardDataset,
		"manifest.json": "7a0c5c4631cc354c8dec21d886382699c86ac7e74457f72fbd3e469c93e0d759",
		"shard-0.seg":   "0811d07ce09a8344e2b29d20220c87ce5b793cbe007df14aa393ddb6395c097e",
		"shard-1.seg":   "4d1423b131204712e83fc5ad41733fdbd9ee9441565a4b6f444eae2a8598f47b",
	}},
	{"grid/quantized", goldenObjects, []seal.Option{seal.WithMethod(seal.MethodGridFilter), seal.WithShards(2)}, map[string]string{
		"dataset.seg":   golden2ShardDataset,
		"manifest.json": "2287ad429c855d576c29b4c4fa0e67a1db21669cdf70eb9a3b86ebe9e0599373",
		"shard-0.seg":   "77adffe58d2181c862b087782d51dd5a7fd305143b8463c204ef0fa03a19ae4b",
		"shard-1.seg":   "daeb6b82915b7d3523802884f10fd078c7dee44124c6939c31a1362185a699ed",
	}},
	{"hybrid-hash/quantized", goldenObjects, []seal.Option{seal.WithMethod(seal.MethodHybridHash), seal.WithShards(2)}, map[string]string{
		"dataset.seg":   golden2ShardDataset,
		"manifest.json": "2a9f04c880d8fb5f12fc11d9a5a5a70407ea92b2f5dcd5b6a9ffc1eed45ee2ec",
		"shard-0.seg":   "00751c9ac749920efde5886bdea228da1b43a09a1257cfe6de3e1d2321473d64",
		"shard-1.seg":   "a03999b59fef8151e7f7b47d0b9a5bde1669ef4af00ae7a3158a5efdba0a7d7f",
	}},
	{"seal/tied", tiedObjects, productionOptions, map[string]string{
		"dataset.seg":   "b844e2cad4dac80b34f0e8b0ab15cb5a8cc72bbd8b4f5b397a90a2100eff6187",
		"manifest.json": "ed938ac2c4175feaa50c0f1e41984fb749075cff1dc9e672f072539b78691ef7",
		"shard-0.seg":   "974bb3ccf6af386bfe27e92ea004a0e9a390f1090a92ac7391a79d0b77069681",
		"shard-1.seg":   "64d4e645189140a54301267347a995453d3a94fe139a82f5e22dca6087928622",
		"shard-2.seg":   "222f3d7e3229af8daa89ec84e8dbc0982a2b5cd33adf20d3de0e3630072366f3",
		"shard-3.seg":   "3a6db0b9deb22dc22ea0ab21e8abe4925ccb5eac9b7feeacce30dec1aa20e312",
	}},
}

// golden2ShardDataset is the dataset segment of the golden corpus cut in two.
const golden2ShardDataset = "263eacd0788cc5f42302f9aeb99d052205274471ac9960e0bcd24d6f9c0a8bcb"

// productionOptions are the options of benchmark/run.go, less its
// WithCompression, which changes nothing.
var productionOptions = []seal.Option{seal.WithMethod(seal.MethodSeal), seal.WithShards(4)}

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

// tiedObjects is the golden corpus folded onto its first tiedDistinct
// objects: object i takes object i mod tiedDistinct's region and tokens, so
// every object has seven twins with its spatial and textual bounds under
// every token, and a Seal list holds each of its bounds once per twin.
func tiedObjects(t *testing.T) []seal.Object {
	t.Helper()
	objects := goldenObjects(t)
	for i := range objects {
		objects[i] = objects[i%tiedDistinct]
	}
	return objects
}

const tiedDistinct = 250 // of the golden corpus's 2,000 objects: 8 copies each

// TestGoldenSegmentDigests builds the golden corpus in every pinned flavour at
// GOMAXPROCS 1 and N, twice each, and compares every file of the segment
// directory with its recorded digest: the directory is a pure function of the
// corpus and the options — not of the worker count, and not of what the
// process did before.
func TestGoldenSegmentDigests(t *testing.T) {
	for _, fl := range goldenFlavours {
		objects := fl.corpus(t)
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
// version 2 at 2,544,617 B and 24.99 with a key directory in every segment
// and 2,029,418 B and 19.10 without one in Seal's, version 3 at 1,548,461 B
// and 13.59 with uint32 offset tables. Manifest version 7 is 22 B shorter
// than version 6, which carried a compressed field.
const (
	goldenDirBytes        = 1208471
	goldenPostings        = 87378
	goldenBytesPerPosting = 9.70 // the four posting segments' bytes / goldenPostings
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
// the ids of diskidx/segment.go: every kind's shard is runs/nodes/offs/blob —
// a run table over 32-bit nodes, no key array and no key directory. No kind
// writes the retired key sections 1 and 6 or the raw sections 2–5.
func TestSegmentSectionTables(t *testing.T) {
	objects := goldenObjects(t)
	for _, tc := range []struct {
		name string
		opts []seal.Option
		want []uint32
	}{
		{"seal/quantized", productionOptions, []uint32{10, 11, 7, 9}},
		{"token/quantized", goldenFlavours[1].opts, []uint32{10, 11, 7, 9}},
		{"grid/quantized", goldenFlavours[2].opts, []uint32{10, 11, 7, 9}},
		{"hybrid-hash/quantized", goldenFlavours[3].opts, []uint32{10, 11, 7, 9}},
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

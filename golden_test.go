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
// since. The four posting segments were last re-recorded for segment version
// 4: both offset tables — the lists' extents in rows (offs) and the token runs
// over 32-bit grid nodes (runs) — are unary-coded bitmaps where version 3
// stored uint32 arrays; a list is still columns of self-scaling 16-bit bound
// codes with nothing ahead of them. manifest.json was last re-recorded for
// manifest version 7, which lost the compressed field and fingerprints token
// weights and multi-region footprints. A change that means to alter the index
// format or the selection re-records them and says so.
var goldenSegmentDigests = map[string]string{
	"dataset.seg":   "995c77afd4caa883cb2179d7b82294ec38afa9397a64e3d5ce3907f0fd9f500d",
	"manifest.json": "0e113a5416180446f19c6ae2314ee126ad64f59297135c4dacee941f1f998b3f",
	"shard-0.seg":   "75656a821b2de8f291d0197548b834aea0c34a0b4fc32e33f895c3d7f727cbb7",
	"shard-1.seg":   "2049df8a2d925345f68f9e633adcdf2f8cd4313ee0c7e49ef9f733045c0899f9",
	"shard-2.seg":   "3861bffc69a72ed6adb1172c66d14ac292697573b11bb67c59cd3111553eae80",
	"shard-3.seg":   "2ab955b317459d3ce8c0302ef21d45facaecac1c4bc6169f1a8a75056f406b83",
}

// goldenFlavours are the builds whose segment directories are pinned: the
// production one above, and the other kinds on the same corpus at 2 shards —
// single-bound token and grid, dual-bound hybrid-hash — which look lists up by
// key and keep their key array and directory. Every index serves and saves
// quantized postings whatever its options, so no flavour names a layout; the
// digests were recorded before that was so and have not moved.
var goldenFlavours = []struct {
	name    string
	opts    []seal.Option
	digests map[string]string
}{
	{"seal/quantized", productionOptions, goldenSegmentDigests},
	{"token/quantized", []seal.Option{seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(2)}, map[string]string{
		"dataset.seg":   golden2ShardDataset,
		"manifest.json": "b891f293b95244dae3a5fa095f41aada818faaf40c1a81cf01d7fee79ebcd871",
		"shard-0.seg":   "b308c707c2025b218e1672762c3faa17ccb6c5c4bbf4b94a470aec494e3c1ee8",
		"shard-1.seg":   "9cbcb204b4fb65f0ebc5769555919e845134579f6f6968344c9cf4bf569c6324",
	}},
	{"grid/quantized", []seal.Option{seal.WithMethod(seal.MethodGridFilter), seal.WithShards(2)}, map[string]string{
		"dataset.seg":   golden2ShardDataset,
		"manifest.json": "288360f478aad8be0a7fdf68ab62a6feb3795bc729550cbdb6f9ffed375cee23",
		"shard-0.seg":   "441be43a7b9f945f6c3eec4bf202f347da3a23a173c372338f9ab2063ed63de6",
		"shard-1.seg":   "0fdf8eecfdcefa428e6fd111d9429a41b84bcfee9c50cbb436a9b49d6ca7c140",
	}},
	{"hybrid-hash/quantized", []seal.Option{seal.WithMethod(seal.MethodHybridHash), seal.WithShards(2)}, map[string]string{
		"dataset.seg":   golden2ShardDataset,
		"manifest.json": "e11ad22efe941ff5a46d3ea438b5cae3c836d14a1187617cdb316cf28a084c00",
		"shard-0.seg":   "f56afa59c11045c538523eb5fb47efb3a5dad6af0df58671fb48af3748cdd686",
		"shard-1.seg":   "65025538de6b5bdc5bacac6f82a2cad9108ca4177b64b9cfd37e44f96dd0188d",
	}},
}

// golden2ShardDataset is the dataset segment of the golden corpus cut in two.
const golden2ShardDataset = "599f8fb2f72268095fa31dba1d5a6377a48ac99f4dbb57bb67c670f9630444d1"

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
// the ids of diskidx/segment.go: a Seal shard is runs/nodes/offs/blob — a run
// table over 32-bit nodes, no key array and no key directory, its lists being
// reached by position — and the kinds that look lists up by key open with
// their keys (1) and end with the directory (6). No kind writes the retired
// raw sections 2–5.
func TestSegmentSectionTables(t *testing.T) {
	objects := goldenObjects(t)
	for _, tc := range []struct {
		name string
		opts []seal.Option
		want []uint32
	}{
		{"seal/quantized", productionOptions, []uint32{10, 11, 7, 9}},
		{"token/quantized", goldenFlavours[1].opts, []uint32{1, 7, 9, 6}},
		{"grid/quantized", goldenFlavours[2].opts, []uint32{1, 7, 9, 6}},
		{"hybrid-hash/quantized", goldenFlavours[3].opts, []uint32{1, 7, 9, 6}},
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

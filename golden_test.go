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
// Every file was last re-recorded for manifest version 9, which keeps the
// Z-order shards of version 8 but orders the rows inside each shard by object
// ID: dataset.seg (still version 2, a row→ID column under shard row bounds)
// holds the columns in that order, each posting segment names the same
// postings by their new rows, and the manifest carries the new version.
// Manifest version 10 re-recorded only the manifests: they carry the new
// version and the fingerprint that sums word hashes of the objects, while
// dataset.seg and every shard-N.seg kept their bytes. The
// posting format is still segment version 4:
// both offset tables — the lists' extents in rows (offs) and the token runs
// over 32-bit grid nodes (runs) — are unary-coded bitmaps, and a list is
// columns of self-scaling 16-bit bound codes with nothing ahead of them. The
// sizes did not move (TestSegmentBytesBudget). A change that means to alter
// the index format, the row order or the selection re-records them and says
// so.
var goldenSegmentDigests = map[string]string{
	"dataset.seg":   "53fbd55d026fa361161ddb145176345a227ee8f3ebad523d913da0d99b823e07",
	"manifest.json": "42c473f2a3173b5231f9eec9648f269ee42dc5b27c7f1affcd58cff5aefebf7c",
	"shard-0.seg":   "75656a821b2de8f291d0197548b834aea0c34a0b4fc32e33f895c3d7f727cbb7",
	"shard-1.seg":   "2049df8a2d925345f68f9e633adcdf2f8cd4313ee0c7e49ef9f733045c0899f9",
	"shard-2.seg":   "3861bffc69a72ed6adb1172c66d14ac292697573b11bb67c59cd3111553eae80",
	"shard-3.seg":   "2ab955b317459d3ce8c0302ef21d45facaecac1c4bc6169f1a8a75056f406b83",
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
// changed. Every flavour's files were re-recorded again for manifest version
// 9, whose rows ascend by ID inside each shard.
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
		"manifest.json": "3689d14cf86b9fd727d3385448ac592ff019aa89e17a23f57afd0a0b7ce84042",
		"shard-0.seg":   "0dc84945537c4fd94cc78f2db45f39fc4b7cab522f17c29e912d95f7233992d5",
		"shard-1.seg":   "e3ecd6fba4b6b238cea2616942694a866ae025eb0a7266719f1496b45ebaadb6",
	}},
	{"grid/quantized", goldenObjects, []seal.Option{seal.WithMethod(seal.MethodGridFilter), seal.WithShards(2)}, map[string]string{
		"dataset.seg":   golden2ShardDataset,
		"manifest.json": "b174dd3af9f615f10853c5b26a315e684e2c715142ce093f80c24cfb9da3e6e2",
		"shard-0.seg":   "ae6eaef135c9ab6d4492edc0e2ba67ef6062f93cff68d24f7f42f11e7aa159dc",
		"shard-1.seg":   "35432446f294f11a0541e2623060648c8da99797a06c0ed588f2cec3a720211c",
	}},
	{"hybrid-hash/quantized", goldenObjects, []seal.Option{seal.WithMethod(seal.MethodHybridHash), seal.WithShards(2)}, map[string]string{
		"dataset.seg":   golden2ShardDataset,
		"manifest.json": "ada575a04d9a79e4953bb6bf9d3cc8dc5dcc08267173c1ebb3a9303a5d5851a5",
		"shard-0.seg":   "7ae35213acfbbff972125bb6bc28232fed30332c1bb2903840af7e474b05eb8d",
		"shard-1.seg":   "b22393401d95d5f8bd1eae7643df0afe9444bd5bfa3e9f5a1a8a4e915e980bad",
	}},
	{"seal/tied", tiedObjects, productionOptions, map[string]string{
		"dataset.seg":   "8a7811f93d8c0e5aab1e27ada880974fde2f26527cd83898629a4ba3469b16c8",
		"manifest.json": "b8be7ba1a423fd08cc12942d9ca7de0306e3c56aab983f4c4b5d5c974c9e3bb0",
		"shard-0.seg":   "09922808944bfb1c0a41f603ba4ae4f7d5bfbcc0fc1d88109c97ec1a22eedb94",
		"shard-1.seg":   "6645871579714783cc668d3efb4141d719ae959cad98057e5f513beeb0909778",
		"shard-2.seg":   "6ebe42b9fd0980d4080a952d57f525243d2825edc58518982cb69b4a49dcda20",
		"shard-3.seg":   "d0677120d1fe48d22db5087076b3f258d97af8dff030331833dfa162cd45bb3d",
	}},
}

// golden2ShardDataset is the dataset segment of the golden corpus cut in two.
const golden2ShardDataset = "e1d6de56271131771bcc46af53b74870516fa2fb4c44f0c85e01f23ff05cc005"

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
// than version 6, which carried a compressed field, and version 10 is 1 B
// longer than version 9: its version number has two digits.
const (
	goldenDirBytes        = 1208472
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

package seal_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/server"
)

// goldenSegmentDigests are the sha256 digests of every file of the segment
// directory that the production build (seal / 4 shards / quantized / segments,
// the options of benchmark/run.go) writes for gen.Twitter{N: 2000, Seed: 42}.
// The four posting segments are the digests recorded at the commit before the
// one-pass HSS build kernel landed and unchanged since: neither that kernel
// nor the move of the grid selections out of a sidecar file into the keys may
// change a byte of them. manifest.json and dataset.seg were recorded when the
// directory went gob-free (manifest version 2). A change that means to alter
// the index format or the selection re-records them and says so.
var goldenSegmentDigests = map[string]string{
	"dataset.seg":   "995c77afd4caa883cb2179d7b82294ec38afa9397a64e3d5ce3907f0fd9f500d",
	"manifest.json": "0a4986c2590f55b08ad3cfc1bac84e5bc6c73764bba1f24223d99792e983eee4",
	"shard-0.seg":   "37c265035648bf3682e62826cd10eb0ef76a6c26c580a32cfeb77ea1217c043c",
	"shard-1.seg":   "373ddb0578df6de898aa9c173432205e9d45d9a6b35b8645614e37b78f0bfaea",
	"shard-2.seg":   "ee48a1da2aaa742d4c0e1abdc06b0bba165d316782c879e083fcb0c177ca93c5",
	"shard-3.seg":   "aa1f76bdc48e5c91cd04c9c92381b488b16e3966226c077ab328527a2f6ac03e",
}

// TestGoldenSegmentDigests builds the golden corpus at GOMAXPROCS 1 and N,
// twice each, and compares every file of the segment directory with its
// recorded digest: the directory is a pure function of the corpus and the
// options — not of the worker count, and not of what the process did before.
func TestGoldenSegmentDigests(t *testing.T) {
	ds, err := gen.Twitter(gen.TwitterConfig{N: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	objects := server.SnapshotObjects(ds)
	for _, p := range []int{1, max(4, runtime.NumCPU()), 1, max(4, runtime.NumCPU())} {
		dir := filepath.Join(t.TempDir(), "segments")
		prev := runtime.GOMAXPROCS(p)
		ix, err := seal.Build(objects,
			seal.WithMethod(seal.MethodSeal), seal.WithShards(4),
			seal.WithCompression(seal.CompressionQuantized), seal.WithSegmentDir(dir))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(goldenSegmentDigests) {
			t.Errorf("GOMAXPROCS %d: %d files in the segment directory, want %d", p, len(entries), len(goldenSegmentDigests))
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got, want := hex.EncodeToString(sum[:]), goldenSegmentDigests[e.Name()]; got != want {
				t.Errorf("GOMAXPROCS %d: %s: sha256 %s, want %s", p, e.Name(), got, want)
			}
		}
	}
}

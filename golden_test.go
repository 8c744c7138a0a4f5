package seal_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/server"
)

// goldenSegmentDigests are the sha256 digests of every file of the segment
// directory that the production build (seal / 4 shards / quantized / segments,
// the options of benchmark/run.go) writes for gen.Twitter{N: 2000, Seed: 42}.
// They were recorded at the commit before the one-pass HSS build kernel
// landed: the kernel may change how fast an index is produced, never a byte
// of it. A change that means to alter the index format or the selection
// re-records them and says so.
var goldenSegmentDigests = map[string]string{
	"dataset.snap":      "f223b61a3b853bc14da3e58e8f29059bfe81d0d2428f9c81d5c5d3df7a00b853",
	"manifest.json":     "02d7dfe6384179c33c86195973a715a6009cc4f062c7e3f8d2cc0caca36c83d8",
	"parts.gob":         "94838e04c9b5683bea8a1affeba474e84cf3faf3b900637ce31743ed9b080285",
	"shard-0.grids.gob": "a28879c66fdc3d732e9487031d6136b17f8f36bff7b00c1adfee04a55308cfa8",
	"shard-0.seg":       "37c265035648bf3682e62826cd10eb0ef76a6c26c580a32cfeb77ea1217c043c",
	"shard-1.grids.gob": "02d725e6685dc100c0849d595edb619109ec3966b464680dc3cbd84c3bfc9f18",
	"shard-1.seg":       "373ddb0578df6de898aa9c173432205e9d45d9a6b35b8645614e37b78f0bfaea",
	"shard-2.grids.gob": "c96bb65650cf97e673c619b6989b0d6238b5854b89ee8ac65c3a100dc0e40e9e",
	"shard-2.seg":       "ee48a1da2aaa742d4c0e1abdc06b0bba165d316782c879e083fcb0c177ca93c5",
	"shard-3.grids.gob": "f6ac0b8cd8037d3096df280a8ec71db2f2e6950997d3a5b1dca656c7dc646cef",
	"shard-3.seg":       "aa1f76bdc48e5c91cd04c9c92381b488b16e3966226c077ab328527a2f6ac03e",
}

// goldenDirEnv names, for a child run of TestGoldenSegmentDigests, the
// directory to build the golden segment directory into.
const goldenDirEnv = "SEAL_GOLDEN_SEGMENT_DIR"

// TestGoldenSegmentDigests builds the golden corpus at GOMAXPROCS 1 and N and
// compares every file of the segment directory with its recorded digest.
//
// Each build runs in a child process of this test binary. The .gob files
// carry encoding/gob type ids, which a process hands out in order of first
// use, so their bytes depend on what else the process encoded before — in a
// shuffled test run, on the shuffle. A fresh process is what a build in
// production is, and it gets GOMAXPROCS from the environment like one.
func TestGoldenSegmentDigests(t *testing.T) {
	if dir := os.Getenv(goldenDirEnv); dir != "" {
		buildGoldenSegments(t, dir)
		return
	}
	for _, p := range []int{1, max(4, runtime.NumCPU())} {
		dir := filepath.Join(t.TempDir(), "segments")
		cmd := exec.Command(os.Args[0], "-test.run=^TestGoldenSegmentDigests$")
		cmd.Env = append(os.Environ(), goldenDirEnv+"="+dir, "GOMAXPROCS="+strconv.Itoa(p))
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("GOMAXPROCS %d: child build: %v\n%s", p, err, out)
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

func buildGoldenSegments(t *testing.T, dir string) {
	ds, err := gen.Twitter(gen.TwitterConfig{N: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := seal.Build(server.SnapshotObjects(ds),
		seal.WithMethod(seal.MethodSeal), seal.WithShards(4),
		seal.WithCompression(seal.CompressionQuantized), seal.WithSegmentDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

package engine

import (
	"math/rand"
	"testing"

	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
)

// TestFingerprintIgnoresRowOrder: Fingerprint hashes objects, not rows, so
// any permutation of a dataset's rows — not only the partitioner's — hashes
// the same as the dataset itself.
func TestFingerprintIgnoresRowOrder(t *testing.T) {
	ds, err := gen.Twitter(gen.TwitterConfig{N: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	want := Fingerprint(ds)
	rng := rand.New(rand.NewSource(56))
	for trial := range 5 {
		rows := make([]model.ObjectID, ds.Len())
		for r := range rows {
			rows[r] = model.ObjectID(r)
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		p, err := ds.Permute(rows)
		if err != nil {
			t.Fatal(err)
		}
		if got := Fingerprint(p); got != want {
			t.Fatalf("permutation %d: fingerprint %s, want the dataset's %s", trial, got, want)
		}
	}
}

// BenchmarkFingerprint hashes the shard rung's corpus once an op: the pass a
// segment save makes before its manifest, and a boot before its shards.
//
//	GOMAXPROCS=1 go test -run '^$' -bench Fingerprint -count 10 ./internal/engine
func BenchmarkFingerprint(b *testing.B) {
	ds := rungCorpus(b)
	b.ReportAllocs()
	for b.Loop() {
		Fingerprint(ds)
	}
}
